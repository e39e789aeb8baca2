import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab.analysis import (
    BudgetError,
    combinatorial_entropy,
    complexity_curve,
    count_low_entropy_blocks,
    entropy_profile,
    eps_m_goodness,
    epsilon_complexity,
    switch_density,
)
from normlab.generators import bernoulli_stream, kappa_sequence, y_sequence
from normlab.grayorder import GrayOrdering
from normlab.seqcore import Block, LengthError, SymbolicSequence, prefix_frequency

B = Block.from_string


# -- combinatorial entropy ---------------------------------------------------


def test_entropy_trivial_cases():
    assert combinatorial_entropy(B("00000000"), 2) == 0.0
    assert combinatorial_entropy(B("0011"), 1) == 1.0


def test_entropy_alternating_block():
    # two 2-blocks with masses 4/7 and 3/7
    want = -(
        Fraction(4, 7) * math.log2(4 / 7) + Fraction(3, 7) * math.log2(3 / 7)
    ) / 2
    got = combinatorial_entropy(B("01010101"), 2)
    assert abs(got - 0.4926) <= 1e-4
    assert abs(got - float(want)) <= 1e-12
    assert combinatorial_entropy(B("01010101"), 2) <= 1.0


def test_entropy_length_check():
    with pytest.raises(LengthError):
        combinatorial_entropy(B("01"), 3)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=32), st.integers(1, 3))
def test_entropy_bounds(digits, n):
    if n > len(digits):
        n = len(digits)
    h = combinatorial_entropy(Block(tuple(digits)), n)
    assert -1e-12 <= h <= 1.0 + 1e-12
    distinct = {tuple(digits[i : i + n]) for i in range(len(digits) - n + 1)}
    assert (h == 0.0) == (len(distinct) == 1)


# -- epsilon complexity ------------------------------------------------------


def test_complexity_periodic():
    seq = SymbolicSequence.periodic([0, 1])
    assert epsilon_complexity(seq, 0.4, 3, L=500) == 2
    assert epsilon_complexity(SymbolicSequence.constant(0), 0.4, 3, L=500) == 1


def test_complexity_fair_coin_half_eps():
    seq = bernoulli_stream(Fraction(1, 2), 20250811, 10**6)
    assert epsilon_complexity(seq, 0.5, 4) == 8


def test_complexity_monotone_in_eps():
    seq = bernoulli_stream(Fraction(1, 3), 17, 5000)
    values = [epsilon_complexity(seq, e, 5) for e in (0.05, 0.1, 0.2, 0.4)]
    assert values == sorted(values, reverse=True)
    assert values[0] <= 2**5


def brute_force_complexity(digits, eps, m):
    W = len(digits) - m + 1
    counts = {}
    for i in range(W):
        key = tuple(digits[i : i + m])
        counts[key] = counts.get(key, 0) + 1
    best = len(counts)
    blocks = list(counts)
    for size in range(len(blocks) + 1):
        for family in itertools.combinations(blocks, size):
            outside = W - sum(counts[b] for b in family)
            if Fraction(outside, W) <= Fraction(eps):
                return size
    return best


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=8, max_size=60),
    st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
    st.integers(1, 3),
)
def test_greedy_matches_brute_force(digits, eps, m):
    got = epsilon_complexity(np.array(digits, dtype=np.uint8), eps, m)
    assert got == brute_force_complexity(digits, eps, m)


def test_complexity_curve_verdict():
    # the alternating sequence has C = 2 at every m; the 2^(eps m) threshold
    # overtakes it at m = 4 for eps = 0.4 and at m = 11 for eps = 0.1
    seq = SymbolicSequence.periodic([0, 1])
    assert complexity_curve(seq, 0.4, range(1, 5), L=2000).verdict
    assert not complexity_curve(seq, 0.1, range(1, 11), L=2000).verdict
    rep = complexity_curve(seq, 0.1, range(1, 12), L=2000)
    assert rep.verdict and rep.rows[-1][1] == 2


def test_complexity_kappa_near_saturation():
    digits = kappa_sequence().prefix(1 << 20)
    c = epsilon_complexity(digits, 0.1, 4)
    assert c == 15  # nearly all 16 four-blocks are needed to cover 90 percent
    assert c > 2 ** (0.1 * 4)


def test_complexity_curve_sparse_sequence():
    rep = complexity_curve(y_sequence().prefix(20000), 0.1, range(1, 13))
    assert all(c <= 4 for _, c, _ in rep.rows)
    assert rep.verdict


# -- goodness ----------------------------------------------------------------


def test_goodness_constant():
    assert eps_m_goodness(SymbolicSequence.constant(0), 1, L=64) == Fraction(1, 2)


def test_goodness_gray_concatenation():
    # all 2^8 blocks of length 8 in Gray order: each symbol appears exactly
    # half the time, so the single-symbol deviation vanishes
    digits = np.concatenate(
        [GrayOrdering(8).block(l).as_array() for l in range(1, 257)]
    )
    assert eps_m_goodness(digits, 1) <= Fraction(1, 100)


def test_goodness_mirror_invariant():
    seq = bernoulli_stream(Fraction(1, 3), 5, 4000)
    digits = seq.prefix(4000)
    for m in (1, 2, 3):
        assert eps_m_goodness(digits, m) == eps_m_goodness(1 - digits, m)


def test_goodness_kappa_prefix():
    digits = kappa_sequence().prefix(1 << 20)
    for m in range(1, 7):
        assert eps_m_goodness(digits, m) <= Fraction(1, 4) / 2**m


def _goodness_by_enumeration(digits, m):
    """The definition: the largest |c/W - 2^-m| over all 2^m binary blocks."""
    W = len(digits) - m + 1
    counts = [0] * 2**m
    for i in range(W):
        counts[int("".join(map(str, digits[i : i + m])), 2)] += 1
    target = Fraction(1, 2**m)
    return max(abs(Fraction(c, W) - target) for c in counts)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=80), st.integers(1, 9))
@example([0, 1, 1, 0], 2)  # 00 never occurs, the rest once each: the 0 count decides
def test_goodness_closed_form_matches_enumeration(digits, m):
    # m up to 9 on at most 80 digits: 2^m > W, where blocks go missing, is common
    m = min(m, len(digits))
    assert eps_m_goodness(digits, m) == _goodness_by_enumeration(digits, m)


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=60), st.integers(1, 6))
def test_entropy_matches_dense_bincount(digits, n):
    # the former rule, a dense bincount over every code below the largest;
    # with 3^n > W the sparse path runs and must give the same float
    n = min(n, len(digits))
    arr = np.asarray(digits, dtype=np.uint8)
    codes = [int("".join(map(str, digits[i : i + n])), 3) for i in range(len(digits) - n + 1)]
    counts = np.bincount(codes)
    counts = counts[counts > 0]
    p = counts / counts.sum()
    want = 0.0 if len(counts) == 1 else float(-(p * np.log2(p)).sum() / n)
    assert combinatorial_entropy(arr, n, r=3) == want


# -- switches ----------------------------------------------------------------


def test_switch_density_extremes():
    assert switch_density(SymbolicSequence.periodic([0, 1]), L=100) == 1
    assert switch_density(SymbolicSequence.constant(0), L=100) == 0


def test_switch_density_length_check():
    with pytest.raises(LengthError):
        switch_density(SymbolicSequence.constant(0), L=1)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=200))
def test_switch_equals_01_plus_10_frequency(digits):
    seq = SymbolicSequence.from_array(digits)
    L = len(digits)
    total = prefix_frequency(seq, B("01"), L) + prefix_frequency(seq, B("10"), L)
    assert switch_density(seq) == total


# -- entropy profile ---------------------------------------------------------


def test_profile_bernoulli_near_one():
    prof = entropy_profile(bernoulli_stream(Fraction(1, 2), 11, 10**6), [10**6], [8])
    h = prof.rows[0][2]
    assert 0.99 <= h <= 1.0


def test_profile_sparse_low():
    prof = entropy_profile(y_sequence(), [20000], [8])
    assert prof.rows[0][2] <= 0.05


def test_profile_periodic_eighth():
    prof = entropy_profile(SymbolicSequence.periodic([0, 1]), [4096], [8])
    assert abs(prof.rows[0][2] - 0.125) <= 0.01


def test_profile_min_max():
    prof = entropy_profile(bernoulli_stream(Fraction(1, 2), 3, 4096), [256, 4096], [2])
    lo, hi = prof.per_n()[2]
    assert lo <= hi


# -- census ------------------------------------------------------------------


@pytest.mark.parametrize(
    "m, n, c, want",
    [
        (8, 1, 0.0, 2),
        (4, 1, 0.82, 10),
        (16, 2, 0.5, 98),
    ],
)
def test_low_entropy_census(m, n, c, want):
    assert count_low_entropy_blocks(m, n, c) == want


def test_census_matches_direct_enumeration():
    m, n, c = 10, 2, 0.6
    direct = 0
    for code in range(1 << m):
        block = Block.from_code(code, m, 2)
        if combinatorial_entropy(block, n) <= c:
            direct += 1
    assert count_low_entropy_blocks(m, n, c) == direct


def test_census_budget():
    with pytest.raises(BudgetError):
        count_low_entropy_blocks(30, 1, 0.5)
