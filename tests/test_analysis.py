import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab.analysis import (
    combinatorial_entropy,
    complexity_curve,
    count_low_entropy_blocks,
    entropy_profile,
    eps_m_goodness,
    epsilon_complexity,
    switch_density,
)
from normlab.errors import BudgetError, DomainError
from normlab.generators import bernoulli_stream, kappa_sequence, y_sequence
from normlab.grayorder import GrayOrdering
from normlab.seqcore import (
    Block,
    SymbolicSequence,
    _anchor_codes,
    block_histogram,
    empirical_measure,
    prefix_frequency,
)

from helpers import constant

B = Block.from_string


# -- combinatorial entropy ---------------------------------------------------


def test_entropy_trivial_cases():
    assert combinatorial_entropy(B("00000000").as_array(), 2) == 0.0
    assert combinatorial_entropy(B("0011").as_array(), 1) == 1.0


def test_entropy_alternating_block():
    # two 2-blocks with masses 4/7 and 3/7
    want = -(
        Fraction(4, 7) * math.log2(4 / 7) + Fraction(3, 7) * math.log2(3 / 7)
    ) / 2
    got = combinatorial_entropy(B("01010101").as_array(), 2)
    assert abs(got - 0.4926) <= 1e-4
    assert abs(got - float(want)) <= 1e-12
    assert combinatorial_entropy(B("01010101").as_array(), 2) <= 1.0


def test_entropy_length_check():
    with pytest.raises(DomainError, match="block length m=3 exceeds the 2 digits"):
        combinatorial_entropy(B("01").as_array(), 3)


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize(
    "statistic",
    [
        lambda d, m: combinatorial_entropy(d, m),
        lambda d, m: eps_m_goodness(d, m),
        lambda d, m: epsilon_complexity(d, 0.1, m),
        lambda d, m: empirical_measure(SymbolicSequence.from_array(d), m, len(d)),
        lambda d, m: entropy_profile(d, [len(d)], [m]),
    ],
    ids=["entropy", "goodness", "complexity", "measure", "profile"],
)
def test_block_length_below_one_is_named(statistic, m):
    with pytest.raises(DomainError, match=f"block length [mn]={m} must be >= 1"):
        statistic(np.array([0, 1, 1, 0], dtype=np.uint8), m)


@pytest.mark.parametrize(
    "statistic",
    [
        combinatorial_entropy,
        eps_m_goodness,
        lambda d, m: epsilon_complexity(d, 0.1, m),
        lambda d, m: entropy_profile(d, [len(d)], [m]),
    ],
    ids=["entropy", "goodness", "complexity", "profile"],
)
def test_block_longer_than_the_digits_is_named(statistic):
    with pytest.raises(DomainError, match="block length m=5 exceeds the 4 digits"):
        statistic(np.array([0, 1, 1, 0], dtype=np.uint8), 5)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=32), st.integers(1, 3))
def test_entropy_bounds(digits, n):
    if n > len(digits):
        n = len(digits)
    h = combinatorial_entropy(np.array(digits, dtype=np.uint8), n)
    assert -1e-12 <= h <= 1.0 + 1e-12
    distinct = {tuple(digits[i : i + n]) for i in range(len(digits) - n + 1)}
    assert (h == 0.0) == (len(distinct) == 1)


# -- epsilon complexity ------------------------------------------------------


def test_complexity_periodic():
    seq = SymbolicSequence.periodic([0, 1])
    assert epsilon_complexity(seq.digits(1, 500), 0.4, 3) == 2
    assert epsilon_complexity(constant(0).digits(1, 500), 0.4, 3) == 1


def test_complexity_fair_coin_half_eps():
    seq = bernoulli_stream(Fraction(1, 2), 20250811, 10**6)
    assert epsilon_complexity(seq.digits(1, 10**6), 0.5, 4) == 8


def test_complexity_monotone_in_eps():
    seq = bernoulli_stream(Fraction(1, 3), 17, 5000)
    values = [epsilon_complexity(seq.digits(1, 5000), e, 5) for e in (0.05, 0.1, 0.2, 0.4)]
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


def epsilon_complexity_by_heads(counts: np.ndarray, eps) -> int:
    """Take the most frequent blocks one at a time until at most eps * W
    anchors lie outside them."""
    W = int(counts.sum())
    allowed = Fraction(eps) * W
    outside = W
    taken = 0
    for c in np.sort(counts)[::-1]:
        if outside <= allowed:
            break
        outside -= int(c)
        taken += 1
    return taken


eps_values = st.one_of(
    st.integers(2, 10**15).flatmap(lambda q: st.integers(1, q - 1).map(lambda a: Fraction(a, q))),
    st.floats(1e-12, 1 - 1e-12),
)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=400),
    st.integers(1, 9),
    eps_values,
    st.integers(1, 400),
)
def test_complexity_head_count_matches_taking_heads(digits, m, eps, j):
    arr = np.array(digits, dtype=np.uint8)
    m = min(m, len(digits))
    W = len(digits) - m + 1
    _, counts = block_histogram(_anchor_codes(arr, m, 2), 1 << m)
    # eps * W on an integer and 10^-20 to either side of it, where a float
    # product would round across the integer
    on = Fraction(j % W, W)
    for e in (eps, on, on - Fraction(1, 10**20), on + Fraction(1, 10**20)):
        if 0 < e < 1:
            assert epsilon_complexity(arr, e, m) == epsilon_complexity_by_heads(counts, e)


def test_complexity_curve_verdict():
    # the alternating sequence has C = 2 at every m; the 2^(eps m) threshold
    # overtakes it at m = 4 for eps = 0.4 and at m = 11 for eps = 0.1
    digits = SymbolicSequence.periodic([0, 1]).digits(1, 2000)
    assert complexity_curve(digits, 0.4, range(1, 5)).verdict
    assert not complexity_curve(digits, 0.1, range(1, 11)).verdict
    rep = complexity_curve(digits, 0.1, range(1, 12))
    assert rep.verdict and rep.rows[-1][1] == 2


def test_complexity_kappa_near_saturation():
    digits = kappa_sequence().digits(1, 1 << 20)
    c = epsilon_complexity(digits, 0.1, 4)
    assert c == 15  # nearly all 16 four-blocks are needed to cover 90 percent
    assert c > 2 ** (0.1 * 4)


def test_complexity_curve_sparse_sequence():
    rep = complexity_curve(y_sequence().digits(1, 20000), 0.1, range(1, 13))
    assert all(c <= 4 for _, c, _ in rep.rows)
    assert rep.verdict


# -- goodness ----------------------------------------------------------------


def test_goodness_constant():
    assert eps_m_goodness(constant(0).digits(1, 64), 1) == Fraction(1, 2)


def test_goodness_gray_concatenation():
    # all 2^8 blocks of length 8 in Gray order: each symbol appears exactly
    # half the time, so the single-symbol deviation vanishes
    digits = np.concatenate(
        [GrayOrdering(8).block(l).as_array() for l in range(1, 257)]
    )
    assert eps_m_goodness(digits, 1) <= Fraction(1, 100)


def test_goodness_mirror_invariant():
    seq = bernoulli_stream(Fraction(1, 3), 5, 4000)
    digits = seq.digits(1, 4000)
    for m in (1, 2, 3):
        assert eps_m_goodness(digits, m) == eps_m_goodness(1 - digits, m)


def test_goodness_kappa_prefix():
    digits = kappa_sequence().digits(1, 1 << 20)
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
    assert switch_density(SymbolicSequence.periodic([0, 1]).digits(1, 100)) == 1
    assert switch_density(constant(0).digits(1, 100)) == 0


def test_switch_density_length_check():
    with pytest.raises(DomainError, match="switch density needs at least two digits"):
        switch_density(constant(0).digits(1, 1))


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=200))
def test_switch_equals_01_plus_10_frequency(digits):
    seq = SymbolicSequence.from_array(digits)
    L = len(digits)
    total = prefix_frequency(seq, B("01"), L) + prefix_frequency(seq, B("10"), L)
    assert switch_density(seq.digits(1, L)) == total


# -- entropy profile ---------------------------------------------------------


def test_profile_bernoulli_near_one():
    prof = entropy_profile(bernoulli_stream(Fraction(1, 2), 11, 10**6).digits(1, 10**6), [10**6], [8])
    h = prof.rows[0][2]
    assert 0.99 <= h <= 1.0


def test_profile_sparse_low():
    prof = entropy_profile(y_sequence().digits(1, 20000), [20000], [8])
    assert prof.rows[0][2] <= 0.05


def test_profile_periodic_eighth():
    prof = entropy_profile(SymbolicSequence.periodic([0, 1]).digits(1, 4096), [4096], [8])
    assert abs(prof.rows[0][2] - 0.125) <= 0.01


def test_profile_min_max():
    prof = entropy_profile(bernoulli_stream(Fraction(1, 2), 3, 4096).digits(1, 4096), [256, 4096], [2])
    lo, hi = prof.per_n()[2]
    assert lo <= hi


def test_profile_rejects_a_window_longer_than_the_digits():
    # a longer window is an error, not a row labeled with a window never read
    digits = np.array([0, 1, 1, 0], dtype=np.uint8)
    with pytest.raises(DomainError, match="window length 5 exceeds the 4 digits"):
        entropy_profile(digits, [4, 5], [1])
    assert entropy_profile(digits, [4, 2], [2]).rows == [(4, 2, combinatorial_entropy(digits, 2)), (2, 2, 0.0)]


def profile_by_windows(digits, windows, ns, r=2):
    """The rows of entropy_profile by definition: combinatorial_entropy of
    each window for each n, counted afresh every time."""
    return [(w, n, combinatorial_entropy(digits[:w], n, r)) for w in windows for n in ns]


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def profile_inputs(draw):
    r = draw(st.sampled_from([2, 3]))
    digits = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=300))
    # any order, duplicates, windows shorter than the largest n
    windows = draw(st.lists(st.integers(1, len(digits)), min_size=1, max_size=5))
    # not contiguous, not from 1, possibly empty; n > 8 (binary) or n > 5
    # (ternary) puts the largest n past the dense table of every window;
    # n < 1 gives a DomainError
    ns = draw(st.lists(st.integers(-1, 20), max_size=5))
    return r, digits, windows, ns


@settings(max_examples=300)
@given(profile_inputs())
@example((2, [0, 1, 1] * 40, [120, 50], [62, 3]))  # code budget before a short window
@example((2, [0, 1, 1] * 40, [50, 120], [3, 62]))  # a short window before the budget
@example((3, [0, 1, 2, 2] * 30, [120, 7], [40, 2]))
@example((2, [1] * 300, [300, 299, 1], [1]))
def test_profile_matches_per_window_entropy(inputs):
    r, digits, windows, ns = inputs
    arr = np.array(digits, dtype=np.uint8)
    got = outcome(lambda: entropy_profile(arr, windows, ns, r).rows)
    assert got == outcome(lambda: profile_by_windows(arr, windows, ns, r))
    assert entropy_profile(arr, windows, range(1, 1), r).rows == []


def test_profile_matches_per_window_entropy_at_scale():
    # 2^16 digits: dense tables at the largest n, thousands of codes each
    for seq in (kappa_sequence(), bernoulli_stream(Fraction(1, 3), 7, 1 << 16)):
        digits = seq.digits(1, 1 << 16)
        windows, ns = [1 << 16, 1000, 1 << 12, 1000], range(3, 13, 2)
        assert entropy_profile(digits, windows, ns).rows == profile_by_windows(digits, windows, ns)


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
        if combinatorial_entropy(block.as_array(), n) <= c:
            direct += 1
    assert count_low_entropy_blocks(m, n, c) == direct


def test_census_budget():
    with pytest.raises(BudgetError, match="enumeration budget is block length m <= 24, got 30"):
        count_low_entropy_blocks(30, 1, 0.5)


@pytest.mark.parametrize("m, n", [(0, 0), (4, 0), (4, -1), (3, 4), (-1, 3)])
def test_census_needs_n_between_1_and_m(m, n):
    # n = 0 once divided 0/0 into NaN entropies (m = 4 counted all 16
    # blocks) and m = n = 0 ended in a ZeroDivisionError
    with pytest.raises(DomainError, match=f"n={n} "):
        count_low_entropy_blocks(m, n, 0.5)
