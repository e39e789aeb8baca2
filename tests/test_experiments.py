import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.errors import DataQualityError
from normlab.experiments import _row_pair_table, band, cells_within, load_manifest, run_experiment
from normlab.seqcore import Block, SymbolicSequence, _anchor_codes, prefix_frequency

from helpers import base4_split, constant


def joint_frequency(seq1, seq2, B1: Block, B2: Block, N: int) -> Fraction:
    """Fraction of common anchors where B1 occurs in seq1 and B2 in seq2.

    Anchors range over [1, N - max(|B1|,|B2|) + 1] so that the diagonal case
    joint_frequency(s, s, B, B, N) == prefix_frequency(s, B, N) holds exactly.
    """
    W = N - max(len(B1), len(B2)) + 1
    c1 = _anchor_codes(seq1.digits(1, W + len(B1) - 1), len(B1), seq1.r)
    c2 = _anchor_codes(seq2.digits(1, W + len(B2) - 1), len(B2), seq2.r)
    return Fraction(int(np.count_nonzero((c1 == B1.encode()) & (c2 == B2.encode()))), W)


def test_joint_frequency_diagonal():
    seq = SymbolicSequence.periodic([0, 1, 1])
    for blk in ("01", "11", "10"):
        B = Block.from_string(blk)
        assert joint_frequency(seq, seq, B, B, 50) == prefix_frequency(seq, B, 50)


def test_joint_frequency_constant_left():
    zeros = constant(0)
    seq = SymbolicSequence.periodic([0, 1, 1, 0])
    B = Block.from_string
    assert joint_frequency(zeros, seq, B("00"), B("11"), 60) == prefix_frequency(seq, B("11"), 60)


@settings(max_examples=100)
@given(data=st.data())
def test_pair_block_counts_match_frequencies(data):
    # the row-pair table read from the base-4 block counts, against the
    # frequencies of each binary row on its own and of both rows together
    N = data.draw(st.integers(2, 40))
    digits = data.draw(st.lists(st.integers(0, 3), min_size=N, max_size=N))
    quad = SymbolicSequence.from_array(digits, r=4)
    # read-only, as the experiment's digits are, or writeable
    arr = quad.digits(1, N) if data.draw(st.booleans()) else np.array(digits, dtype=np.uint8)
    s1, s2 = base4_split(quad)
    for blen in (1, 2):
        W = N - blen + 1
        joint = _row_pair_table(arr, blen)
        marg1, marg2 = joint.sum(1), joint.sum(0)
        for c1 in range(1 << blen):
            B1 = Block.from_code(c1, blen, 2)
            assert Fraction(int(marg1[c1]), W) == prefix_frequency(s1, B1, N)
            assert Fraction(int(marg2[c1]), W) == prefix_frequency(s2, B1, N)
            for c2 in range(1 << blen):
                B2 = Block.from_code(c2, blen, 2)
                got = Fraction(int(joint[c1, c2]), W)
                assert got == joint_frequency(s1, s2, B1, B2, N)


def binom_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def too_wide(targets, n: int, k: int) -> bool:
    """Whether every target's k-sigma band holds all of [0, 1]."""
    return all(t - k * binom_sigma(t, n) <= 0 and t + k * binom_sigma(t, n) >= 1 for t in targets)


def cells_by_loop(counts, targets, n: int, k: int, labels):
    """The per-cell loop that `cells_within` replaced: the worst cell's
    deviation and label, and whether every cell is within k sigma.  It
    starts below 0 so that a zero deviation still names its cell."""
    worst, worst_label, ok = -1.0, "", True
    for count, t, label in zip(counts, targets, labels):
        dev = abs(float(Fraction(count, n)) - t)
        if dev > worst:
            worst, worst_label = dev, label
        if dev > k * binom_sigma(t, n):
            ok = False
    return f"max dev {worst:.6f} at {worst_label}", ok


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sigma_checks_match_the_comparisons_they_replace(data):
    # few trials, where a band may hold every outcome, or many
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 10**6)))
    k = data.draw(st.integers(1, 5))
    cells = data.draw(st.integers(1, 16))
    # one target for every cell, as for uniformity, or one each
    one_each = st.lists(st.floats(0, 1), min_size=cells, max_size=cells)
    targets = data.draw(st.floats(0, 1).map(lambda t: [t] * cells) | one_each)
    # counts anywhere, or within about a sigma of their targets, where a cell can pass
    spread = math.isqrt(n) // 2
    near = st.tuples(*(st.integers(round(t * n) - spread, round(t * n) + spread) for t in targets))
    counts = [min(max(c, 0), n) for c in data.draw(st.lists(st.integers(0, n), min_size=cells, max_size=cells) | near)]
    labels = [f"c{i}" for i in range(cells)]
    if too_wide(targets, n, k):
        with pytest.raises(DataQualityError):
            cells_within("cells", counts, targets, n, k, labels)
    else:
        check = cells_within("cells", counts, targets, n, k, labels)
        assert (check.measured, check.passed) == cells_by_loop(counts, targets, n, k, labels)
    # band: the center +- k sigma comparison of one measured frequency
    measured, center = counts[0] / n, targets[0]
    if too_wide([center], n, k):
        with pytest.raises(DataQualityError):
            band("band", measured, center, n, k)
    else:
        sigma = binom_sigma(center, n)
        check = band("band", measured, center, n, k)
        assert check.measured == round(measured, 8)
        assert check.passed == (center - k * sigma <= measured <= center + k * sigma)


def test_sigma_checks_at_their_edges():
    # at n = 4, one sigma of 1/2 is 1/4: a deviation of exactly k sigma is within the band
    assert cells_within("cells", [3, 1], [0.5, 0.5], 4, 1).passed
    assert band("band", 0.25, 0.5, 4, 1).passed and band("band", 0.75, 0.5, 4, 1).passed
    # at n = 3, 3 sigma of 1/4 or 3/4 is 3/4: bands that reach 1 or 0 exactly hold every outcome
    with pytest.raises(DataQualityError, match="^a 3 sigma band over 3 trials is too wide to test"):
        cells_within("cells", [0, 3], [0.25, 0.75], 3, 3)
    # a target of 0 or 1 keeps a sigma of 10^-6 / sqrt(n)
    assert cells_within("cells", [0, 5], [0.0, 1.0], 5, 3).tolerance == f"3 sigma <= {3e-6 / math.sqrt(5):.2e}"


@pytest.mark.parametrize("name", ["modp-translation", "ca-switch-identity", "base4-independence"])
def test_digit_checks_keep_their_digits_compact(name):
    # about 10^6 one-byte digits each; widened to int64 arrays they peaked at
    # 30.5, 26.0 and 24.8 MiB under tracemalloc, kept compact at 3.0, 5.0, 2.0
    tracemalloc.start()
    try:
        assert all(c.passed for c in run_experiment(name).checks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, f"{name} peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "name, bound_mib",
    [
        # 10^4 orbit vectors of 4096 bits were kept: 11.7 MiB
        ("toral-discrepancy", 1),
        # (W, 2^18) index arrays and (2^18, 4) count tables a chunk: 18.8 MiB
        ("low-entropy-census", 8),
        # an int64 copy of the pairs for bincount and np.corrcoef's float64 copy: 21.0 MiB
        ("carry-monte-carlo", 8),
    ],
)
def test_largest_experiments_keep_their_working_sets_small(name, bound_mib):
    tracemalloc.start()
    try:
        assert all(c.passed for c in run_experiment(name).checks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib << 20, f"{name} peaked at {peak / 2**20:.1f} MiB"


def test_xy_switch_decay_matches_recorded_curve():
    recorded = load_manifest()["reference"]["xy-switch-decay"]["recorded_curve"]
    rep = run_experiment("xy-switch-decay")
    curve = next(c.measured for c in rep.checks if c.name == "curve-nonincreasing")
    assert [round(v, 6) for v in curve] == recorded
