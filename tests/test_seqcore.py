import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab import seqcore
from normlab.errors import BUDGETS, BudgetError, DomainError
from normlab.generators import bernoulli_stream, kappa_digit, kappa_sequence, uniform_stream, v_sequence, y_sequence
from normlab.seqcore import (
    Block,
    SymbolicSequence,
    _anchor_codes,
    block_counts,
    block_histogram,
    empirical_measure,
    prefix_frequency,
    read_nseq,
    write_nseq,
    zip_product,
)

from helpers import base4_split, constant

B = Block.from_string


def block_density(b: Block, c: Block) -> Fraction:
    """Fraction of the anchored windows of b that spell c."""
    return prefix_frequency(SymbolicSequence.from_array(b.as_array()), c, len(b))


def complement(b: Block) -> Block:
    return Block(tuple(1 - d for d in b.digits))


def test_alphabet_rejects_small():
    for make in (lambda: Block((0,), 1), lambda: SymbolicSequence(lambda s, c: np.zeros(c), r=1)):
        with pytest.raises(DomainError, match="alphabet size must be >= 2, got 1"):
            make()


def test_block_validation():
    with pytest.raises(DomainError, match="digit 2 outside alphabet of size 2"):
        Block((0, 2), 2)
    with pytest.raises(DomainError, match="block must have length >= 1"):
        Block((), 2)


def test_digit_budget_is_checked_before_reading():
    seq = SymbolicSequence(lambda start, count: count)  # reports what it would read
    limit = BUDGETS["digit"].limit
    assert seq.digits(1, limit) == limit
    with pytest.raises(BudgetError, match=f"digit budget is digits read at once <= {limit}, got {limit + 1}$"):
        seq.digits(1, limit + 1)
    with pytest.raises(BudgetError, match="digit budget"):
        seq.digits(1, 1 << 40)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=12),
    st.integers(1, 50) | st.integers(1, 1 << 70),
    st.integers(0, 60),
)
@example([0, 1, 2], 1, 0)
@example([2], 1 << 64, 5)
def test_periodic_digits_match_the_pattern_index(pattern, start, count):
    # the rotated and tiled pattern against the index definition it replaces;
    # one digit is read through the same bulk read
    seq = SymbolicSequence.periodic(pattern, r=3)
    L = len(pattern)
    got = seq.digits(start, count)
    assert got.dtype == np.uint8
    assert got.tolist() == [pattern[(start - 1 + i) % L] for i in range(count)]
    assert seq.digit(start) == pattern[(start - 1) % L]


def test_digit_range_errors_match_digits():
    # digit(p) must accept and reject exactly the positions digits(p, 1)
    # does, with the same error, both where it tests the position inline
    # and where it is the generator's own rule (kappa, y, v)
    bounded = SymbolicSequence.from_array([0, 1, 1])
    unbounded = SymbolicSequence.periodic([0, 1])
    ruled = [(make(), (-1, 0, 1, 2)) for make in (kappa_sequence, y_sequence, v_sequence)]
    for seq, positions in ((bounded, range(-2, 6)), (unbounded, (-1, 0, 1, 2, 1 << 40)), *ruled):
        for p in positions:
            try:
                expected = int(seq.digits(p, 1)[0])
            except DomainError as e:
                with pytest.raises(DomainError, match=f"^{re.escape(str(e))}$"):
                    seq.digit(p)
            else:
                assert seq.digit(p) == expected
    assert [bounded.digit(p) for p in (1, 2, 3)] == [0, 1, 1]
    assert unbounded.digit(1 << 40) == 1


def test_an_unbounded_rule_is_digit_itself():
    # no frame between digit and the rule, and a tracer that replaces
    # _digit_fn sees every probe; a bounded rule keeps the horizon test
    seq = kappa_sequence()
    assert seq.digit is kappa_digit
    calls = []
    seq._digit_fn = lambda p: calls.append(p) or kappa_digit(p)
    assert [seq.digit(p) for p in (5, 1 << 3000)] == [kappa_digit(5), kappa_digit(1 << 3000)]
    assert calls == [5, 1 << 3000]
    bounded = SymbolicSequence(lambda s, c: np.ones(c, dtype=np.uint8), horizon=3, digit_fn=lambda p: 1)
    assert bounded.digit(3) == 1
    with pytest.raises(DomainError, match="^positions up to 4 exceed horizon 3$"):
        bounded.digit(4)


# -- block_density -----------------------------------------------------------


@pytest.mark.parametrize(
    "b, c, want",
    [
        ("0110", "1", Fraction(1, 2)),
        ("0110", "11", Fraction(1, 3)),
        ("01111000", "1", Fraction(1, 2)),
    ],
)
def test_block_density(b, c, want):
    assert block_density(B(b), B(c)) == want


def test_block_density_length_error():
    with pytest.raises(DomainError, match="block length m=3 exceeds the 2 digits"):
        block_density(B("01"), B("011"))


@given(
    st.lists(st.integers(0, 1), min_size=3, max_size=12),
    st.integers(1, 3),
)
def test_density_sums_to_one(digits, m):
    b = Block(tuple(digits))
    total = sum(
        block_density(b, Block.from_code(code, m, 2)) for code in range(2**m)
    )
    assert total == 1


@given(st.lists(st.integers(0, 1), min_size=2, max_size=12), st.integers(1, 2))
def test_density_mirror_invariant(digits, m):
    b = Block(tuple(digits))
    for code in range(2**m):
        c = Block.from_code(code, m, 2)
        assert block_density(b, c) == block_density(complement(b), complement(c))


# -- prefix_frequency --------------------------------------------------------


def test_prefix_frequency_periodic():
    seq = SymbolicSequence.periodic([0, 1])
    assert prefix_frequency(seq, B("01"), 100) == Fraction(50, 99)


def test_prefix_frequency_zeros():
    assert prefix_frequency(constant(0), B("1"), 10) == 0


def test_prefix_frequency_length_error():
    with pytest.raises(DomainError, match="block length m=2 exceeds the 1 digits"):
        prefix_frequency(constant(0), B("11"), 1)


def test_prefix_frequency_horizon_error():
    seq = SymbolicSequence.from_array([0, 1, 0])
    with pytest.raises(DomainError, match="positions up to 4 exceed horizon 3"):
        prefix_frequency(seq, B("1"), 4)


# -- block_histogram ---------------------------------------------------------


@settings(max_examples=100)
@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=40))
))
def test_block_histogram_matches_counter(case):
    # codes below n_blocks, up to 64, so that short and long runs occur
    n_blocks, codes = case
    observed, counts = block_histogram(np.asarray(codes, dtype=np.int64))
    assert list(zip(observed.tolist(), counts.tolist())) == sorted(Counter(codes).items())


@settings(max_examples=200)
@given(st.lists(st.integers(0, (1 << 62) - 1) | st.integers(0, 7), max_size=80))
@example([])
@example([12345])
@example([3, 3, 3])
def test_sorting_histogram_matches_unique(codes):
    # block_histogram sorts the codes in place and measures the runs
    arr = np.array(codes, dtype=np.int64)
    want_codes, want_counts = np.unique(arr, return_counts=True)
    got_codes, got_counts = block_histogram(arr.copy())
    assert got_codes.tolist() == want_codes.tolist() and got_counts.tolist() == want_counts.tolist()
    assert got_codes.dtype == want_codes.dtype == np.int64
    assert got_counts.dtype == want_counts.dtype == np.int64


# -- the chunked code table --------------------------------------------------


def table_by_definition(digits: np.ndarray, M: int, r: int, head: int) -> np.ndarray:
    """Counts of the first `head` M-block codes from one full-length anchor
    pass, the table block_counts built before it counted in chunks."""
    return np.bincount(_anchor_codes(digits[: head + M - 1], M, r), minlength=r**M)


C = seqcore._TABLE_CHUNK


@pytest.mark.parametrize("r, M", [(2, 16), (3, 9)])
@pytest.mark.parametrize("head", [C - 1, C, C + 1, "2C+M"])
def test_code_table_matches_bincount_of_the_anchor_codes(r, M, head):
    head = 2 * C + M if head == "2C+M" else head
    digits = np.random.default_rng(head + r).integers(0, r, 2 * C + 2 * M + 5, dtype=np.uint8)
    got = seqcore.code_table(digits, M, r, head)
    assert got.dtype == np.int64 and got.sum() == head
    assert got.tolist() == table_by_definition(digits, M, r, head).tolist()


@settings(max_examples=100)
@given(st.data())
def test_code_table_every_chunk_boundary(data):
    # chunks of 8 anchors, or of r^M / 8 when that is more, so heads and
    # lengths cross chunk boundaries at every table size drawn
    r = data.draw(st.integers(2, 4))
    M = data.draw(st.integers(1, 4))
    digits = np.array(data.draw(st.lists(st.integers(0, r - 1), min_size=M, max_size=3 * r**M + 70)), dtype=np.uint8)
    head = data.draw(st.integers(0, len(digits) - M + 1))
    with mock.patch.object(seqcore, "_TABLE_CHUNK", 8):
        got = seqcore.code_table(digits, M, r, head)
    assert got.tolist() == table_by_definition(digits, M, r, head).tolist()


# -- anchor codes ------------------------------------------------------------


def anchor_codes_by_passes(digits: np.ndarray, m: int, r: int) -> np.ndarray:
    """The m-pass definition of the anchor codes, the reference for the
    bit-packed binary path."""
    W = len(digits) - m + 1
    if W <= 0:
        return np.zeros(0, dtype=np.int64)
    codes = np.zeros(W, dtype=np.int64)
    for j in range(m):
        codes *= r
        codes += digits[j : j + W]
    return codes


@settings(max_examples=300)
@given(st.integers(1, 57), st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_packed_anchor_codes_match_the_passes(m, digits):
    arr = np.array(digits, dtype=np.uint8)
    got = _anchor_codes(arr, m, 2)
    # packed codes (3 <= m <= 57) are uint32 while they fit, the rest int64
    assert got.dtype == (np.uint32 if 3 <= m <= 32 and len(digits) >= m else np.int64)
    assert got.tolist() == anchor_codes_by_passes(arr, m, 2).tolist()


def test_packed_anchor_codes_every_length_and_phase():
    # every m through the packed range and every length from W <= 0 to W =
    # 20, so the last anchor falls on every bit of a packed byte
    rng = np.random.default_rng(5)
    for m in range(1, 58):
        for n in range(max(1, m - 2), m + 20):
            arr = rng.integers(0, 2, n, dtype=np.uint8)
            assert _anchor_codes(arr, m, 2).tolist() == anchor_codes_by_passes(arr, m, 2).tolist()
    ones = np.ones(300, dtype=np.uint8)
    assert _anchor_codes(ones, 57, 2).tolist() == [(1 << 57) - 1] * 244


@settings(max_examples=100)
@given(st.integers(1, 39), st.lists(st.integers(0, 2), min_size=1, max_size=300))
def test_ternary_anchor_codes_unchanged(m, digits):
    arr = np.array(digits, dtype=np.uint8)
    assert _anchor_codes(arr, m, 3).tolist() == anchor_codes_by_passes(arr, m, 3).tolist()



# -- empirical_measure -------------------------------------------------------


def test_empirical_measure_periodic():
    em = empirical_measure(SymbolicSequence.periodic([0, 1]), 2, 1000)
    assert em.total == 999
    assert em.fraction(B("01")) == Fraction(500, 999)
    assert em.fraction(B("10")) == Fraction(499, 999)
    assert em.fraction(B("11")) == 0


def test_empirical_measure_constant():
    em = empirical_measure(constant(0), 3, 50)
    assert em.fraction(B("000")) == 1


def test_empirical_measure_balanced_block():
    seq = SymbolicSequence.from_array([0, 1, 1, 1, 1, 0, 0, 0])
    em = empirical_measure(seq, 1, 8)
    assert em.fraction(B("0")) == Fraction(1, 2)
    assert em.fraction(B("1")) == Fraction(1, 2)


def test_empirical_measure_empty_window():
    with pytest.raises(DomainError, match="prefix 1 shorter than block length 2"):
        empirical_measure(constant(0), 2, 1)


@settings(max_examples=60)
@given(st.integers(2, 3), st.lists(st.integers(0, 2), min_size=1, max_size=50), st.integers(1, 5))
def test_empirical_measure_counts_windows(r, digits, m):
    digits = [d % r for d in digits]
    m = min(m, len(digits))
    em = empirical_measure(SymbolicSequence.from_array(digits, r=r), m, len(digits))
    windows = Counter(tuple(digits[i : i + m]) for i in range(len(digits) - m + 1))
    assert em.counts == dict(windows)
    for key in em.counts:
        assert Block.from_code(Block(key, r).encode(), m, r).digits == key


def measure_counts_by_block(seq: SymbolicSequence, m: int, N: int) -> dict:
    """The counts dict built key by key through Block.from_code, the
    reference for the one-pass decode of `empirical_measure`."""
    r = seq.r
    observed, cnt = block_histogram(_anchor_codes(seq.digits(1, N), m, r))
    return {tuple(Block.from_code(int(c), m, r).digits): int(n) for c, n in zip(observed, cnt)}


def measure_counts_by_rows(seq: SymbolicSequence, m: int, N: int) -> dict:
    """The counts dict decoded one row of m digits per code, as
    `(codes // powers) % r`, the decode empirical_measure had before it
    joined half-length tuples."""
    r = seq.r
    bc = block_counts(seq.digits(1, N), m, r)
    rows = (bc.codes[:, None] // r ** np.arange(m - 1, -1, -1, dtype=np.int64)) % r
    return dict(zip(map(tuple, rows.tolist()), bc.counts.tolist()))


@settings(max_examples=60)
@given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=1, max_size=200), st.integers(1, 12))
@example(2, [0, 1, 1, 0, 1], 1)
@example(3, [0, 1, 2, 2, 1, 0, 0, 2], 1)
@example(4, [3, 0, 1, 2, 2, 1, 3, 0, 0], 1)
@example(2, [0, 1, 1, 0, 1, 0, 0, 1, 1, 1], 5)
@example(3, [0, 1, 2, 2, 1, 0, 0, 2, 1, 1], 3)
@example(4, [3, 0, 1, 2, 2, 1, 3, 0, 0, 3, 2], 7)
def test_measure_decode_matches_block_from_code(r, digits, m):
    seq = SymbolicSequence.from_array([d % r for d in digits], r=r)
    m = min(m, len(digits))
    em = empirical_measure(seq, m, len(digits))
    assert list(em.counts.items()) == list(measure_counts_by_block(seq, m, len(digits)).items())
    assert list(em.counts.items()) == list(measure_counts_by_rows(seq, m, len(digits)).items())
    assert all(type(d) is int for key in em.counts for d in key)
    assert all(type(c) is int for c in em.counts.values())


def test_measure_decode_across_chunks():
    # about 11,000 distinct 14-blocks: three chunks of 4,096 decoded rows
    seq = bernoulli_stream(Fraction(1, 2), 7, 1 << 14)
    em = empirical_measure(seq, 14, 1 << 14)
    want = measure_counts_by_block(seq, 14, 1 << 14)
    assert len(want) > 2 * 4096
    assert list(em.counts.items()) == list(want.items()) == list(measure_counts_by_rows(seq, 14, 1 << 14).items())


@pytest.mark.parametrize("r, m", [(2, 15), (3, 9), (4, 7)])
def test_measure_decode_across_chunks_odd_m(r, m):
    # odd m: the high half is one digit longer than the low half
    seq = bernoulli_stream(Fraction(1, 2), 7, 1 << 14) if r == 2 else uniform_stream(r, 7, 1 << 14)
    em = empirical_measure(seq, m, 1 << 14)
    want = measure_counts_by_rows(seq, m, 1 << 14)
    assert len(want) > 2 * 4096
    assert list(em.counts.items()) == list(want.items())



@settings(max_examples=100)
@given(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=1, max_size=120), st.integers(1, 9))
@example(2, [0, 1, 1, 0, 1], 1)
@example(3, [2, 2, 2, 2], 2)
def test_measure_view_matches_the_dict(r, digits, m):
    seq = SymbolicSequence.from_array([d % r for d in digits], r=r)
    m = min(m, len(digits))
    view = empirical_measure(seq, m, len(digits)).counts
    want = measure_counts_by_rows(seq, m, len(digits))
    assert list(view.items()) == list(want.items())
    assert list(view) == list(want) and len(view) == len(want)
    assert view == want and want == view and view != {**want, (0,) * m: -1}
    for key, count in want.items():
        assert key in view and view[key] == view.get(key) == count and type(view[key]) is int
        assert view[tuple(np.array(key, dtype=np.uint8))] == count  # numpy digits, as seq.digits gives them
    absent = [key for key in map(tuple, np.ndindex(*(r,) * m)) if key not in want][:5]
    wrong_length = [(0,) * (m + 1), (0,) * (m - 1), ()]
    outside = [(r,) + (0,) * (m - 1), (0,) * (m - 1) + (-1,), (r**m,) * m]
    # out of the alphabet, but encoding to the code of a key that occurs
    outside += [k[:-2] + (k[-2] - 1, k[-1] + r) for k in want if m >= 2 and k[-2] >= 1][:5]
    # not integers: with r = 2, (0.5, 0) would encode to the code of (0, 1)
    outside += [(1 / r,) + k[1:] for k in want][:5] + [(np.float64(0.5),) * m, ("0",) * m]
    for key in absent + wrong_length + outside:
        assert key not in view and view.get(key) is None and view.get(key, 7) == 7
        with pytest.raises(KeyError):
            view[key]


def test_measure_lookup_by_numpy_digits_does_not_wrap():
    # nine uint8 digits 1 encode to 511; in uint8 arithmetic that wraps to
    # 255, the code of (0, 1, 1, 1, 1, 1, 1, 1, 1)
    seq = SymbolicSequence.from_array([0] + [1] * 10 + [0] * 5, r=2)
    em = empirical_measure(seq, 9, 16)
    ones, shifted = (1,) * 9, (0,) + (1,) * 8
    assert (em.counts[ones], em.counts[shifted]) == (2, 1)
    assert em.fraction(seq.digits(2, 9)) == em.fraction(ones) == Fraction(2, 8)
    assert em.fraction(np.zeros(9, dtype=np.uint8)) == em.fraction((0,) * 9) == 0
    assert em.counts.get(tuple(np.arange(9, dtype=np.int64) % 2)) == em.counts.get((0, 1) * 4 + (0,))


def test_prefix_frequency_matches_measure_refinement():
    # aligned windows: anchors [1, W] with W = N - m + 1 on both sides
    seq = SymbolicSequence.periodic([0, 1, 1, 0, 1])
    m, N = 3, 40
    W = N - m + 1
    em = empirical_measure(seq, m, N)
    for code in range(4):
        b = Block.from_code(code, 2, 2)
        extending = sum(
            frac
            for blk, frac in em.fractions().items()
            if blk[: len(b)] == tuple(b.digits)
        )
        assert prefix_frequency(seq, b, W + len(b) - 1) == extending


@st.composite
def prefix_and_block(draw):
    r = draw(st.sampled_from([2, 3]))
    digits = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=60))
    block = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=min(len(digits), 4)))
    return r, digits, block, draw(st.integers(len(block), len(digits)))


@settings(max_examples=200)
@given(prefix_and_block())
@example((2, [0, 0, 0], [1, 1], 3))  # absent, above every code that occurs
@example((2, [1, 1, 1], [0], 3))  # absent, below every code that occurs
@example((3, [0, 2, 0, 2], [1, 2], 4))  # absent, between two codes that occur
@example((3, [2, 1, 0, 2], [2, 1, 0, 2], 4))  # N = len(B)
def test_prefix_frequency_matches_an_occurrence_count(inputs):
    r, digits, block, N = inputs
    W = N - len(block) + 1
    hits = sum(digits[i : i + len(block)] == block for i in range(W))
    seq = SymbolicSequence.from_array(digits, r=r)
    assert prefix_frequency(seq, Block(tuple(block), r), N) == Fraction(hits, W)


# -- shared block counts -----------------------------------------------------


def frozen(digits) -> np.ndarray:
    arr = np.array(digits, dtype=np.uint8)
    arr.setflags(write=False)
    return arr


def assert_counts(bc, digits, m, r):
    """`bc` equals a fresh count of `digits`."""
    codes, counts = block_histogram(_anchor_codes(digits, m, r))
    assert bc.total == len(digits) - m + 1
    assert bc.codes.tolist() == codes.tolist() and bc.counts.tolist() == counts.tolist()


@st.composite
def digits_and_block_length(draw):
    r = draw(st.sampled_from([2, 3, 4]))
    digits = draw(st.lists(st.integers(0, r - 1), min_size=1, max_size=300))
    return r, digits, draw(st.integers(1, min(len(digits), 20)))


@settings(max_examples=100)
@given(digits_and_block_length())
def test_memoised_block_counts_equal_a_fresh_count(inputs):
    r, digits, m = inputs
    arr = frozen(digits)
    for _ in range(2):  # binary at m <= M, the second count reads the memoised table
        bc = block_counts(arr, m, r)
        assert_counts(bc, arr, m, r)
        assert not (bc.codes.flags.writeable or bc.counts.flags.writeable)


@settings(max_examples=50)
@given(digits_and_block_length(), st.randoms(use_true_random=False))
def test_writeable_array_is_counted_every_time(inputs, rnd):
    r, digits, m = inputs
    arr = np.array(digits, dtype=np.uint8)
    assert_counts(block_counts(arr, m, r), arr, m, r)
    arr[:] = [rnd.randrange(r) for _ in digits]
    assert_counts(block_counts(arr, m, r), arr, m, r)


@settings(max_examples=50)
@given(digits_and_block_length(), st.randoms(use_true_random=False))
def test_read_only_view_of_writeable_base_is_never_memoised(inputs, rnd):
    r, digits, m = inputs
    base = np.array(digits, dtype=np.uint8)
    view = base[:]
    view.setflags(write=False)
    block_counts(view, m, r)
    base[:] = [rnd.randrange(r) for _ in digits]
    second = block_counts(view, m, r)
    assert seqcore._table_last[0] != id(view)  # an entry dies with its array: a live id is that array
    assert_counts(second, view, m, r)


@settings(max_examples=100)
@given(st.data())
def test_dense_block_counts_match_the_sorted_anchor_codes(data):
    # the branch that counts at m with code_table: r > 2 (frozen or not) and
    # writeable binary arrays, r^m <= the anchors, in chunks of max(8, r^m)
    # anchors
    r = data.draw(st.sampled_from([2, 3, 4, 5]))
    m = data.draw(st.integers(1, 4))
    digits = data.draw(st.lists(st.integers(0, r - 1), min_size=r**m + m - 1, max_size=r**m + m + 100))
    arr = frozen(digits) if r > 2 and data.draw(st.booleans()) else np.array(digits, dtype=np.uint8)
    with mock.patch.object(seqcore, "_TABLE_CHUNK", 8), \
            mock.patch.object(seqcore, "code_table", wraps=seqcore.code_table) as table:
        bc = block_counts(arr, m, r)
    table.assert_called_once_with(arr, m, r, len(digits) - m + 1)
    assert_counts(bc, arr, m, r)
    assert bc.codes.dtype == bc.counts.dtype == np.int64


def test_reused_id_never_hits_the_memo(monkeypatch):
    # an entry left by an array that died, under the id a new array now has
    arr, dead = frozen([0, 1] * 50), frozen([1] * 100)
    monkeypatch.setattr(seqcore, "_table_last", (id(arr), weakref.ref(dead), np.arange(1 << 6)))
    assert_counts(block_counts(arr, 3, 2), arr, 3, 2)
    assert seqcore._table_last[1]() is arr


@pytest.mark.parametrize("read_only", [False, True])
def test_block_counts_rejects_a_block_longer_than_the_digits(read_only):
    arr = frozen([0, 1, 1]) if read_only else np.array([0, 1, 1], dtype=np.uint8)
    assert block_counts(arr, 3, 2).total == 1
    with pytest.raises(DomainError, match="block length m=4 exceeds the 3 digits"):
        block_counts(arr, 4, 2)
    with pytest.raises(DomainError, match="block length m=1 exceeds the 0 digits"):
        block_counts(arr[:0], 1, 2)


def top_length_by_definition(n: int) -> int:
    return max(M for M in range(17) if 2**M <= min(2**16, n - M + 1))


# every length where the top length M steps up, one below it, and past the 2^16 cap
STEP_LENGTHS = sorted({2**M + M - 1 + d for M in range(1, 17) for d in (-1, 0)} - {0} | {2**17 + 7})


def test_ladder_derived_from_the_top_length_table():
    rng = np.random.default_rng(11)
    for n in STEP_LENGTHS:
        M = seqcore._top_length(n)
        assert M == top_length_by_definition(n)
        arr = rng.integers(0, 2, n, dtype=np.uint8)
        arr.setflags(write=False)
        for m in range(1, min(M + 1, n) + 1):  # m = M + 1 is counted at m
            bc = block_counts(arr, m, 2)
            assert (seqcore._table_last[1] is not None and seqcore._table_last[1]() is arr) == (M > 0)
            assert_counts(bc, arr, m, 2)
            assert bc.codes.dtype == bc.counts.dtype == np.int64


def test_digits_copy_a_view_of_a_writeable_buffer():
    buf = np.array([0, 1, 1, 0, 1] * 800, dtype=np.uint8)
    seq = SymbolicSequence(lambda s, c: buf[s - 1 : s - 1 + c], horizon=len(buf))
    d = seq.digits(1, 4000)
    assert seqcore._frozen(d)
    block_counts(d, 3, 2)
    assert seqcore._table_last[1]() is d  # memoised: d is read-only up to its owner
    buf[:] = 0
    assert d.tolist() == [0, 1, 1, 0, 1] * 800
    assert_counts(block_counts(d, 3, 2), d, 3, 2)


def test_memo_entries_die_with_their_array():
    arr = frozen([0, 1, 1, 0] * 100)
    block_counts(arr, 2, 2)
    assert seqcore._table_last[1]() is arr
    del arr
    assert seqcore._table_last == (None, None, None)


@settings(max_examples=50)
@given(st.integers(1, 500), st.integers(0, 200), st.integers(1, 500), st.integers(0, 200))
def test_digits_repeat_returns_the_same_read_only_array(s1, c1, s2, c2):
    seq = bernoulli_stream(Fraction(1, 3), 5, 1000)
    bulk = seq._bulk_fn
    first = seq.digits(s1, c1)
    assert seq.digits(s1, c1) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[:1] = 1
    other = seq.digits(s2, c2)
    assert other.tolist() == bulk(s2, c2).tolist()
    assert (other is first) == ((s1, c1) == (s2, c2))
    gone = weakref.ref(first)
    del first, other
    assert gone() is None  # the sequence keeps no array alive


# -- zip / split -------------------------------------------------------------


def test_zip_product_codes():
    r1 = SymbolicSequence.from_array([0, 0, 1, 1])
    r2 = SymbolicSequence.from_array([0, 1, 0, 1])
    z = zip_product([r1, r2])
    assert z.r == 4
    assert z.digits(1, 4).tolist() == [0, 1, 2, 3]


def test_zip_product_single_row_identity():
    r1 = SymbolicSequence.from_array([0, 1, 0])
    assert zip_product([r1]) is r1


def test_base4_split_formula():
    seq = SymbolicSequence.from_array([0, 1, 2, 3], r=4)
    hi, lo = base4_split(seq)
    assert hi.digits(1, 4).tolist() == [0, 0, 1, 1]
    assert lo.digits(1, 4).tolist() == [0, 1, 0, 1]


def test_base4_split_threes():
    seq = SymbolicSequence.from_array([3] * 8, r=4)
    hi, lo = base4_split(seq)
    assert hi.digits(1, 8).tolist() == [1] * 8
    assert lo.digits(1, 8).tolist() == [1] * 8


def test_base4_split_needs_base4():
    with pytest.raises(DomainError, match="base4_split needs an alphabet of size 4"):
        base4_split(constant(0))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
def test_zip_inverts_split(digits):
    seq = SymbolicSequence.from_array(digits, r=4)
    z = zip_product(list(base4_split(seq)))
    assert z.digits(1, len(digits)).tolist() == digits


@settings(max_examples=25)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=30),
    st.lists(st.integers(0, 2), min_size=1, max_size=30),
)
def test_zip_projection_recovers_rows(bits, trits):
    n = min(len(bits), len(trits))
    r1 = SymbolicSequence.from_array(bits[:n], r=2)
    r2 = SymbolicSequence.from_array(trits[:n], r=3)
    z = zip_product([r1, r2])
    codes = z.digits(1, n)
    assert (codes // 3 == r1.digits(1, n)).all()
    assert (codes % 3 == r2.digits(1, n)).all()


@settings(max_examples=30)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=20), st.lists(st.integers(0, 2), min_size=1, max_size=20))
def test_zip_digit_is_row_major_code(bits, trits):
    n = min(len(bits), len(trits))
    z = zip_product([SymbolicSequence.from_array(bits[:n]), SymbolicSequence.from_array(trits[:n], r=3)])
    for p in range(1, n + 1):
        code = 0
        for r, row in ((2, bits), (3, trits)):
            code = code * r + row[p - 1]
        assert z.digit(p) == code == int(z.digits(p, 1)[0])


@settings(max_examples=30)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_base4_split_digit_rule(digits):
    hi, lo = base4_split(SymbolicSequence.from_array(digits, r=4))
    for p, d in enumerate(digits, start=1):
        assert (hi.digit(p), lo.digit(p)) == (d // 2, d % 2)


# -- nseq files --------------------------------------------------------------


def test_nseq_roundtrip_binary(tmp_path):
    path = tmp_path / "x.nseq"
    digits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
    write_nseq(path, SymbolicSequence.from_array(digits))
    back = read_nseq(path)
    assert back.r == 2
    assert back.horizon == len(digits)
    assert back.digits(1, len(digits)).tolist() == digits


def test_nseq_roundtrip_bytes(tmp_path):
    path = tmp_path / "x.nseq"
    digits = [5, 0, 9, 3, 7]
    write_nseq(path, SymbolicSequence.from_array(digits, r=10))
    back = read_nseq(path)
    assert back.r == 10
    assert back.digits(1, 5).tolist() == digits


def test_nseq_header_layout(tmp_path):
    path = tmp_path / "x.nseq"
    write_nseq(path, SymbolicSequence.from_array([1, 0, 1]))
    blob = path.read_bytes()
    assert blob[:4] == b"NSEQ"
    assert blob[4] == 0x01
    assert int.from_bytes(blob[5:7], "little") == 2
    assert int.from_bytes(blob[7:15], "little") == 3
    assert blob[15] == 0b101  # LSB-first packing: digits 1,0,1 -> bits 0,1,2


# -- memory of the counts ----------------------------------------------------


def traced(fn, *args):
    """(result, bytes still held, peak bytes) of one call under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


MiB = 1 << 20


def test_block_counts_memory_on_2_20_digits():
    kappa = kappa_sequence().digits(1, 1 << 20)
    fresh = lambda: frozen(kappa)  # a new array: no memo entry holds its counts
    # the dense M = 16 table: one chunk of codes at a time (9.4 MiB when all
    # 2^20 codes were built at once)
    _, _, peak = traced(block_counts, fresh(), 10, 2)
    assert peak <= 3 * MiB
    # the sparse m = 28 path: the 8 MiB of codes sorted in place (18.0 MiB
    # when np.unique sorted a copy)
    _, _, peak = traced(block_counts, fresh(), 28, 2)
    assert peak <= 10 * MiB


def test_sparse_counts_of_distinct_blocks_stay_small():
    # 2^20 random digits hold about 2^20 distinct 28-blocks: the int64 codes
    # and counts returned take 16 MiB, the uint32 codes, their gather before
    # the int64 cast and the run-start mask 9 more (43.9 MiB when the run
    # starts were concatenated to a 0 and their lengths taken by np.diff)
    digits = frozen(np.random.default_rng(5).integers(0, 2, 1 << 20))
    bc, _, peak = traced(block_counts, digits, 28, 2)
    assert len(bc.codes) > 1_000_000 and bc.counts.sum() == (1 << 20) - 27
    assert peak <= 28 * MiB


@pytest.mark.parametrize("make", [v_sequence, lambda: SymbolicSequence.periodic([0, 1, 1])])
def test_tiled_reads_are_not_copied(make):
    # the tile is built in the array it returns, read-only, so `digits` keeps
    # it as it is; a view of a writeable np.tile result was copied: 2.0 B a digit
    seq = make()
    digits, _, peak = traced(seq.digits, 5, 1 << 20)
    assert digits.base is None and not digits.flags.writeable
    assert peak <= 1.25 * (1 << 20)


def test_measure_retains_arrays_not_tuples():
    # 65,536 distinct 16-blocks: 1 MiB of codes and counts, where a dict of
    # digit tuples held 14.6 MiB
    seq = bernoulli_stream(Fraction(1, 2), 3, 1 << 20)
    digits = seq.digits(1, 1 << 20)  # generated outside the trace, and kept for the measure
    em, held, _ = traced(empirical_measure, seq, 16, 1 << 20)
    assert len(em.counts) == 1 << 16 and seq.digits(1, 1 << 20) is digits
    assert held <= 2 * MiB
