from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.seqcore import (
    Alphabet,
    AlphabetError,
    Block,
    EmptyWindowError,
    HorizonError,
    IndexSet,
    LengthError,
    SymbolicSequence,
    base4_split,
    block_density,
    block_histogram,
    empirical_measure,
    index_density_profile,
    joint_frequency,
    mirror,
    prefix_frequency,
    read_nseq,
    restrict,
    write_nseq,
    zip_product,
)

B = Block.from_string


def test_alphabet_rejects_small():
    with pytest.raises(AlphabetError):
        Alphabet(1)


def test_block_validation():
    with pytest.raises(AlphabetError):
        Block((0, 2), Alphabet(2))
    with pytest.raises(LengthError):
        Block((), Alphabet(2))


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
    with pytest.raises(LengthError):
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
        assert block_density(b, c) == block_density(mirror(b), mirror(c))


# -- mirror ------------------------------------------------------------------


def test_mirror_examples():
    assert str(mirror(B("01"))) == "10"
    assert str(mirror(B("01111001"))) == "10000110"
    assert mirror(mirror(B("0110"))) == B("0110")


def test_mirror_needs_binary():
    with pytest.raises(AlphabetError):
        mirror(Block((0, 2), Alphabet(3)))


# -- prefix_frequency --------------------------------------------------------


def test_prefix_frequency_periodic():
    seq = SymbolicSequence.periodic([0, 1])
    assert prefix_frequency(seq, B("01"), 100) == Fraction(50, 99)


def test_prefix_frequency_zeros():
    assert prefix_frequency(SymbolicSequence.constant(0), B("1"), 10) == 0


def test_prefix_frequency_length_error():
    with pytest.raises(LengthError):
        prefix_frequency(SymbolicSequence.constant(0), B("11"), 1)


def test_prefix_frequency_horizon_error():
    seq = SymbolicSequence.from_array([0, 1, 0])
    with pytest.raises(HorizonError):
        prefix_frequency(seq, B("1"), 4)


# -- block_histogram ---------------------------------------------------------


@settings(max_examples=100)
@given(st.integers(1, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=40))
))
def test_block_histogram_matches_counter(case):
    # n_blocks up to 64 against at most 40 codes: both the dense and the
    # sorting path run
    n_blocks, codes = case
    observed, counts = block_histogram(np.asarray(codes, dtype=np.int64), n_blocks)
    assert list(zip(observed.tolist(), counts.tolist())) == sorted(Counter(codes).items())


# -- empirical_measure -------------------------------------------------------


def test_empirical_measure_periodic():
    em = empirical_measure(SymbolicSequence.periodic([0, 1]), 2, 1000)
    assert em.total == 999
    assert em.fraction(B("01")) == Fraction(500, 999)
    assert em.fraction(B("10")) == Fraction(499, 999)
    assert em.fraction(B("11")) == 0


def test_empirical_measure_constant():
    em = empirical_measure(SymbolicSequence.constant(0), 3, 50)
    assert em.fraction(B("000")) == 1


def test_empirical_measure_balanced_block():
    seq = SymbolicSequence.from_array([0, 1, 1, 1, 1, 0, 0, 0])
    em = empirical_measure(seq, 1, 8)
    assert em.fraction(B("0")) == Fraction(1, 2)
    assert em.fraction(B("1")) == Fraction(1, 2)


def test_empirical_measure_explicit_window():
    seq = SymbolicSequence.periodic([0, 1, 1])
    em = empirical_measure(seq, 1, IndexSet.from_elements([3, 6, 9]))
    assert em.fraction(B("1")) == 1


def test_empirical_measure_empty_window():
    with pytest.raises(EmptyWindowError):
        empirical_measure(SymbolicSequence.constant(0), 2, 1)


@settings(max_examples=60)
@given(st.integers(2, 3), st.lists(st.integers(0, 2), min_size=1, max_size=50), st.integers(1, 5))
def test_empirical_measure_counts_windows(r, digits, m):
    digits = [d % r for d in digits]
    m = min(m, len(digits))
    em = empirical_measure(SymbolicSequence.from_array(digits, r=r), m, len(digits))
    windows = Counter(tuple(digits[i : i + m]) for i in range(len(digits) - m + 1))
    assert em.counts == dict(windows)
    for key in em.counts:
        assert Block.from_code(Block(key, Alphabet(r)).encode(), m, r).digits == key


def test_empirical_measure_merge_over_subwindows():
    seq = SymbolicSequence.periodic([0, 1, 1, 0, 1])
    whole = empirical_measure(seq, 2, IndexSet.interval(1, 40))
    left = empirical_measure(seq, 2, IndexSet.interval(1, 17))
    right = empirical_measure(seq, 2, IndexSet.interval(18, 40))
    merged = left.merge(right)
    assert merged.counts == whole.counts and merged.total == whole.total


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


# -- joint_frequency ---------------------------------------------------------


def test_joint_frequency_diagonal():
    seq = SymbolicSequence.periodic([0, 1, 1])
    for blk in ("01", "11", "10"):
        assert joint_frequency(seq, seq, B(blk), B(blk), 50) == prefix_frequency(
            seq, B(blk), 50
        )


def test_joint_frequency_constant_left():
    zeros = SymbolicSequence.constant(0)
    seq = SymbolicSequence.periodic([0, 1, 1, 0])
    assert joint_frequency(zeros, seq, B("00"), B("11"), 60) == prefix_frequency(
        seq, B("11"), 60
    )


# -- zip / split -------------------------------------------------------------


def test_zip_product_codes():
    r1 = SymbolicSequence.from_array([0, 0, 1, 1])
    r2 = SymbolicSequence.from_array([0, 1, 0, 1])
    z = zip_product([r1, r2])
    assert z.alphabet.size == 4
    assert z.prefix(4).tolist() == [0, 1, 2, 3]


def test_zip_product_single_row_identity():
    r1 = SymbolicSequence.from_array([0, 1, 0])
    assert zip_product([r1]) is r1


def test_base4_split_formula():
    seq = SymbolicSequence.from_array([0, 1, 2, 3], r=4)
    hi, lo = base4_split(seq)
    assert hi.prefix(4).tolist() == [0, 0, 1, 1]
    assert lo.prefix(4).tolist() == [0, 1, 0, 1]


def test_base4_split_threes():
    seq = SymbolicSequence.from_array([3] * 8, r=4)
    hi, lo = base4_split(seq)
    assert hi.prefix(8).tolist() == [1] * 8
    assert lo.prefix(8).tolist() == [1] * 8


def test_base4_split_needs_base4():
    with pytest.raises(AlphabetError):
        base4_split(SymbolicSequence.constant(0))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
def test_zip_inverts_split(digits):
    seq = SymbolicSequence.from_array(digits, r=4)
    z = zip_product(list(base4_split(seq)))
    assert z.prefix(len(digits)).tolist() == digits


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
    codes = z.prefix(n)
    assert (codes // 3 == r1.prefix(n)).all()
    assert (codes % 3 == r2.prefix(n)).all()


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


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
    st.integers(1, 5),
    st.integers(1, 4),
)
def test_restrict_digit_is_digit_at_kth_element(pattern, first, step):
    S = IndexSet.arithmetic(first, step)
    sub = restrict(SymbolicSequence.periodic(pattern), S)
    got = sub.prefix(20).tolist()
    assert got == [sub.digit(k) for k in range(1, 21)]
    assert got == [pattern[(S.element(k) - 1) % len(pattern)] for k in range(1, 21)]


# -- restrict / index sets ---------------------------------------------------


def test_restrict_multiples_of_three():
    seq = SymbolicSequence.periodic([0, 1, 1])
    sub = restrict(seq, IndexSet.arithmetic(3, 3))
    assert sub.prefix(10).tolist() == [1] * 10


def test_restrict_naturals_is_identity():
    seq = SymbolicSequence.periodic([0, 1, 1, 0])
    sub = restrict(seq, IndexSet.naturals())
    assert sub.prefix(12).tolist() == seq.prefix(12).tolist()


def test_restrict_finite_view():
    seq = SymbolicSequence.from_array([0, 1, 1, 1, 1, 0, 0, 0, 1])
    sub = restrict(seq, IndexSet.interval(1, 8))
    assert sub.horizon == 8
    assert sub.prefix(8).tolist() == [0, 1, 1, 1, 1, 0, 0, 0]
    with pytest.raises(HorizonError):
        sub.digit(9)


def test_index_density_profile_evens():
    prof = index_density_profile(IndexSet.arithmetic(2, 2), 64)
    assert [d for _, d in prof][1:] == [Fraction(1, 2)] * 6


def test_index_density_profile_empty():
    prof = index_density_profile(IndexSet.empty(), 16)
    assert all(d == 0 for _, d in prof)


# -- nseq files --------------------------------------------------------------


def test_nseq_roundtrip_binary(tmp_path):
    path = tmp_path / "x.nseq"
    digits = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
    write_nseq(path, digits, r=2)
    back = read_nseq(path)
    assert back.alphabet.size == 2
    assert back.horizon == len(digits)
    assert back.prefix(len(digits)).tolist() == digits


def test_nseq_roundtrip_bytes(tmp_path):
    path = tmp_path / "x.nseq"
    digits = [5, 0, 9, 3, 7]
    write_nseq(path, digits, r=10)
    back = read_nseq(path)
    assert back.alphabet.size == 10
    assert back.prefix(5).tolist() == digits


def test_nseq_header_layout(tmp_path):
    path = tmp_path / "x.nseq"
    write_nseq(path, [1, 0, 1], r=2)
    blob = path.read_bytes()
    assert blob[:4] == b"NSEQ"
    assert blob[4] == 0x01
    assert int.from_bytes(blob[5:7], "little") == 2
    assert int.from_bytes(blob[7:15], "little") == 3
    assert blob[15] == 0b101  # LSB-first packing: digits 1,0,1 -> bits 0,1,2
