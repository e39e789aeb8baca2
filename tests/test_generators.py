from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.generators import (
    SCHEDULE,
    DomainError,
    GeneratorInstance,
    LevelSchedule,
    bernoulli_stream,
    champernowne_digits,
    derive_seed,
    kappa_digit,
    kappa_sequence,
    splitmix64,
    uniform_stream,
    v_digit,
    v_sequence,
    y_digit,
    y_sequence,
)
from normlab.grayorder import GrayOrdering
from normlab.seqcore import Block

KAPPA_PREFIX_56 = (
    "01111000" "10000110" "01111011" "10000101" "01111110" "10000000" "01111101"
)


# -- level schedule ----------------------------------------------------------


def test_schedule_exponents():
    assert [SCHEDULE.exponent(k) for k in (1, 2, 3, 4)] == [1, 3, 11, 2059]
    assert SCHEDULE.exponent(5) == 2059 + (1 << 2059)
    assert [SCHEDULE.value(k) for k in (1, 2, 3)] == [2, 8, 2048]


def test_schedule_superincreasing():
    for k in range(1, 4):
        assert SCHEDULE.value(k + 1) > sum(SCHEDULE.value(i) for i in range(1, k + 1))


def test_schedule_value_refuses_monsters():
    with pytest.raises(DomainError):
        SCHEDULE.value(5)


def test_finite_sums_membership():
    members = {2, 8, 10, 2048, 2050, 2056, 2058}
    assert {p for p in range(1, 2060) if SCHEDULE.finite_sum_contains(p)} == members
    assert set(SCHEDULE.finite_sums(2059)) == members
    assert SCHEDULE.finite_sum_contains(0)
    n4 = 1 << 2059
    assert SCHEDULE.finite_sum_contains(n4)
    assert SCHEDULE.finite_sum_contains(n4 + 2058)
    assert not SCHEDULE.finite_sum_contains(n4 + 1)


def test_finite_sums_enumeration_sorted():
    assert SCHEDULE.finite_sums(3000) == [2, 8, 10, 2048, 2050, 2056, 2058]
    assert SCHEDULE.finite_sums(2057) == [2, 8, 10, 2048, 2050, 2056]
    assert SCHEDULE.finite_sums(1) == []
    assert SCHEDULE.finite_sums(1 << 2059)[-2:] == [2058, 1 << 2059]


def test_index_density_profile_of_sum_set():
    assert Fraction(len(SCHEDULE.finite_sums(2048)), 2048) == Fraction(4, 2048)


def test_schedule_rebuild_is_identical():
    assert LevelSchedule().exponent(5) == SCHEDULE.exponent(5)


# -- kappa -------------------------------------------------------------------


def test_kappa_opening_digits():
    seq = kappa_sequence()
    assert "".join(map(str, seq.prefix(56))) == KAPPA_PREFIX_56
    assert [kappa_digit(p) for p in range(9, 17)] == [1, 0, 0, 0, 0, 1, 1, 0]
    assert [kappa_digit(p) for p in range(49, 57)] == [0, 1, 1, 1, 1, 1, 0, 1]


def test_kappa_prefix_is_alternated_concatenation():
    # level-2 block: chunks l = 1..2^{n_1} of length n_1 over the level-1 seed
    got = kappa_sequence().prefix(8).tolist()
    level2 = GrayOrdering(2, Block.from_string("01"), "alternated")
    chunks = [level2.block(l).digits for l in range(1, 5)]
    assert got == [d for ch in chunks for d in ch]
    # level-3 block: chunks l = 1..2^{n_2} of length n_2 over the level-2 prefix
    got = kappa_sequence().prefix(2048).tolist()
    start = Block(tuple(got[:8]))
    chunks = [GrayOrdering(8, start, "alternated").block(l).digits for l in range(1, 257)]
    assert got == [d for ch in chunks for d in ch]


def test_kappa_level3_chunks_match_recursion():
    # spot-check random chunks of the level-4 block against the ordering rule
    seq = kappa_sequence()
    start = Block(tuple(seq.prefix(2048).tolist()))
    for l in (2, 3, 117, 256, 54321):
        lo = (l - 1) * 2048 + 1
        got = seq.digits(lo, 2048).tolist()
        assert got == list(GrayOrdering(2048, start, "alternated").block(l).digits)


def test_kappa_digit_matches_bulk():
    seq = kappa_sequence()
    for p in (1, 2048, 2049, 10**6, 2**40 + 7, 2**63 + 11):
        assert seq.digit(p) == int(seq.digits(p, 1)[0])


def test_kappa_digit_beyond_level_four():
    p = (1 << 2059) + 12345  # inside the level-5 block
    assert kappa_digit(p) in (0, 1)


def test_kappa_rejects_nonpositive():
    with pytest.raises(DomainError):
        kappa_digit(0)


# -- y and v -----------------------------------------------------------------


def test_y_digit_examples():
    assert y_digit(0) == 1
    assert y_digit(1) == 0
    assert y_digit(2) == 1
    assert y_digit(4) == 0
    assert y_digit(10) == 1


def test_y_ones_positions():
    ones = [p for p in range(1, 2060) if y_digit(p)]
    assert ones == [2, 8, 10, 2048, 2050, 2056, 2058]
    bulk = y_sequence().prefix(2059)
    assert np.flatnonzero(bulk).tolist() == [p - 1 for p in ones]


def test_v_prefix_blocks():
    assert [v_digit(p) for p in (1, 2)] == [1, 1]
    assert [v_digit(p) for p in range(3, 9)] == [0, 0, 1, 1, 0, 0]
    assert all(v_digit(p) == 0 for p in range(9, 17))
    assert "".join(map(str, v_sequence().prefix(8))) == "11001100"


def test_v_prefix_2048_is_tiled():
    tile = np.concatenate([v_sequence().prefix(8), np.zeros(8, dtype=np.uint8)])
    want = np.tile(tile, 128)
    got = v_sequence().prefix(2048)
    assert (got == want).all()


def test_v_digit_matches_bulk():
    seq = v_sequence()
    for p in (1, 7, 4096, 4097, 2**30 + 5):
        assert seq.digit(p) == int(seq.digits(p, 1)[0])


# -- pseudorandom streams ----------------------------------------------------


def test_splitmix_reference_stability():
    # frozen against the textbook sequential generator started at state 0
    assert splitmix64(0, 0) == 16294208416658607535
    assert splitmix64(0, 1) == 7960286522194355700
    assert splitmix64(12345, 0) == 2454886589211414944


def test_bernoulli_deterministic_and_calibrated():
    a = bernoulli_stream(Fraction(1, 2), 42, 10**6)
    b = bernoulli_stream(Fraction(1, 2), 42, 10**6)
    da, db = a.prefix(10**6), b.prefix(10**6)
    assert (da == db).all()
    assert abs(da.mean() - 0.5) <= 0.002
    c = bernoulli_stream(Fraction(1, 5), 42, 10**6)
    assert abs(c.prefix(10**6).mean() - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / 10**6)


def test_bernoulli_bulk_matches_digit():
    seq = bernoulli_stream(Fraction(3, 7), 99, 1000)
    assert seq.prefix(50).tolist() == [seq.digit(p) for p in range(1, 51)]


def test_bernoulli_domain_errors():
    with pytest.raises(DomainError):
        bernoulli_stream(1.0, 1, 100)
    with pytest.raises(DomainError):
        bernoulli_stream(0, 1, 100)


def test_uniform_stream_matches_digit():
    seq = uniform_stream(3, 7, 500)
    assert seq.prefix(60).tolist() == [seq.digit(p) for p in range(1, 61)]


# The scalar rules below are the per-digit functions these generators had
# next to their bulk paths; digit(p) must still follow them.


@settings(max_examples=40)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda f: 0 < f < 1),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=10),
)
def test_bernoulli_digit_rule(p, seed, positions):
    seq = bernoulli_stream(p, seed, 10**6)
    threshold = (p.numerator << 64) // p.denominator
    for pos in positions:
        want = 1 if splitmix64(seed, pos - 1) < threshold else 0
        assert seq.digit(pos) == want == int(seq.digits(pos, 1)[0])


@settings(max_examples=40)
@given(st.integers(2, 256), st.integers(0, 2**64 - 1), st.lists(st.integers(1, 10**6), min_size=1, max_size=10))
def test_uniform_digit_rule(r, seed, positions):
    seq = uniform_stream(r, seed, 10**6)
    for pos in positions:
        assert seq.digit(pos) == splitmix64(seed, pos - 1) % r == int(seq.digits(pos, 1)[0])


def test_derive_seed_changes_stream():
    assert derive_seed(1, "a") != derive_seed(1, "b")


# -- champernowne ------------------------------------------------------------


def test_champernowne_base2_prefix():
    seq = champernowne_digits(2, 64)
    assert seq.prefix(11).tolist() == [1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]


def test_champernowne_base10_prefix():
    seq = champernowne_digits(10, 32)
    assert seq.prefix(12).tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 1]


def test_champernowne_base2_balance():
    # leading-digit bias decays slowly: the direct count at 10^6 digits
    # still shows a ~3% excess of ones, shrinking with the window
    seq = champernowne_digits(2, 10**6)
    digits = seq.prefix(10**6)
    dev_small = abs(digits[: 10**4].mean() - 0.5)
    dev_large = abs(digits.mean() - 0.5)
    assert dev_large <= 0.04
    assert dev_large < dev_small


# -- generator instances -----------------------------------------------------


def test_generator_instance_dispatch():
    inst = GeneratorInstance(kind="bernoulli", p="1/2", seed=5, n=100)
    assert inst.build().prefix(100).shape == (100,)
    with pytest.raises(DomainError):
        GeneratorInstance(kind="nope").build()
