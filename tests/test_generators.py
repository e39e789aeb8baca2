from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.generators import (
    LEVELS,
    DomainError,
    _WORD_CHUNK,
    _kappa_prefix_2048,
    _vec_words,
    bernoulli_stream,
    champernowne_digits,
    derive_seed,
    finite_sums,
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
from normlab.seqcore import Block, _frozen
from test_grayorder import offset_digit  # the one reference for Gray offset digits

KAPPA_PREFIX_56 = (
    "01111000" "10000110" "01111011" "10000101" "01111110" "10000000" "01111101"
)


# -- level schedule ----------------------------------------------------------


# log2(n_1) .. log2(n_5): e_{k+1} = e_k + n_k from e_1 = 1, the references'
# view of the schedule; no Python int has the bits of a position past n_5
EXPONENTS = (1, 3, 11, 2059, 2059 + (1 << 2059))


def test_schedule_exponents():
    assert LEVELS == tuple(1 << e for e in EXPONENTS[:4])
    assert LEVELS[:3] == (2, 8, 2048)


def test_schedule_rebuild_is_identical():
    # n_{k+1} = n_k * 2^{n_k} from n_1 = 2, so e_{k+1} = e_k + 2^{e_k}
    levels = [2]
    while len(levels) < 4:
        levels.append(levels[-1] << levels[-1])
    assert tuple(levels) == LEVELS
    assert [e + (1 << e) for e in EXPONENTS[:4]] == list(EXPONENTS[1:])


def test_schedule_superincreasing():
    for k in range(1, 4):
        assert LEVELS[k] > sum(LEVELS[:k])


def test_finite_sums_membership():
    members = {2, 8, 10, 2048, 2050, 2056, 2058}
    assert {p for p in range(1, 2060) if y_digit(p)} == members
    assert set(finite_sums(2059)) == members
    assert y_digit(0) == 1
    n4 = 1 << 2059
    assert y_digit(n4) == 1
    assert y_digit(n4 + 2058) == 1
    assert y_digit(n4 + 1) == 0


def test_finite_sums_enumeration_sorted():
    assert finite_sums(3000) == [2, 8, 10, 2048, 2050, 2056, 2058]
    assert finite_sums(2057) == [2, 8, 10, 2048, 2050, 2056]
    assert finite_sums(1) == []
    assert finite_sums(1 << 2059)[-2:] == [2058, 1 << 2059]
    assert len(finite_sums(1 << 2061)) == 15  # every nonempty sum of n_1 .. n_4


def test_index_density_profile_of_sum_set():
    assert Fraction(len(finite_sums(2048)), 2048) == Fraction(4, 2048)


# -- kappa -------------------------------------------------------------------


def test_kappa_opening_digits():
    seq = kappa_sequence()
    assert "".join(map(str, seq.digits(1, 56))) == KAPPA_PREFIX_56
    assert [kappa_digit(p) for p in range(9, 17)] == [1, 0, 0, 0, 0, 1, 1, 0]
    assert [kappa_digit(p) for p in range(49, 57)] == [0, 1, 1, 1, 1, 1, 0, 1]


def test_kappa_prefix_is_alternated_concatenation():
    # level-2 block: chunks l = 1..2^{n_1} of length n_1 over the level-1 seed
    got = kappa_sequence().digits(1, 8).tolist()
    level2 = GrayOrdering(2, Block.from_string("01"), "alternated")
    chunks = [level2.block(l).digits for l in range(1, 5)]
    assert got == [d for ch in chunks for d in ch]
    # level-3 block: chunks l = 1..2^{n_2} of length n_2 over the level-2 prefix
    got = kappa_sequence().digits(1, 2048).tolist()
    start = Block(tuple(got[:8]))
    chunks = [GrayOrdering(8, start, "alternated").block(l).digits for l in range(1, 257)]
    assert got == [d for ch in chunks for d in ch]


def test_kappa_level3_chunks_match_recursion():
    # spot-check random chunks of the level-4 block against the ordering rule
    seq = kappa_sequence()
    start = Block(tuple(seq.digits(1, 2048).tolist()))
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
    bulk = y_sequence().digits(1, 2059)
    assert np.flatnonzero(bulk).tolist() == [p - 1 for p in ones]


def test_v_prefix_blocks():
    assert [v_digit(p) for p in (1, 2)] == [1, 1]
    assert [v_digit(p) for p in range(3, 9)] == [0, 0, 1, 1, 0, 0]
    assert all(v_digit(p) == 0 for p in range(9, 17))
    assert "".join(map(str, v_sequence().digits(1, 8))) == "11001100"


def test_v_prefix_2048_is_tiled():
    tile = np.concatenate([v_sequence().digits(1, 8), np.zeros(8, dtype=np.uint8)])
    want = np.tile(tile, 128)
    got = v_sequence().digits(1, 2048)
    assert (got == want).all()


def test_v_digit_matches_bulk():
    seq = v_sequence()
    for p in (1, 7, 4096, 4097, 2**30 + 5):
        assert seq.digit(p) == int(seq.digits(p, 1)[0])
    # ranges across 2^62, past int64, inside the level-4 tile, and across
    # n_4 and 2 n_4, where v ends a block
    for start in (2**62 - 5000, 2**2058 + 3, N4 - 5000, 2 * N4 - 5000):
        got = seq.digits(start, 10007).tolist()
        assert got == [v_digit(p) for p in range(start, start + 10007)]


# -- per-digit probes against their recursive definitions --------------------


def fits_level(p: int, k: int) -> bool:
    """p <= n_k = 2^e: p has at most e bits, or is 2^e (never built for
    n_5, which every p has fewer bits than)."""
    e = EXPONENTS[k - 1]
    return p.bit_length() <= e or p == 1 << e


def level_of_by_levels(p: int) -> int:
    """The k with n_k < p <= n_{k+1}, tried level by level."""
    if p <= 2:
        raise DomainError("levels are defined for positions beyond n_1 = 2")
    for k in range(1, len(EXPONENTS)):
        if fits_level(p, k + 1):
            return k
    raise DomainError("position beyond n_5")


def kappa_digit_by_recursion(p: int) -> int:
    """Digit p of kappa: the prefix digit of the chunk position XOR the
    Gray offset digit, recursing once per level."""
    if p < 1:
        raise DomainError("positions are 1-indexed")
    if p <= 2048:
        return int(_kappa_prefix_2048()[p - 1])
    e = EXPONENTS[level_of_by_levels(p) - 1]
    l = ((p - 1) >> e) + 1
    r = ((p - 1) & ((1 << e) - 1)) + 1
    return kappa_digit_by_recursion(r) ^ offset_digit(1 << e, l, r, alternated=True)


def kappa_digit_by_offsets(p: int) -> int:
    """The loop kappa_digit used before its one-shift closed form: one
    Gray offset digit per level, from reflected-gray of the chunk index."""
    if p < 1:
        raise DomainError("positions are 1-indexed")
    bit = 0
    while p > 2048:
        e = EXPONENTS[level_of_by_levels(p) - 1]
        l = ((p - 1) >> e) + 1
        p = ((p - 1) & ((1 << e) - 1)) + 1
        bit ^= offset_digit(1 << e, l, p, alternated=True)
    return bit ^ int(_kappa_prefix_2048()[p - 1])


def kappa_digit_by_shift(p: int) -> int:
    """The rule kappa_digit had before it read bit e as q & 2^e: the same
    closed form with q >> e & 1, and the prefix list fetched per digit."""
    if p < 1:
        raise DomainError("positions are 1-indexed")
    q, bit = p - 1, 0
    for e in (2059, 11):
        mask = (1 << e) - 1
        if q > mask:
            i = q & mask
            t = q >> (e + mask - i) & 3
            bit ^= t ^ (t >> 1) ^ (q >> e & 1)
            q = i
    return (bit & 1) ^ _kappa_prefix_2048().tolist()[q]


def finite_sum_contains(p: int) -> bool:
    """Membership of p in {0} union FS((n_k)): greedy subtraction of the
    largest level value, valid because the schedule is superincreasing (the
    loop y_digit used before its bit mask)."""
    if p < 0:
        return False
    v = p
    for e in reversed(EXPONENTS):
        if e < v.bit_length():  # then n_k = 2^e <= v
            v -= 1 << e
    return v == 0


def y_digit_by_levels(p: int) -> int:
    """Finite-sums indicator by greedy subtraction of the level values
    n_4 .. n_1 (every p is below n_5)."""
    if p < 0:
        raise DomainError("coordinates start at 0")
    v = p
    for n in reversed(LEVELS):
        if n <= v:
            v -= n
    return 1 if v == 0 else 0


def v_digit_by_levels(p: int) -> int:
    """Digit p of v, reduced along p -> ((p-1) mod 2 n_k) + 1 down to
    p <= 2 (the loop v_digit used before it read the level-4 tile)."""
    if p < 1:
        raise DomainError("positions are 1-indexed")
    while p > 2:
        e = EXPONENTS[level_of_by_levels(p) - 1]
        r = (p - 1) % (2 << e) + 1
        if r > (1 << e):
            return 0
        p = r
    return 1


def assert_probes_match(p: int) -> None:
    # the rules, and the sequences' digit(p) that call them directly
    assert kappa_digit(p) == kappa_digit_by_recursion(p) == kappa_digit_by_offsets(p) == kappa_digit_by_shift(p)
    assert kappa_sequence().digit(p) == kappa_digit(p)
    assert y_sequence().digit(p) == y_digit(p) == y_digit_by_levels(p) == int(finite_sum_contains(p))
    assert v_sequence().digit(p) == v_digit(p) == v_digit_by_levels(p)


def bits_exactly(b: int):
    return st.integers(1 << (b - 1), (1 << b) - 1)


N4 = 1 << 2059
# positions on every scale up to 2^2100, past n_4 = 2^2059
positions = st.integers(1, 2100).flatmap(bits_exactly)
# around n_4: q = p - 1 with exactly 2059 or 2060 bits, and (2^2059, 2^2061]
near_n4 = st.one_of(
    st.sampled_from([2059, 2060]).flatmap(bits_exactly).map(lambda q: q + 1),
    st.integers(N4 + 1, 1 << 2061),
)
# sums of level values, one off or exact: where y and v change
near_sums = st.builds(
    lambda es, d: max(1, sum(1 << e for e in es) + d),
    st.sets(st.sampled_from([1, 3, 11, 2059]), min_size=1),
    st.integers(-1, 1),
)
# multiples of 2048, where kappa takes its level loop, and the first and
# last positions of a 2048-digit chunk, p = 1 and p = 2047 mod 2048
chunk_edges = st.builds(lambda q, d: (q << 11) + d, positions, st.sampled_from([0, 1, 2047]))


@settings(max_examples=300)
@given(st.one_of(positions, near_n4, near_sums, chunk_edges))
def test_probes_match_their_recursions(p):
    assert_probes_match(p)


def test_probes_at_the_level_edges():
    edges = [1, 2, 3, 8, 9, 2048, 2049, N4, N4 + 1]
    assert y_digit(0) == y_digit_by_levels(0) == 1
    for p in edges:
        assert_probes_match(p)
    assert [level_of_by_levels(p) for p in edges[2:]] == [1, 1, 2, 2, 3, 3, 4]
    # every offset i = 0..2047 of a 2048-digit chunk far inside the level-4
    # block and of its last chunk, then the first and last 2048 positions of
    # chunk 2 of the level-5 block (chunk 1 is the level-4 block), the
    # first 2048 of chunk 3 and the 1024 either side of its end
    for first in ((1 << 2058) + (12345 << 11), N4 - 2048, N4, 2 * N4 - 2048, 2 * N4, 3 * N4 - 1024):
        for i in range(2048):
            assert_probes_match(first + i + 1)
    # the last position of each scale and the first past it, around n_4
    for b in (2058, 2059, 2060, 2061):
        for p in ((1 << b) - 1, 1 << b, (1 << b) + 1, (1 << b) + 2):
            assert_probes_match(p)


def test_probe_domain_errors():
    for fn, p in ((kappa_digit, 0), (kappa_digit, -1), (v_digit, 0), (v_digit, -1), (y_digit, -1)):
        with pytest.raises(DomainError):
            fn(p)


# -- pseudorandom streams ----------------------------------------------------


def test_splitmix_reference_stability():
    # frozen against the textbook sequential generator started at state 0
    assert splitmix64(0, 0) == 16294208416658607535
    assert splitmix64(0, 1) == 7960286522194355700
    assert splitmix64(12345, 0) == 2454886589211414944


def vec_words(seed: int, first: int, count: int) -> list[int]:
    """The chunks of _vec_words joined, each copied before the next overwrites it."""
    chunks = [(i, z.copy()) for i, z in _vec_words(seed, first, count)]
    assert [i for i, _ in chunks] == list(range(0, count, _WORD_CHUNK))
    assert all(z.dtype == np.uint64 for _, z in chunks)
    return [w for _, z in chunks for w in z.tolist()]


@settings(max_examples=200)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1) | st.integers(2**64 - 400, 2**64 - 1),
    st.integers(0, 300),
)
def test_vec_words_match_scalar_splitmix(seed, first, count):
    first = min(first, 2**64 - count)  # the last index is at most 2^64 - 1
    assert vec_words(seed, first, count) == [splitmix64(seed, i) for i in range(first, first + count)]


@pytest.mark.parametrize("count", [0, _WORD_CHUNK - 1, _WORD_CHUNK, _WORD_CHUNK + 1, 2 * _WORD_CHUNK + 7])
@pytest.mark.parametrize("first", [0, 12345, 2**64 - 2 * _WORD_CHUNK - 7])
def test_vec_words_across_chunks(first, count):
    seed = 0x5EED + count
    assert vec_words(seed, first, count) == [splitmix64(seed, i) for i in range(first, first + count)]


@pytest.mark.parametrize("count", [0, 1, _WORD_CHUNK + 1])
def test_streams_reduce_every_chunk(count):
    b = bernoulli_stream(Fraction(2, 5), 17, 10**6)
    u = uniform_stream(7, 17, 10**6)
    threshold = (2 << 64) // 5
    assert b._bulk_fn(3, count).tolist() == [int(splitmix64(17, i) < threshold) for i in range(2, 2 + count)]
    assert u._bulk_fn(3, count).tolist() == [splitmix64(17, i) % 7 for i in range(2, 2 + count)]


def test_bernoulli_deterministic_and_calibrated():
    a = bernoulli_stream(Fraction(1, 2), 42, 10**6)
    b = bernoulli_stream(Fraction(1, 2), 42, 10**6)
    da, db = a.digits(1, 10**6), b.digits(1, 10**6)
    assert (da == db).all()
    assert abs(da.mean() - 0.5) <= 0.002
    c = bernoulli_stream(Fraction(1, 5), 42, 10**6)
    assert abs(c.digits(1, 10**6).mean() - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / 10**6)


def test_bernoulli_bulk_matches_digit():
    seq = bernoulli_stream(Fraction(3, 7), 99, 1000)
    assert seq.digits(1, 50).tolist() == [seq.digit(p) for p in range(1, 51)]


def test_bernoulli_domain_errors():
    with pytest.raises(DomainError):
        bernoulli_stream(1.0, 1, 100)
    with pytest.raises(DomainError):
        bernoulli_stream(0, 1, 100)


def test_uniform_stream_matches_digit():
    seq = uniform_stream(3, 7, 500)
    assert seq.digits(1, 60).tolist() == [seq.digit(p) for p in range(1, 61)]


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


@pytest.mark.parametrize(
    "seq",
    [bernoulli_stream(Fraction(1, 3), 5, 4096), uniform_stream(3, 5, 4096), kappa_sequence(), y_sequence(),
     v_sequence(), champernowne_digits(2, 4096)],
    ids=["bernoulli", "uniform", "kappa", "y", "v", "champernowne"],
)
def test_bulk_digits_are_frozen_to_their_owner(seq):
    # block_counts memoises only arrays read-only up to their owner; a bulk
    # path returning a view of a writeable array would turn the memo off
    assert _frozen(seq.digits(1, 4096))


def test_derive_seed_changes_stream():
    assert derive_seed(1, "a") != derive_seed(1, "b")


# -- champernowne ------------------------------------------------------------


def test_champernowne_base2_prefix():
    seq = champernowne_digits(2, 64)
    assert seq.digits(1, 11).tolist() == [1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1]


def test_champernowne_base10_prefix():
    seq = champernowne_digits(10, 32)
    assert seq.digits(1, 12).tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 1]


def test_champernowne_base2_balance():
    # leading-digit bias decays slowly: the direct count at 10^6 digits
    # still shows a ~3% excess of ones, shrinking with the window
    seq = champernowne_digits(2, 10**6)
    digits = seq.digits(1, 10**6)
    dev_small = abs(digits[: 10**4].mean() - 0.5)
    dev_large = abs(digits.mean() - 0.5)
    assert dev_large <= 0.04
    assert dev_large < dev_small
