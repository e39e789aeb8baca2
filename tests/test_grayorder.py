from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab import grayorder
from normlab.errors import BudgetError, DomainError
from normlab.grayorder import (
    GrayOrdering,
    _check_words,
    offset,
    reflected_gray,
    verify_ordering,
)
from normlab.seqcore import Block

B = Block.from_string


def mirror(block: Block) -> Block:
    """Bitwise complement of a binary block."""
    return Block(tuple(1 - d for d in block.digits))


def test_length_one_ordering():
    assert str(GrayOrdering(1, B("0")).block(1)) == "0"
    assert str(GrayOrdering(1, B("0")).block(2)) == "1"


def test_level_two_ordering_blocks():
    start = B("01111000")
    assert str(GrayOrdering(8, start).block(2)) == "01111001"
    assert str(mirror(GrayOrdering(8, start).block(2))) == "10000110"
    assert str(GrayOrdering(8, start).block(3)) == "01111011"


def test_index_range_checked():
    with pytest.raises(DomainError, match=r"index 9 outside \[1, 2\^3\]"):
        GrayOrdering(3, B("000")).block(9)
    with pytest.raises(DomainError, match=r"index 0 outside \[1, 2\^3\]"):
        GrayOrdering(3, B("000")).block(0)


def test_start_length_checked():
    with pytest.raises(DomainError, match="start block has length 2, expected 3"):
        GrayOrdering(3, B("01")).block(1)


def test_alternated_ordering_blocks():
    alt = GrayOrdering(2, B("01"), "alternated")
    assert [str(alt.block(l)) for l in range(1, 5)] == ["01", "11", "10", "00"]
    start = B("01111000")
    alt, gray = GrayOrdering(8, start, "alternated"), GrayOrdering(8, start)
    assert str(alt.block(6)) == "10000000"
    assert str(alt.block(7)) == "01111101"
    # the gray block for odd l, its mirror for even l
    for l in range(1, 257):
        assert alt.block(l) == (gray.block(l) if l % 2 else mirror(gray.block(l)))


def test_alternated_needs_even_length():
    with pytest.raises(DomainError, match="alternated ordering needs even block length, got 1"):
        GrayOrdering(1, B("0"), "alternated").block(1)
    with pytest.raises(DomainError, match="alternated ordering needs even block length, got 3"):
        verify_ordering(3, B("000"), "alternated")


def test_verify_ordering_all_properties():
    rep = verify_ordering(3, B("000"))
    assert rep.passed
    assert rep.all_distinct and rep.unit_hamming and rep.nested_suffixes


def test_verify_alternated_bijection():
    rep = verify_ordering(2, B("01"), "alternated")
    assert rep.passed and rep.all_distinct


def test_verify_budget():
    with pytest.raises(BudgetError, match="exhaustive check budget is block length n <= 20, got 21"):
        verify_ordering(21, None)


@settings(max_examples=40)
@given(st.integers(1, 10), st.integers(0, 1023))
def test_bijection_exhaustive(n, start_code):
    start = Block.from_code(start_code % 2**n, n, 2)
    seen = {str(GrayOrdering(n, start).block(l)) for l in range(1, 2**n + 1)}
    assert len(seen) == 2**n


@settings(max_examples=40)
@given(st.integers(2, 10), st.integers(0, 1023), st.integers(1, 2**10 - 1))
def test_unit_hamming_distance(n, start_code, l):
    l = 1 + l % (2**n - 1)
    start = Block.from_code(start_code % 2**n, n, 2)
    a = GrayOrdering(n, start).block(l).encode()
    b = GrayOrdering(n, start).block(l + 1).encode()
    assert bin(a ^ b).count("1") == 1


@settings(max_examples=40)
@given(st.integers(1, 10), st.integers(0, 1023), st.integers(1, 2**10))
def test_start_xor_decomposition(n, start_code, l):
    l = 1 + (l - 1) % (2**n)
    start = Block.from_code(start_code % 2**n, n, 2)
    with_start = GrayOrdering(n, start).block(l).encode()
    from_zero = GrayOrdering(n).block(l).encode()
    assert with_start == start.encode() ^ from_zero


@settings(max_examples=20)
@given(st.integers(1, 8).map(lambda k: 2 * k), st.integers(0, 2**16 - 1))
def test_alternated_bijection_even_lengths(n, start_code):
    start = Block.from_code(start_code % 2**n, n, 2)
    rep = verify_ordering(min(n, 16), start, "alternated")
    assert rep.passed


def test_ordering_iterator_matches_indexing():
    for variant in ("gray", "alternated"):
        ordering = GrayOrdering(4, B("0110"), variant)
        assert [str(b) for b in ordering] == [str(ordering.block(l)) for l in range(1, 17)]


def _loop_report(words, n, variant):
    """The per-word loops the exhaustive guard ran before it was vectorised."""
    size = 2**n
    failures = []
    distinct = len(set(words)) == size
    if not distinct:
        failures.append("outputs are not distinct")
    unit_hamming = nested = None
    if variant == "gray":
        unit_hamming = True
        for a, b in zip(words, words[1:]):
            diff = a ^ b
            if diff == 0 or diff & (diff - 1):
                unit_hamming = False
                failures.append(f"neighbors {a:0{n}b}, {b:0{n}b} differ in != 1 place")
                break
        nested = True
        for i in range(1, n):
            group = 1 << i
            for j in range(size // group):
                chunk = words[j * group : (j + 1) * group]
                if len({w >> i for w in chunk}) != 1 or len({w & (group - 1) for w in chunk}) != group:
                    nested = False
                    failures.append(f"suffix structure broken at i={i}, group {j}")
                    break
            if not nested:
                break
    return distinct, unit_hamming, nested, failures


@settings(max_examples=300)
@given(
    st.integers(1, 8),
    st.sampled_from(["gray", "alternated"]),
    st.integers(0, 255),
    # rotate and bitswap keep the words distinct and, for gray, at unit
    # Hamming steps, so only the nesting can break
    st.sampled_from(["none", "swap", "duplicate", "flip", "rotate", "bitswap"]),
    st.integers(0, 255),
    st.integers(0, 255),
)
def test_vectorised_checks_match_loop_on_corrupted_words(n, variant, start_code, corruption, a, b):
    if variant == "alternated" and n % 2:
        n += 1
    size = 2**n
    ordering = GrayOrdering(n, Block.from_code(start_code % size, n, 2), variant)
    words = ordering.words().tolist()
    assert words == [ordering.word(l) for l in range(1, size + 1)]
    j, k = a % size, b % size
    if corruption == "swap":
        j = min(j, size - 2)
        words[j], words[j + 1] = words[j + 1], words[j]
    elif corruption == "duplicate":
        words[j] = words[k if k != j else (j + 1) % size]
    elif corruption == "flip":
        words[j] ^= 1 << (k % n)
    elif corruption == "rotate":
        words = words[j:] + words[:j]
    elif corruption == "bitswap":  # exchange bits j % n and k % n of every word
        i, h = j % n, k % n
        words = [w ^ (((w >> i ^ w >> h) & 1) * (1 << i | 1 << h)) for w in words]
    with mock.patch.object(grayorder, "_broken_group", wraps=grayorder._broken_group) as loop:
        rep = _check_words(np.array(words, dtype=np.int64), n, variant, ordering.start_word)
    distinct, unit_hamming, nested, failures = _loop_report(words, n, variant)
    assert rep.all_distinct == distinct
    assert (rep.unit_hamming, rep.nested_suffixes, rep.failures) == (unit_hamming, nested, failures)
    # the one-pass test passes exactly the distinct, nested words; only the
    # others run the level-by-level loop that names the broken group
    assert loop.called == (variant == "gray" and not (distinct and nested))
    if corruption in ("duplicate", "flip"):
        assert not rep.passed


def test_verify_ordering_reports_a_broken_ordering():
    words = GrayOrdering(3).words()
    words[[1, 2]] = words[[2, 1]]  # 000 011 001 010 ...
    rep = _check_words(words, 3, "gray", 0)
    assert rep.all_distinct and not rep.unit_hamming and not rep.nested_suffixes
    assert rep.failures == [
        "neighbors 000, 011 differ in != 1 place",
        "suffix structure broken at i=1, group 0",
    ]


def offset_digit(n: int, l: int, i: int, alternated: bool = False) -> int:
    """Digit i (1 = most significant) of offset(n, l, alternated), without
    building the n-bit word; the kappa_digit references in
    test_generators.py read their Gray offset digits from it."""
    bit = (reflected_gray(l - 1) >> (n - i)) & 1
    return bit ^ (~l & 1) if alternated else bit


@settings(max_examples=200)
@given(st.integers(1, 62), st.integers(0, 2**62 - 1), st.integers(1, 62), st.booleans())
def test_offset_digit_matches_offset_bits(n, l, i, alternated):
    if alternated and n % 2:
        n += 1 if n < 62 else -1
    l = 1 + l % 2**n
    i = 1 + (i - 1) % n
    word = offset(n, l, alternated)
    assert offset_digit(n, l, i, alternated) == (word >> (n - i)) & 1
    assert int(offset(n, np.array([l], dtype=np.int64), alternated)[0]) == word


@settings(max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            # n-bit words, with duplicates, negatives and words >= 2^n mixed in
            st.lists(st.integers(0, (1 << n) - 1) | st.integers(-3, -1) | st.integers(1 << n, (1 << n) + 3),
                     min_size=1 << n, max_size=1 << n),
            st.booleans(),
        )
    )
)
@example((2, [0, 1, 2, 5], False))  # distinct, but 5 is no 2-bit word
@example((2, [0, -1, 2, 3], False))
@example((2, [0, 1, 1, 3], False))
@example((2, [3, 1, 0, 2], False))
def test_distinct_words_match_the_unique_definition(case):
    n, words, permute = case
    if permute:  # a permutation of the n-bit words, with one word maybe replaced
        words = list(np.random.default_rng(abs(words[0])).permutation(1 << n)[:-1]) + [words[-1]]
    arr = np.array(words, dtype=np.int64)
    # distinct n-bit words, 2^n of them: the set of words is {0, ..., 2^n - 1}
    want = np.array_equal(np.unique(arr), np.arange(1 << n))
    assert _check_words(arr, n, "alternated", 0).all_distinct == want
