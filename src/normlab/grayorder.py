"""Random-access Gray-code orderings of the binary blocks of a given length.

The one ordering rule: the l-th word (1-indexed) of the ordering that
starts at the n-bit word S is S XOR `offset(n, l)`, where the offset is
reflected-gray(l-1), complemented for even l in the alternated variant.
The first block coordinate is the most significant bit of the word.
`GrayOrdering` validates one (n, start, variant) and reads its blocks
through the rule; `verify_orderings` is the exhaustive regression guard that
runs the same rule over all 2^n indices of each start and checks
distinctness, unit Hamming steps and the recursive prefix/suffix structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, within
from .seqcore import Block


def reflected_gray(j):
    """Gray code of the counter value j."""
    return j ^ (j >> 1)


def offset(n: int, l, alternated: bool = False):
    """XOR offset of the l-th word (1-indexed) from the start word.

    Works on an int or elementwise on an int64 array of indices (n <= 62).
    """
    g = reflected_gray(l - 1)
    if alternated:
        g = g ^ ((~l & 1) * ((1 << n) - 1))
    return g


@dataclass(frozen=True)
class GrayOrdering:
    """One ordering of the binary blocks of length n, random access by index.

    The one place an ordering is validated: a known variant, n >= 1, even n
    for the alternated variant (mirroring moves a block an even number of
    steps along the ordering, so the alternated list is again an ordering),
    and a binary start block of length n (default all zeros).
    """

    n: int
    start: Optional[Block] = None
    variant: str = "gray"

    def __post_init__(self):
        if self.variant not in ("gray", "alternated"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise DomainError("block length must be >= 1")
        if self.alternated and self.n % 2 != 0:
            raise DomainError(f"alternated ordering needs even block length, got {self.n}")
        if self.start is not None:
            if len(self.start) != self.n:
                raise DomainError(f"start block has length {len(self.start)}, expected {self.n}")
            if self.start.r != 2:
                raise DomainError("start block must be binary")

    @property
    def alternated(self) -> bool:
        return self.variant == "alternated"

    @property
    def start_word(self) -> int:
        return 0 if self.start is None else self.start.encode()

    def word(self, l: int) -> int:
        if not 1 <= l <= 2**self.n:
            raise DomainError(f"index {l} outside [1, 2^{self.n}]")
        return self.start_word ^ offset(self.n, l, self.alternated)

    def words(self) -> np.ndarray:
        """All 2^n words in order as int64, within the exhaustive check budget."""
        within("exhaustive check", self.n)
        index = np.arange(1, 2**self.n + 1, dtype=np.int64)
        return self.start_word ^ offset(self.n, index, self.alternated)

    def block(self, l: int) -> Block:
        return Block.from_code(self.word(l), self.n, 2)

    def __iter__(self):
        """All 2^n blocks in order, under the same budget as `words`."""
        for word in self.words().tolist():
            yield Block.from_code(word, self.n, 2)


@dataclass
class OrderingReport:
    n: int
    variant: str
    start: str
    all_distinct: bool
    unit_hamming: Optional[bool]
    nested_suffixes: Optional[bool]
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # unit_hamming and nested_suffixes are None for a variant without them;
        # distinct words of the right count are already a permutation
        return self.all_distinct and self.unit_hamming is not False and self.nested_suffixes is not False


def verify_ordering(n: int, start: Optional[Block] = None, variant: str = "gray") -> OrderingReport:
    """Exhaustively check the ordering properties for one (n, start) pair.

    variant="gray": all 2^n outputs distinct; consecutive blocks differ in
    exactly one coordinate; for each i < n, each aligned group of 2^i
    consecutive blocks has constant prefixes while its length-i suffixes
    enumerate all of {0,1}^i.
    variant="alternated": the outputs are a permutation of {0,1}^n (even n).
    """
    return verify_orderings(n, [GrayOrdering(n, start, variant).start_word], variant)[0]


_BATCH_WORDS = 1 << 17  # words checked at once, so memory does not grow with the starts


def verify_orderings(n: int, starts: list[int], variant: str = "gray") -> list[OrderingReport]:
    """`verify_ordering` of each n-bit start word, in order: the orderings
    are the rows of (rows, 2^n) int64 arrays of at most _BATCH_WORDS words
    (one row when 2^n is more), each batch checked at once by `_check_rows`."""
    offsets = GrayOrdering(n, None, variant).words()  # the ordering of start 0, within the budget
    for s in starts:
        if not 0 <= s < len(offsets):
            raise DomainError(f"start word {s} outside [0, 2^{n})")
    words = np.array(starts, dtype=np.int64)
    rows = max(1, _BATCH_WORDS >> n)
    reports: list[OrderingReport] = []
    for b in range(0, len(words), rows):
        batch = words[b : b + rows]
        reports += _check_rows(batch[:, None] ^ offsets, n, variant, batch.tolist())
    return reports


def _check_rows(words: np.ndarray, n: int, variant: str, starts: list[int]) -> list[OrderingReport]:
    """The `_check_words` report of each row of the (rows, 2^n) int64 `words`
    with its start: all rows pass or fail in one pass of reductions along
    axis 1, and only a failing row is checked again alone, for its text."""
    rows, size = words.shape[0], 1 << n
    # distinct: in range, and every (row, word) key seen, since each row
    # puts 2^n keys in its own 2^n bins (a bool scatter, 1/8 of int64 counts)
    keys = words & (size - 1)
    keys += np.arange(0, rows << n, size, dtype=np.int64)[:, None]
    seen = np.zeros((rows, size), dtype=bool)
    seen.ravel()[keys] = True
    del keys
    ok = (words.min(axis=1) >= 0) & (words.max(axis=1) < size) & seen.all(axis=1)
    ordered = None
    if variant == "gray":
        # Unit Hamming steps, and nested suffixes: distinct words make each
        # aligned group's suffixes distinct, so its suffixes enumerate
        # {0,1}^i once its prefixes are constant, and they are when step k
        # (word k - 1 to word k, 0-indexed) flips no bit at or above tz(k) + 1.
        # The diffs are >= 0 in a row of distinct words, where bitwise_count
        # is exact.
        diff = words[:, 1:] ^ words[:, :-1]
        bound = np.empty(size - 1, dtype=np.int64)  # 2^(tz(k) + 1), filled with no full-length temporary
        for i in range(n):
            bound[(1 << i) - 1 :: 2 << i] = 2 << i
        ok &= ((np.bitwise_count(diff) == 1) & (diff < bound)).all(axis=1)
        ordered = True
    return [
        OrderingReport(n, variant, f"{start:0{n}b}", True, ordered, ordered) if good
        else _check_words(row, n, variant, start)
        for row, start, good in zip(words, starts, ok.tolist())
    ]


def _check_words(words: np.ndarray, n: int, variant: str, start: int) -> OrderingReport:
    """The report of `verify_ordering` for any int64 array of 2^n n-bit words,
    with the text of each failure."""
    size = 1 << n
    failures: list[str] = []
    # 2^n distinct n-bit words: in range, and each counted once
    distinct = (
        len(words) == size
        and 0 <= int(words.min())
        and int(words.max()) < size
        and bool((np.bincount(words, minlength=size) == 1).all())
    )
    if not distinct:
        failures.append("outputs are not distinct")

    unit_hamming: Optional[bool] = None
    nested: Optional[bool] = None
    if variant == "gray":
        diff = words[1:] ^ words[:-1]
        bad = np.flatnonzero((diff == 0) | (diff & (diff - 1) != 0))
        unit_hamming = not len(bad)
        if not unit_hamming:
            a, b = int(words[bad[0]]), int(words[bad[0] + 1])
            failures.append(f"neighbors {a:0{n}b}, {b:0{n}b} differ in != 1 place")
        broken = _broken_group(words, n)
        nested = broken is None
        if broken:
            failures.append(f"suffix structure broken at i={broken[0]}, group {broken[1]}")

    return OrderingReport(
        n=n,
        variant=variant,
        start=f"{start:0{n}b}",
        all_distinct=distinct,
        unit_hamming=unit_hamming,
        nested_suffixes=nested,
        failures=failures,
    )


def _broken_group(words: np.ndarray, n: int) -> Optional[tuple[int, int]]:
    """The first (i, group) whose aligned group of 2^i words has no constant
    prefix or misses a length-i suffix, or None: the definition, run level
    by level for a row that failed the one-pass test of `_check_rows`."""
    size = 1 << n
    index = np.arange(size, dtype=np.int64)
    for i in range(1, n):
        group = 1 << i
        prefixes = (words >> i).reshape(-1, group)
        # (group, suffix) keys: every group holds every suffix once iff
        # each of the 2^n keys occurs exactly once
        keys = (index & -group) | (words & (group - 1))
        suffixes_bad = np.bincount(keys, minlength=size).reshape(-1, group) != 1
        bad = np.flatnonzero((prefixes != prefixes[:, :1]).any(axis=1) | suffixes_bad.any(axis=1))
        if len(bad):
            return i, int(bad[0])
    return None
