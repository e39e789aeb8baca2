"""Random-access Gray-code orderings of the binary blocks of a given length.

The one ordering rule: the l-th word (1-indexed) of the ordering that
starts at the n-bit word S is S XOR `offset(n, l)`, where the offset is
reflected-gray(l-1), complemented for even l in the alternated variant.
The first block coordinate is the most significant bit of the word.
`GrayOrdering` validates one (n, start, variant) and reads its blocks
through the rule; `verify_ordering` is the exhaustive regression guard that
runs the same rule over all 2^n indices and checks distinctness, unit
Hamming steps and the recursive prefix/suffix structure.
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
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n < 1:
            raise DomainError("block length must be >= 1")
        if self.alternated and self.n % 2 != 0:
            raise DomainError(f"alternated ordering needs even block length, got {self.n}")
        if self.start is not None:
            if len(self.start) != self.n:
                raise DomainError(f"start block has length {len(self.start)}, expected {self.n}")
            if self.start.alphabet.size != 2:
                raise DomainError("start block must be binary")

    @property
    def alternated(self) -> bool:
        return self.variant == "alternated"

    @property
    def start_word(self) -> int:
        return 0 if self.start is None else self.start.encode()

    def __len__(self) -> int:
        return 2**self.n

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
    ordering = GrayOrdering(n, start, variant)
    return _check_words(ordering.words(), n, variant, ordering.start_word)


def _check_words(words: np.ndarray, n: int, variant: str, start: int) -> OrderingReport:
    """The report of `verify_ordering` for any int64 array of 2^n n-bit words."""
    size = 1 << n
    failures: list[str] = []
    distinct = len(np.unique(words)) == size
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
        nested = True
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
                nested = False
                failures.append(f"suffix structure broken at i={i}, group {bad[0]}")
                break

    return OrderingReport(
        n=n,
        variant=variant,
        start=f"{start:0{n}b}",
        all_distinct=distinct,
        unit_hamming=unit_hamming,
        nested_suffixes=nested,
        failures=failures,
    )
