"""Random-access Gray-code orderings of the binary blocks of a given length.

The l-th block of the ordering that starts at a block S is
S XOR reflected-gray(l-1), with the first block coordinate taken as the
most significant bit of the n-bit Gray word.  `verify_ordering` is the
exhaustive regression guard for the equivalence of this index formula with
the recursive prefix/suffix construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import BudgetError
from .seqcore import Block, LengthError

VERIFY_BUDGET_BITS = 20


class ParityError(ValueError):
    pass


class IndexRangeError(ValueError):
    pass


def reflected_gray(j: int) -> int:
    """Gray code of the counter value j."""
    return j ^ (j >> 1)


def _as_int(block: Block) -> int:
    return block.encode()


def _as_block(word: int, n: int) -> Block:
    return Block.from_code(word, n, 2)


def gray_block(n: int, l: int, start: Optional[Block] = None) -> Block:
    """l-th block (1-indexed) of the ordering of {0,1}^n beginning at start."""
    if n < 1:
        raise LengthError("block length must be >= 1")
    if not 1 <= l <= 2**n:
        raise IndexRangeError(f"index {l} outside [1, 2^{n}]")
    base = 0
    if start is not None:
        if len(start) != n:
            raise LengthError(f"start block has length {len(start)}, expected {n}")
        base = _as_int(start)
    return _as_block(base ^ reflected_gray(l - 1), n)


def alt_block(n: int, l: int, start: Optional[Block] = None) -> Block:
    """Tilde-alternated ordering: gray_block for odd l, its mirror for even l.

    Defined for even n only (mirroring moves a block an even number of steps
    along the ordering, so the alternated list is again an ordering).
    """
    if n % 2 != 0:
        raise ParityError(f"alternated ordering needs even block length, got {n}")
    b = gray_block(n, l, start)
    return b.mirror() if l % 2 == 0 else b


@dataclass
class OrderingReport:
    n: int
    variant: str
    start: str
    all_distinct: bool
    unit_hamming: Optional[bool]
    nested_suffixes: Optional[bool]
    bijection: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        checks = [self.all_distinct, self.bijection]
        if self.unit_hamming is not None:
            checks.append(self.unit_hamming)
        if self.nested_suffixes is not None:
            checks.append(self.nested_suffixes)
        return all(checks)


def verify_ordering(n: int, start: Optional[Block] = None, variant: str = "gray") -> OrderingReport:
    """Exhaustively check the ordering properties for one (n, start) pair.

    variant="gray": all 2^n outputs distinct; consecutive blocks differ in
    exactly one coordinate; for each i < n, each aligned group of 2^i
    consecutive blocks has constant prefixes while its length-i suffixes
    enumerate all of {0,1}^i.
    variant="alternated": the outputs are a permutation of {0,1}^n (even n).
    """
    if variant not in ("gray", "alternated"):
        raise ValueError(f"unknown variant {variant!r}")
    if n > VERIFY_BUDGET_BITS:
        raise BudgetError(f"exhaustive check budget is n <= {VERIFY_BUDGET_BITS}")
    if variant == "alternated" and n % 2 != 0:
        raise ParityError("alternated ordering needs even n")

    base = _as_int(start) if start is not None else 0
    if start is not None and len(start) != n:
        raise LengthError(f"start block has length {len(start)}, expected {n}")
    size = 2**n
    if variant == "gray":
        words = [base ^ reflected_gray(j) for j in range(size)]
    else:
        mask = size - 1
        words = [
            (base ^ reflected_gray(j)) ^ (mask if j % 2 == 1 else 0)
            for j in range(size)
        ]

    failures: list[str] = []
    distinct = len(set(words)) == size
    if not distinct:
        failures.append("outputs are not distinct")
    bijection = distinct  # distinct n-bit words of the right count = permutation

    unit_hamming: Optional[bool] = None
    nested: Optional[bool] = None
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
            suffix_mask = group - 1
            for j in range(size // group):
                chunk = words[j * group : (j + 1) * group]
                prefixes = {w >> i for w in chunk}
                suffixes = {w & suffix_mask for w in chunk}
                if len(prefixes) != 1 or len(suffixes) != group:
                    nested = False
                    failures.append(f"suffix structure broken at i={i}, group {j}")
                    break
            if not nested:
                break

    return OrderingReport(
        n=n,
        variant=variant,
        start=f"{base:0{n}b}",
        all_distinct=distinct,
        unit_hamming=unit_hamming,
        nested_suffixes=nested,
        bijection=bijection,
        failures=failures,
    )


@dataclass(frozen=True)
class GrayOrdering:
    """One ordering of the binary blocks of length n, random access by index."""

    n: int
    start: Optional[Block] = None
    variant: str = "gray"

    def __post_init__(self):
        if self.variant not in ("gray", "alternated"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "alternated" and self.n % 2 != 0:
            raise ParityError("alternated ordering needs even n")

    def __len__(self) -> int:
        return 2**self.n

    def block(self, l: int) -> Block:
        if self.variant == "gray":
            return gray_block(self.n, l, self.start)
        return alt_block(self.n, l, self.start)

    def __iter__(self):
        for l in range(1, 2**self.n + 1):
            yield self.block(l)
