"""Alphabets, blocks, symbolic sequences, and occurrence counting.

Positions are 1-indexed throughout.  Counts and frequencies are exact
rationals (`fractions.Fraction`); callers convert to float only for display.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np


class AlphabetError(ValueError):
    pass


class LengthError(ValueError):
    pass


class HorizonError(ValueError):
    pass


class EmptyWindowError(ValueError):
    pass


@dataclass(frozen=True)
class Alphabet:
    """Digit alphabet {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise AlphabetError(f"alphabet size must be >= 2, got {self.size}")

    def __contains__(self, digit: int) -> bool:
        return 0 <= digit < self.size


BINARY = Alphabet(2)


def _dtype_for(r: int):
    return np.uint8 if r <= 256 else np.uint32


@dataclass(frozen=True)
class Block:
    """Finite word over an alphabet; the unit of all counting."""

    digits: tuple[int, ...]
    alphabet: Alphabet = BINARY

    def __post_init__(self):
        if len(self.digits) < 1:
            raise LengthError("block must have length >= 1")
        for d in self.digits:
            if d not in self.alphabet:
                raise AlphabetError(
                    f"digit {d} outside alphabet of size {self.alphabet.size}"
                )

    @classmethod
    def from_string(cls, text: str, r: int = 2) -> "Block":
        return cls(tuple(int(c) for c in text), Alphabet(r))

    @classmethod
    def from_code(cls, code: int, length: int, r: int = 2) -> "Block":
        """Decode a base-r integer code, first digit most significant."""
        digits = []
        for _ in range(length):
            code, d = divmod(code, r)
            digits.append(d)
        return cls(tuple(reversed(digits)), Alphabet(r))

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        if self.alphabet.size <= 10:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def encode(self) -> int:
        """Base-r integer code, first digit most significant."""
        code = 0
        for d in self.digits:
            code = code * self.alphabet.size + d
        return code

    def as_array(self) -> np.ndarray:
        return np.array(self.digits, dtype=_dtype_for(self.alphabet.size))


class SymbolicSequence:
    """Deterministic random-access digit source.

    `bulk_fn(start, count)` is the one access primitive: it returns the
    digits at positions start .. start+count-1 as an array.  `digit(p)` reads
    one digit through it unless a per-digit rule `digit_fn` is given, which
    sequences need whose positions reach far beyond any array (p > 2^62).
    Positions run over 1 <= p <= horizon (horizon None = unbounded), and the
    same position always yields the same digit.
    """

    def __init__(
        self,
        bulk_fn: Callable[[int, int], np.ndarray],
        alphabet: Alphabet = BINARY,
        horizon: Optional[int] = None,
        name: str = "",
        digit_fn: Optional[Callable[[int], int]] = None,
    ):
        self._bulk_fn = bulk_fn
        self._digit_fn = digit_fn or (lambda p: int(bulk_fn(p, 1)[0]))
        self.alphabet = alphabet
        self.horizon = horizon
        self.name = name

    def _check_range(self, start: int, count: int) -> None:
        if start < 1:
            raise HorizonError(f"positions are 1-indexed, got {start}")
        if count < 0:
            raise HorizonError(f"negative digit count {count}")
        if self.horizon is not None and start + count - 1 > self.horizon:
            raise HorizonError(
                f"positions up to {start + count - 1} exceed horizon {self.horizon}"
            )

    def digit(self, p: int) -> int:
        self._check_range(p, 1)
        return self._digit_fn(p)

    def digits(self, start: int, count: int) -> np.ndarray:
        """Digits at positions start .. start+count-1 as an array."""
        self._check_range(start, count)
        return self._bulk_fn(start, count)

    def prefix(self, n: int) -> np.ndarray:
        return self.digits(1, n)

    def block(self, start: int, length: int) -> Block:
        return Block(tuple(int(d) for d in self.digits(start, length)), self.alphabet)

    @classmethod
    def from_array(cls, arr, r: int = 2, name: str = "") -> "SymbolicSequence":
        data = np.asarray(arr, dtype=_dtype_for(r))
        if data.size and int(data.max()) >= r:
            raise AlphabetError("array contains digits outside the alphabet")
        return cls(
            lambda s, c: data[s - 1 : s - 1 + c].copy(),
            Alphabet(r),
            horizon=len(data),
            name=name,
        )

    @classmethod
    def periodic(cls, pattern, r: int = 2, name: str = "") -> "SymbolicSequence":
        if isinstance(pattern, Block):
            r = pattern.alphabet.size
            pat = pattern.as_array()
        else:
            pat = np.asarray(list(pattern), dtype=_dtype_for(r))
        L = len(pat)

        def bulk(start: int, count: int) -> np.ndarray:
            idx = (np.arange(start - 1, start - 1 + count)) % L
            return pat[idx]

        return cls(
            bulk,
            Alphabet(r),
            horizon=None,
            name=name or f"periodic({''.join(map(str, pat.tolist()))})",
        )

    @classmethod
    def constant(cls, digit: int, r: int = 2, name: str = "") -> "SymbolicSequence":
        return cls.periodic([digit], r=r, name=name or f"constant({digit})")


# ---------------------------------------------------------------------------
# occurrence counting


def _anchor_codes(digits: np.ndarray, m: int, r: int) -> np.ndarray:
    """Base-r code of the m-block anchored at each position (first digit MSB)."""
    W = len(digits) - m + 1
    if W <= 0:
        return np.zeros(0, dtype=np.int64)
    if r**m >= 2**62:
        raise LengthError(f"block codes for m={m}, r={r} exceed the 64-bit budget")
    codes = np.zeros(W, dtype=np.int64)
    for j in range(m):
        codes *= r
        codes += digits[j : j + W]  # cast in buffered chunks, not one full-size copy
    return codes


def block_histogram(codes: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The block codes that occur, in ascending order, and their counts.

    `n_blocks` is the number of possible codes (r^m for m-blocks).  A table
    of all of them is counted when it is no longer than `codes`, and the
    codes are sorted otherwise, so memory stays linear in len(codes).
    """
    if n_blocks <= len(codes):
        counts = np.bincount(codes, minlength=n_blocks)
        observed = np.flatnonzero(counts)
        return observed, counts[observed]
    return np.unique(codes, return_counts=True)


def prefix_frequency(seq: SymbolicSequence, B: Block, N: int) -> Fraction:
    """Fraction of anchors n in [1, N-|B|+1] where B occurs in seq."""
    if N < len(B):
        raise LengthError(f"window N={N} shorter than block length {len(B)}")
    codes = _anchor_codes(seq.digits(1, N), len(B), seq.alphabet.size)
    return Fraction(int(np.count_nonzero(codes == B.encode())), N - len(B) + 1)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Occurrence fractions of the m-blocks anchored at a finite window."""

    m: int
    window: str
    counts: dict[tuple[int, ...], int]
    total: int
    alphabet: Alphabet = BINARY

    def __post_init__(self):
        if self.total < 1:
            raise EmptyWindowError("empty window")
        if sum(self.counts.values()) != self.total:
            raise ValueError("block counts do not add up to the window size")

    def fraction(self, block) -> Fraction:
        key = tuple(block.digits) if isinstance(block, Block) else tuple(block)
        return Fraction(self.counts.get(key, 0), self.total)

    def fractions(self) -> dict[tuple[int, ...], Fraction]:
        return {k: Fraction(v, self.total) for k, v in self.counts.items()}

    def merge(self, other: "EmpiricalMeasure") -> "EmpiricalMeasure":
        """Associative merge of counts from disjoint sub-windows."""
        if self.m != other.m or self.alphabet != other.alphabet:
            raise ValueError("can only merge measures of the same block length")
        counts = dict(self.counts)
        for k, v in other.counts.items():
            counts[k] = counts.get(k, 0) + v
        return EmpiricalMeasure(
            self.m,
            f"{self.window}+{other.window}",
            counts,
            self.total + other.total,
            self.alphabet,
        )


def empirical_measure(seq: SymbolicSequence, m: int, N: int) -> EmpiricalMeasure:
    """Count the m-blocks anchored at the prefix [1, N-m+1]."""
    if N < m:
        raise EmptyWindowError(f"prefix {N} shorter than block length {m}")
    r = seq.alphabet.size
    at = _anchor_codes(seq.digits(1, N), m, r)
    total = len(at)
    observed, cnt = block_histogram(at, r**m)
    del at  # 8 bytes a window: freed before the per-block keys are built
    counts = {
        tuple(Block.from_code(int(c), m, r).digits): int(n) for c, n in zip(observed, cnt)
    }
    return EmpiricalMeasure(m, f"prefix({N})", counts, total, seq.alphabet)


def zip_product(seqs: Sequence[SymbolicSequence]) -> SymbolicSequence:
    """Multirow sequence: digit(p) encodes the column of row digits at p.

    Row-major encoding, first row most significant.
    """
    if not seqs:
        raise ValueError("need at least one row")
    if len(seqs) == 1:
        return seqs[0]
    sizes = [s.alphabet.size for s in seqs]
    R = 1
    for r in sizes:
        R *= r
    horizons = [s.horizon for s in seqs if s.horizon is not None]
    horizon = min(horizons) if horizons else None

    def bulk(start: int, c: int) -> np.ndarray:
        out = np.zeros(c, dtype=_dtype_for(R))
        for s in seqs:
            out *= s.alphabet.size
            out += s.digits(start, c).astype(_dtype_for(R))
        return out

    return SymbolicSequence(bulk, Alphabet(R), horizon=horizon, name="zip")


def base4_split(seq: SymbolicSequence) -> tuple[SymbolicSequence, SymbolicSequence]:
    """Split a base-4 stream into its two binary rows (floor(d/2), d mod 2)."""
    if seq.alphabet.size != 4:
        raise AlphabetError("base4_split needs an alphabet of size 4")
    row1 = SymbolicSequence(
        lambda s, c: (seq.digits(s, c) // 2).astype(np.uint8),
        BINARY,
        horizon=seq.horizon,
        name=f"{seq.name}/hi",
    )
    row2 = SymbolicSequence(
        lambda s, c: (seq.digits(s, c) % 2).astype(np.uint8),
        BINARY,
        horizon=seq.horizon,
        name=f"{seq.name}/lo",
    )
    return row1, row2


# ---------------------------------------------------------------------------
# bit-packed sequence files

_NSEQ_MAGIC = b"NSEQ"
_NSEQ_VERSION = 0x01


def write_nseq(path, seq_or_array, r: Optional[int] = None, count: Optional[int] = None) -> None:
    """Write digits to an .nseq file.

    Header: magic "NSEQ", version byte 0x01, alphabet size (uint16 LE),
    digit count (uint64 LE).  Payload is bit-packed LSB-first within bytes
    for r=2, one byte per digit for 2 < r <= 256.
    """
    if isinstance(seq_or_array, SymbolicSequence):
        if count is None:
            if seq_or_array.horizon is None:
                raise HorizonError("digit count required for an unbounded sequence")
            count = seq_or_array.horizon
        digits = seq_or_array.digits(1, count)
        r = seq_or_array.alphabet.size
    else:
        digits = np.asarray(seq_or_array, dtype=np.uint8 if (r or 2) <= 256 else np.uint32)
        if r is None:
            raise ValueError("alphabet size required when writing a raw array")
        if count is not None:
            digits = digits[:count]
    if r > 256:
        raise AlphabetError(".nseq supports alphabets up to size 256")
    header = _NSEQ_MAGIC + struct.pack("<BHQ", _NSEQ_VERSION, r, len(digits))
    if r == 2:
        payload = np.packbits(digits.astype(np.uint8), bitorder="little").tobytes()
    else:
        payload = digits.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_nseq(path) -> SymbolicSequence:
    """Load an .nseq file as an array-backed sequence."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _NSEQ_MAGIC:
        raise ValueError("not an .nseq file (bad magic)")
    version, r, n = struct.unpack("<BHQ", blob[4:15])
    if version != _NSEQ_VERSION:
        raise ValueError(f"unsupported .nseq version {version}")
    payload = blob[15:]
    if r == 2:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        digits = bits[:n]
    else:
        digits = np.frombuffer(payload, dtype=np.uint8)[:n]
    if len(digits) < n:
        raise ValueError("truncated .nseq payload")
    return SymbolicSequence.from_array(digits, r=r, name=str(path))
