"""Alphabets, blocks, symbolic sequences, and occurrence counting.

Positions are 1-indexed throughout.  Counts and frequencies are exact
rationals (`fractions.Fraction`); callers convert to float only for display.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, within


@dataclass(frozen=True)
class Alphabet:
    """Digit alphabet {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise DomainError(f"alphabet size must be >= 2, got {self.size}")

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
            raise DomainError("block must have length >= 1")
        for d in self.digits:
            if d not in self.alphabet:
                raise DomainError(
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

    `digits()` returns arrays that are read-only up to their owner (a view
    of a writeable array is copied) and keeps a weak reference to the last
    one: asked again for the same range while that array lives, it
    returns the same object, so the block counts memoised on that array are
    shared by every statistic that reads it, and no array outlives its users.
    """

    def __init__(
        self,
        bulk_fn: Callable[[int, int], np.ndarray],
        alphabet: Alphabet = BINARY,
        horizon: Optional[int] = None,
        digit_fn: Optional[Callable[[int], int]] = None,
    ):
        self._bulk_fn = bulk_fn
        self._digit_fn = digit_fn or (lambda p: int(bulk_fn(p, 1)[0]))
        self.alphabet = alphabet
        self.horizon = horizon
        self._last: tuple = (None, None, None)  # (start, count, weakref to the digits)

    def _check_range(self, start: int, count: int) -> None:
        # digit() repeats the two position tests inline: a rule added here
        # that can reject count == 1 must be added there too
        if start < 1:
            raise DomainError(f"positions are 1-indexed, got {start}")
        if count < 0:
            raise DomainError(f"negative digit count {count}")
        within("digit", count)
        if self.horizon is not None and start + count - 1 > self.horizon:
            raise DomainError(
                f"positions up to {start + count - 1} exceed horizon {self.horizon}"
            )

    def digit(self, p: int) -> int:
        # one digit is always within the digit budget: only the position
        # can be out of range, and _check_range then raises its error.
        # Calling _check_range on every probe instead costs about 0.17 us a
        # probe (10^5 probes at up to 2^2058: kappa 116 -> 135 ms, y 32 ->
        # 49 ms, v 51 -> 65 ms), 25 % more time on block-stats' probes.
        if p < 1 or (self.horizon is not None and p > self.horizon):
            self._check_range(p, 1)
        return self._digit_fn(p)

    def digits(self, start: int, count: int) -> np.ndarray:
        """Digits at positions start .. start+count-1 as a read-only array."""
        self._check_range(start, count)
        out = self._last[2]() if self._last[:2] == (start, count) else None
        if out is None:
            out = np.asarray(self._bulk_fn(start, count))
            if out.base is not None and not _frozen(out.base):
                out = out.copy()  # a view of a writeable array: block_counts would never memoise it
            out.setflags(write=False)
            self._last = (start, count, weakref.ref(out))
        return out

    @classmethod
    def from_array(cls, arr, r: int = 2) -> "SymbolicSequence":
        data = np.asarray(arr, dtype=_dtype_for(r))
        if data.size and int(data.max()) >= r:
            raise DomainError("array contains digits outside the alphabet")
        return cls(lambda s, c: data[s - 1 : s - 1 + c].copy(), Alphabet(r), horizon=len(data))

    @classmethod
    def periodic(cls, pattern, r: int = 2) -> "SymbolicSequence":
        if isinstance(pattern, Block):
            r = pattern.alphabet.size
            pat = pattern.as_array()
        else:
            pat = np.asarray(list(pattern), dtype=_dtype_for(r))
        L = len(pat)

        def bulk(start: int, count: int) -> np.ndarray:
            idx = (np.arange(start - 1, start - 1 + count)) % L
            return pat[idx]

        return cls(bulk, Alphabet(r))


# ---------------------------------------------------------------------------
# occurrence counting


def _anchor_codes(digits: np.ndarray, m: int, r: int) -> np.ndarray:
    """Base-r code of the m-block anchored at each position (first digit MSB)."""
    W = len(digits) - m + 1
    if W <= 0:
        return np.zeros(0, dtype=np.int64)
    _check_code_bits(m, r)
    if r == 2 and 3 <= m <= 57:  # the m-pass loop is faster only for m <= 2
        return _packed_codes(digits, m, W)
    codes = np.zeros(W, dtype=np.int64)
    for j in range(m):
        codes *= r
        codes += digits[j : j + W]  # cast in buffered chunks, not one full-size copy
    return codes


def _check_code_bits(m: int, r: int) -> None:
    if r**m >= 2**62:
        raise DomainError(f"block codes for m={m}, r={r} exceed the 64-bit budget")


def _packed_codes(digits: np.ndarray, m: int, W: int) -> np.ndarray:
    """Binary anchor codes from the bit-packed digits, in one pass at any m.

    Word q is the big-endian uint64 of packed bytes q .. q+7, that is digits
    8q .. 8q+63; the block anchored at digit 8q+s is its bits s .. s+m-1
    from the top, which fit while s + m <= 64 for every phase s < 8.
    """
    rows = -(-W // 8)
    packed = np.zeros(rows + 8, dtype=np.uint8)
    bits = np.packbits(digits)
    packed[: len(bits)] = bits
    words = np.ndarray((rows,), dtype=">u8", buffer=packed, strides=(1,)).astype(np.uint64)
    shifts = np.arange(64 - m, 56 - m, -1, dtype=np.uint64)
    codes = words[:, None] >> shifts
    codes &= np.uint64((1 << m) - 1)
    return codes.view(np.int64).reshape(-1)[:W]


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


@dataclass(frozen=True, eq=False)
class BlockCounts:
    """The m-blocks anchored in a digit array: the base-r codes that occur,
    ascending and read-only, their `counts`, and the number of anchors."""

    total: int
    codes: np.ndarray
    counts: np.ndarray


# block_counts' memos, one entry each as in SymbolicSequence.digits: the
# statistics read one prefix at one m after another, so only the last count
# is asked for again, and every m <= M of that prefix comes from its table.
# An entry dies with its digit array.
# (key, weakref to the digit array, BlockCounts or M-block table)
_counts_last: tuple = (None, None, None)
_table_last: tuple = (None, None, None)

_TABLE_BITS = 16  # the top-length table holds at most 2^16 int64 counts, 512 KiB


def _frozen(digits: np.ndarray) -> bool:
    """Whether `digits` and every base up to its owner are read-only arrays."""
    while isinstance(digits, np.ndarray):
        if digits.flags.writeable:
            return False
        digits = digits.base
    return digits is None


def check_block_length(m: int, length: int) -> None:
    """Raise DomainError, naming m, unless 1 <= m <= length."""
    if m < 1:
        raise DomainError(f"block length m={m} must be >= 1")
    if m > length:
        raise DomainError(f"block length m={m} exceeds the {length} digits")


def _forget(ref: weakref.ref) -> None:
    """Drop the memo entries of a digit array that died."""
    global _counts_last, _table_last
    if _counts_last[1] is ref:
        _counts_last = (None, None, None)
    if _table_last[1] is ref:
        _table_last = (None, None, None)


def _top_length(n: int) -> int:
    """The largest M with 2^M <= min(2^16, n - M + 1), or 0: the length at
    which a table of the M-blocks of n binary digits is dense, as
    `block_histogram` counts it, and at most 512 KiB."""
    M = min(_TABLE_BITS, n.bit_length() - 1)
    while M > 0 and (1 << M) > n - M + 1:
        M -= 1
    return M


def _counts_from_table(table: np.ndarray, digits: np.ndarray, M: int, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-blocks of `digits` as `block_histogram` gives them, for m <= M,
    from `table`, the dense counts of the first len(digits) - M + 1 of its
    M-blocks by code.

    An m-block's code is the code of the M-block at its anchor // r^(M - m),
    so the table summed over runs of r^(M - m) codes counts every anchor but
    the last M - m, which start no M-block and are counted from the digits.
    """
    counts = table.reshape(r**m, -1).sum(1)
    np.add.at(counts, _anchor_codes(digits[len(digits) - M + 1 :], m, r), 1)
    codes = np.flatnonzero(counts)
    return codes, counts[codes]


def block_counts(digits: np.ndarray, m: int, r: int) -> BlockCounts:
    """Count the m-blocks anchored in `digits`; 1 <= m <= len(digits).

    The last count of an array that is read-only up to its owner, as
    `SymbolicSequence.digits` returns them, is memoised on (id, m, r); a hit
    must still be that same array.  Such an array, when binary, is counted
    once at its top length M (`_top_length`) into a table memoised the same
    way, and every m <= M is derived from it.  A writeable array, an
    alphabet above 2 (where the table would cost M multiply-add passes, not
    m) and m > M are counted at m, a writeable array every time.
    """
    global _counts_last, _table_last
    check_block_length(m, len(digits))
    key = (id(digits), m, r)
    frozen = _frozen(digits)
    if frozen and _counts_last[0] == key and _counts_last[1]() is digits:
        return _counts_last[2]
    M = _top_length(len(digits)) if frozen and r == 2 else 0
    if m <= M:
        if not (_table_last[0] == id(digits) and _table_last[1]() is digits):
            table = np.bincount(_anchor_codes(digits, M, 2), minlength=1 << M)
            _table_last = (id(digits), weakref.ref(digits, _forget), table)
        codes, counts = _counts_from_table(_table_last[2], digits, M, m, 2)
    else:
        codes, counts = block_histogram(_anchor_codes(digits, m, r), r**m)
    codes.setflags(write=False)
    counts.setflags(write=False)
    bc = BlockCounts(len(digits) - m + 1, codes, counts)
    if frozen:
        _counts_last = (key, weakref.ref(digits, _forget), bc)
    return bc


def prefix_frequency(seq: SymbolicSequence, B: Block, N: int) -> Fraction:
    """Fraction of anchors n in [1, N-|B|+1] where B occurs in seq."""
    bc = block_counts(seq.digits(1, N), len(B), seq.alphabet.size)
    code = B.encode()
    at = int(np.searchsorted(bc.codes, code))
    hits = int(bc.counts[at]) if at < len(bc.codes) and bc.codes[at] == code else 0
    return Fraction(hits, bc.total)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Occurrence fractions of the m-blocks anchored at a finite window."""

    m: int
    counts: dict[tuple[int, ...], int]
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise DomainError("empty window")
        if sum(self.counts.values()) != self.total:
            raise ValueError("block counts do not add up to the window size")

    def fraction(self, block) -> Fraction:
        key = tuple(block.digits) if isinstance(block, Block) else tuple(block)
        return Fraction(self.counts.get(key, 0), self.total)

    def fractions(self) -> dict[tuple[int, ...], Fraction]:
        return {k: Fraction(v, self.total) for k, v in self.counts.items()}


_DECODE_ROWS = 4096  # codes decoded at a time; decoding every code at once would raise peak memory


def _code_tuples(codes: np.ndarray, m: int, r: int) -> list[tuple[int, ...]]:
    """The m digits of each base-r code as a tuple of ints, first one MSB."""
    powers = r ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return list(map(tuple, ((codes[:, None] // powers) % r).tolist()))


def empirical_measure(seq: SymbolicSequence, m: int, N: int) -> EmpiricalMeasure:
    """Count the m-blocks anchored at the prefix [1, N-m+1].

    A key is the tuple of its code's high m - m // 2 digits joined with the
    tuple of its low m // 2 digits; only the halves that occur are decoded.
    """
    if N < m:
        raise DomainError(f"prefix {N} shorter than block length {m}")
    r = seq.alphabet.size
    bc = block_counts(seq.digits(1, N), m, r)
    low = m // 2
    counts = {}
    for start in range(0, len(bc.codes), _DECODE_ROWS):
        highs, lows = np.divmod(bc.codes[start : start + _DECODE_ROWS], r**low)
        high_codes, high_at = np.unique(highs, return_inverse=True)
        low_codes, low_at = np.unique(lows, return_inverse=True)
        high_t, low_t = _code_tuples(high_codes, m - low, r), _code_tuples(low_codes, low, r)
        keys = [high_t[a] + low_t[b] for a, b in zip(high_at.tolist(), low_at.tolist())]
        counts.update(zip(keys, bc.counts[start : start + _DECODE_ROWS].tolist()))
    return EmpiricalMeasure(m, counts, bc.total)


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

    return SymbolicSequence(bulk, Alphabet(R), horizon=horizon)


def base4_split(seq: SymbolicSequence) -> tuple[SymbolicSequence, SymbolicSequence]:
    """Split a base-4 stream into its two binary rows (floor(d/2), d mod 2)."""
    if seq.alphabet.size != 4:
        raise DomainError("base4_split needs an alphabet of size 4")
    row1 = SymbolicSequence(lambda s, c: (seq.digits(s, c) // 2).astype(np.uint8), BINARY, horizon=seq.horizon)
    row2 = SymbolicSequence(lambda s, c: (seq.digits(s, c) % 2).astype(np.uint8), BINARY, horizon=seq.horizon)
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
                raise DomainError("digit count required for an unbounded sequence")
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
        raise DomainError(".nseq supports alphabets up to size 256")
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
    return SymbolicSequence.from_array(digits, r=r)
