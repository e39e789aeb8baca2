"""Blocks, symbolic sequences, and occurrence counting.

Digits lie in {0, ..., r - 1}; the alphabet size r >= 2 is a plain int.
Positions are 1-indexed throughout.  Counts and frequencies are exact
rationals (`fractions.Fraction`); callers convert to float only for display.
"""

from __future__ import annotations

import bisect
import struct
import weakref
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, within


def _check_r(r: int) -> None:
    if r < 2:
        raise DomainError(f"alphabet size must be >= 2, got {r}")


def _dtype_for(r: int):
    return np.uint8 if r <= 256 else np.uint32


@dataclass(frozen=True)
class Block:
    """Finite word over {0, ..., r - 1}; the unit of all counting."""

    digits: tuple[int, ...]
    r: int = 2

    def __post_init__(self):
        _check_r(self.r)
        if len(self.digits) < 1:
            raise DomainError("block must have length >= 1")
        for d in self.digits:
            if not 0 <= d < self.r:
                raise DomainError(f"digit {d} outside alphabet of size {self.r}")

    @classmethod
    def from_string(cls, text: str, r: int = 2) -> "Block":
        return cls(tuple(int(c) for c in text), r)

    @classmethod
    def from_code(cls, code: int, length: int, r: int = 2) -> "Block":
        """Decode a base-r integer code, first digit most significant."""
        digits = []
        for _ in range(length):
            code, d = divmod(code, r)
            digits.append(d)
        return cls(tuple(reversed(digits)), r)

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        if self.r <= 10:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def encode(self) -> int:
        """Base-r integer code, first digit most significant."""
        code = 0
        for d in self.digits:
            code = code * self.r + d
        return code

    def as_array(self) -> np.ndarray:
        return np.array(self.digits, dtype=_dtype_for(self.r))


class SymbolicSequence:
    """Deterministic random-access digit source.

    `bulk_fn(start, count)` is the one access primitive: it returns the
    digits in {0, ..., r - 1} at positions start .. start+count-1 as an
    array.  `digit(p)` reads one digit through it unless a per-digit rule
    `digit_fn` is given, which sequences need whose positions reach far
    beyond any array (p > 2^62).
    Positions run over 1 <= p <= horizon (horizon None = unbounded), and the
    same position always yields the same digit.

    An unbounded sequence with a rule binds `digit = digit_fn`, with no
    frame in between, so the rule must itself reject p < 1 with
    `DomainError(f"positions are 1-indexed, got {p}")`, the error
    `digits(p, 1)` raises.  `_digit_fn` is the rule `digit` calls: setting
    it, as a tracer does, rebinds `digit` too.

    `digits()` returns arrays that are read-only up to their owner (a view
    of a writeable array is copied) and keeps a weak reference to the last
    one: asked again for the same range while that array lives, it
    returns the same object, so the block counts memoised on that array are
    shared by every statistic that reads it, and no array outlives its users.
    """

    def __init__(
        self,
        bulk_fn: Callable[[int, int], np.ndarray],
        r: int = 2,
        horizon: Optional[int] = None,
        digit_fn: Optional[Callable[[int], int]] = None,
    ):
        _check_r(r)
        self._bulk_fn = bulk_fn
        self.r = r
        self.horizon = horizon
        self._direct = digit_fn is not None and horizon is None
        self._digit_fn = digit_fn or (lambda p: int(bulk_fn(p, 1)[0]))
        self._last: tuple = (None, None, None)  # (start, count, weakref to the digits)

    @property
    def _digit_fn(self) -> Callable[[int], int]:
        return self._rule

    @_digit_fn.setter
    def _digit_fn(self, fn: Callable[[int], int]) -> None:
        self._rule = fn
        if self._direct:
            self.digit = fn  # shadows the method below

    def _check_range(self, start: int, count: int) -> None:
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
        # bounded sequences and sequences without a rule
        self._check_range(p, 1)
        return self._rule(p)

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
        return cls(lambda s, c: data[s - 1 : s - 1 + c].copy(), r, horizon=len(data))

    @classmethod
    def periodic(cls, pattern, r: int = 2) -> "SymbolicSequence":
        if isinstance(pattern, Block):
            r = pattern.r
            pat = pattern.as_array()
        else:
            pat = np.asarray(list(pattern), dtype=_dtype_for(r))
        return cls(lambda s, c: tiled(pat, s, c), r)


def tiled(pat: np.ndarray, start: int, count: int) -> np.ndarray:
    """Digits start .. start+count-1 of the sequence that repeats `pat`
    from position 1, as a read-only array that owns its data: the pattern
    rotated to the start, then the filled part copied after itself until
    `count` digits are filled, with no index array, so any start, however
    large, costs the same."""
    k = (start - 1) % len(pat)
    out = np.empty(count, dtype=pat.dtype)
    filled = min(len(pat), count)
    out[:filled] = np.concatenate((pat[k:], pat[:k]))[:filled]
    while filled < count:  # filled is a multiple of len(pat) here
        more = min(filled, count - filled)
        out[filled : filled + more] = out[:more]
        filled += more
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# occurrence counting


def _anchor_codes(digits: np.ndarray, m: int, r: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Base-r code of the m-block anchored at each position (first digit MSB)
    as int64, or as uint32 for binary blocks of length 3 <= m <= 32: half
    the bytes for a sort.  Given `out`, an int64 array of at least W entries
    for the W anchors, the codes are int64 and written into it.  Binary
    codes for 3 <= m <= 57 come in phase-major order (`_packed_codes`), the
    rest in anchor order: no caller may rely on the order, only on the
    multiset of codes."""
    W = len(digits) - m + 1
    if W <= 0:
        return np.zeros(0, dtype=np.int64)
    _check_code_bits(m, r)
    if r == 2 and 3 <= m <= 57:  # the m-pass loop is faster only for m <= 2
        return _packed_codes(digits, m, W, out)
    codes = np.empty(W, dtype=np.int64) if out is None else out[:W]
    codes.fill(0)
    for j in range(m):
        codes *= r
        codes += digits[j : j + W]  # cast in buffered chunks, not one full-size copy
    return codes


def _check_code_bits(m: int, r: int) -> None:
    if r**m >= 2**62:
        raise DomainError(f"block codes for m={m}, r={r} exceed the 64-bit budget")


def _packed_codes(digits: np.ndarray, m: int, W: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Binary anchor codes from the bit-packed digits at any m, as uint32
    while m <= 32, else int64, or into the int64 `out` when given, with no
    full-size uint64 temporary, in phase-major order: the codes of anchors
    s, s + 8, s + 16, ... (0-based) for phase s = 0, then for s = 1, and so
    on, each phase one contiguous run.  No caller may rely on anchor order.

    Word q is the big-endian uint64 of packed bytes q .. q+7, that is digits
    8q .. 8q+63; the block anchored at digit 8q+s is its bits s .. s+m-1
    from the top, which fit while s + m <= 64 for every phase s < 8.
    """
    rows = -(-W // 8)
    packed = np.zeros(rows + 8, dtype=np.uint8)
    bits = np.packbits(digits)
    packed[: len(bits)] = bits
    words = np.ndarray((rows,), dtype=">u8", buffer=packed, strides=(1,)).astype(np.uint64)
    codes = np.empty(W, dtype=np.uint32 if m <= 32 else np.int64) if out is None else out[:W]
    mask, at = np.uint64((1 << m) - 1), 0
    for s in range(min(8, W)):
        n = (W - s + 7) // 8  # the anchors 8q + s below W
        np.bitwise_and(words[:n] >> np.uint64(64 - m - s), mask, out=codes[at : at + n], casting="unsafe")
        at += n
    return codes


def block_histogram(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block codes that occur, ascending, as int64, and their int64
    counts: `codes` is sorted in place and one bool mask marks where each
    run starts, so memory stays linear in len(codes) however many codes are
    possible, with no int64 array beyond the two returned."""
    codes.sort()
    first = np.empty(len(codes), dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    counts = np.flatnonzero(first)  # each run's start, then its length, in place
    observed = codes[counts].astype(np.int64, copy=False)
    np.subtract(counts[1:], counts[:-1], out=counts[:-1])
    counts[-1:] = len(codes) - counts[-1:]
    return observed, counts


_TABLE_CHUNK = 1 << 17  # anchors coded at a time, 1 MiB of codes; 2^16 was about 10 % slower on 2^20 digits


def code_table(digits: np.ndarray, M: int, r: int, head: int) -> np.ndarray:
    """Dense int64 counts, by code, of the M-blocks anchored at the first
    `head` positions of `digits`, coding _TABLE_CHUNK anchors at a time, or
    r^M / 8 when that is more, so that no chunk's bincount is mostly the
    zeroing and adding of a table, and a chunk's codes add an eighth of a
    table to the table and one bincount (r = 4, M = 12 on 2^25 digits: 2.7 s
    and a 272 MiB tracemalloc peak, against 15 s and 257 MiB in chunks of
    2^17)."""
    table = np.zeros(r**M, dtype=np.int64)
    step = max(_TABLE_CHUNK, r**M // 8)
    codes = np.empty(min(step, head), dtype=np.int64)  # every chunk's codes, so bincount reads them uncast
    for start in range(0, head, step):
        stop = min(start + step, head)
        table += np.bincount(_anchor_codes(digits[start : stop + M - 1], M, r, codes), minlength=r**M)
    return table


@dataclass(frozen=True, eq=False)
class BlockCounts:
    """The m-blocks anchored in a digit array: the base-r codes that occur,
    ascending and read-only, their `counts`, and the number of anchors."""

    total: int
    codes: np.ndarray
    counts: np.ndarray


# block_counts' memo, one entry as in SymbolicSequence.digits: the
# statistics read one prefix at one m after another, and every m <= M of
# that prefix comes from its M-block table.  The entry dies with its digit
# array.  (id of the digit array, weakref to it, M-block table)
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
    """Drop the memo entry of a digit array that died."""
    global _table_last
    if _table_last[1] is ref:
        _table_last = (None, None, None)


def _top_length(n: int) -> int:
    """The largest M with 2^M <= min(2^16, n - M + 1), or 0: the length at
    which a table of the M-blocks of n binary digits is dense (no more
    codes than anchors) and at most 512 KiB."""
    M = min(_TABLE_BITS, n.bit_length() - 1)
    while M > 0 and (1 << M) > n - M + 1:
        M -= 1
    return M


def _memo_length(digits: np.ndarray, r: int) -> int:
    """The top length M whose table `block_counts` memoises for `digits`,
    answering every m <= M from it, or 0 when it counts at m every time (a
    writeable array or an alphabet above 2)."""
    return _top_length(len(digits)) if r == 2 and _frozen(digits) else 0


def _counts_from_table(table: np.ndarray, digits: np.ndarray, M: int, m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-blocks of `digits`, codes ascending with counts, for m <= M,
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

    A binary array that is read-only up to its owner, as
    `SymbolicSequence.digits` returns them, is counted once at its top
    length M (`_top_length`) into a table memoised on its id; a hit must
    still be that same array, and every m <= M is derived from the table.
    A writeable array, an alphabet above 2 (where the table would cost M
    multiply-add passes, not m) and m > M are counted at m, every time:
    densely by `code_table` when r^m <= the anchors, else by
    `block_histogram`.
    """
    global _table_last
    check_block_length(m, len(digits))
    M = _memo_length(digits, r)
    if m <= M:
        if not (_table_last[0] == id(digits) and _table_last[1]() is digits):
            table = code_table(digits, M, 2, len(digits) - M + 1)
            _table_last = (id(digits), weakref.ref(digits, _forget), table)
        codes, counts = _counts_from_table(_table_last[2], digits, M, m, 2)
    elif r**m <= len(digits) - m + 1:  # dense: a table at m itself
        codes, counts = _counts_from_table(code_table(digits, m, r, len(digits) - m + 1), digits, m, m, r)
    else:
        codes, counts = block_histogram(_anchor_codes(digits, m, r))
    codes.setflags(write=False)
    counts.setflags(write=False)
    return BlockCounts(len(digits) - m + 1, codes, counts)


def prefix_frequency(seq: SymbolicSequence, B: Block, N: int) -> Fraction:
    """Fraction of anchors n in [1, N-|B|+1] where B occurs in seq.

    B's m digits are compared with the first N digits at each of its m
    shifts and the comparisons ANDed: m passes over the prefix, with no
    table of the other blocks and no base-r code of B.
    """
    digits = seq.digits(1, N)
    check_block_length(len(B), N)
    W = N - len(B) + 1
    hits = digits[:W] == B.digits[0]
    for j, d in enumerate(B.digits[1:], 1):
        hits &= digits[j : j + W] == d
    return Fraction(int(np.count_nonzero(hits)), W)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Occurrence fractions of the m-blocks anchored at a finite window."""

    m: int
    counts: Mapping[tuple[int, ...], int]
    total: int

    def __post_init__(self):
        if self.total < 1:
            raise DomainError("empty window")

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


class MeasureCounts(Mapping):
    """Read-only view of the m-block counts in a `BlockCounts`, keyed by
    digit tuple, in ascending code order.  Iteration and `items()` decode
    _DECODE_ROWS codes at a time: each key is the tuple of its code's high
    m - m // 2 digits joined with the tuple of its low m // 2 digits, and
    only the halves that occur are decoded.  A lookup encodes its key and
    bisects the codes, so `dict(view)` makes one lookup per key; a key whose
    digits are not Python or numpy integers is missing."""

    def __init__(self, bc: BlockCounts, m: int, r: int):
        self._bc, self._m, self._r = bc, m, r
        self._codes, self._counts = memoryview(bc.codes), memoryview(bc.counts)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, key) -> int:
        code = 0
        if not (isinstance(key, tuple) and len(key) == self._m):
            raise KeyError(key)
        for d in key:  # int(d): a numpy digit would wrap the code in its own dtype
            if not (isinstance(d, (int, np.integer)) and 0 <= d < self._r):
                raise KeyError(key)
            code = code * self._r + int(d)
        at = bisect.bisect_left(self._codes, code)
        if at == len(self._codes) or self._codes[at] != code:
            raise KeyError(key)
        return self._counts[at]

    def _pairs(self):
        m, r, low = self._m, self._r, self._m // 2
        for start in range(0, len(self._codes), _DECODE_ROWS):
            highs, lows = np.divmod(self._bc.codes[start : start + _DECODE_ROWS], r**low)
            high_codes, high_at = np.unique(highs, return_inverse=True)
            low_codes, low_at = np.unique(lows, return_inverse=True)
            high_t, low_t = _code_tuples(high_codes, m - low, r), _code_tuples(low_codes, low, r)
            keys = [high_t[a] + low_t[b] for a, b in zip(high_at.tolist(), low_at.tolist())]
            yield from zip(keys, self._bc.counts[start : start + _DECODE_ROWS].tolist())

    def __iter__(self):
        return (key for key, _ in self._pairs())

    def items(self) -> ItemsView:
        return _DecodedItems(self)


class _DecodedItems(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


def empirical_measure(seq: SymbolicSequence, m: int, N: int) -> EmpiricalMeasure:
    """Count the m-blocks anchored at the prefix [1, N-m+1]; the measure's
    `counts` is a `MeasureCounts` view of them."""
    if N < m:
        raise DomainError(f"prefix {N} shorter than block length {m}")
    r = seq.r
    bc = block_counts(seq.digits(1, N), m, r)
    return EmpiricalMeasure(m, MeasureCounts(bc, m, r), bc.total)


def zip_product(seqs: Sequence[SymbolicSequence]) -> SymbolicSequence:
    """Multirow sequence: digit(p) encodes the column of row digits at p.

    Row-major encoding, first row most significant.
    """
    if not seqs:
        raise DomainError("need at least one row")
    if len(seqs) == 1:
        return seqs[0]
    R = 1
    for s in seqs:
        R *= s.r
    horizons = [s.horizon for s in seqs if s.horizon is not None]
    horizon = min(horizons) if horizons else None

    def bulk(start: int, c: int) -> np.ndarray:
        out = np.zeros(c, dtype=_dtype_for(R))
        for s in seqs:
            out *= s.r
            out += s.digits(start, c).astype(_dtype_for(R))
        return out

    return SymbolicSequence(bulk, R, horizon=horizon)


# ---------------------------------------------------------------------------
# bit-packed sequence files

_NSEQ_MAGIC = b"NSEQ"
_NSEQ_VERSION = 0x01


def write_nseq(path, seq: SymbolicSequence, count: Optional[int] = None) -> None:
    """Write the first `count` digits of `seq` (its horizon when None) to an
    .nseq file.

    Header: magic "NSEQ", version byte 0x01, alphabet size (uint16 LE),
    digit count (uint64 LE).  Payload is bit-packed LSB-first within bytes
    for r=2, one byte per digit for 2 < r <= 256.
    """
    if count is None:
        if seq.horizon is None:
            raise DomainError("digit count required for an unbounded sequence")
        count = seq.horizon
    digits, r = seq.digits(1, count), seq.r
    if r > 256:
        raise DomainError(".nseq supports alphabets up to size 256")
    header = _NSEQ_MAGIC + struct.pack("<BHQ", _NSEQ_VERSION, r, len(digits))
    if r == 2:
        payload = np.packbits(digits.astype(np.uint8, copy=False), bitorder="little").tobytes()
    else:
        payload = digits.astype(np.uint8, copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_nseq(path) -> SymbolicSequence:
    """Load an .nseq file as an array-backed sequence.  The digit count is
    budgeted before the payload is read, and trailing bytes are refused."""
    with open(path, "rb") as fh:
        header = fh.read(15)
        if header[:4] != _NSEQ_MAGIC:
            raise DomainError("not an .nseq file (bad magic)")
        if len(header) < 15:
            raise DomainError(f"truncated .nseq header: {len(header)} of 15 bytes")
        version, r, n = struct.unpack("<BHQ", header[4:])
        if version != _NSEQ_VERSION:
            raise DomainError(f"unsupported .nseq version {version}")
        if not 2 <= r <= 256:
            raise DomainError(f".nseq alphabet size {r} outside 2..256")
        within("digit", n)
        size = (n + 7) // 8 if r == 2 else n
        payload = fh.read(size)
        if len(payload) < size:
            raise DomainError("truncated .nseq payload")
        if fh.read(1):
            raise DomainError(f"trailing bytes after the {size}-byte .nseq payload of {n} digits")
    raw = np.frombuffer(payload, dtype=np.uint8)
    digits = np.unpackbits(raw, count=n, bitorder="little") if r == 2 else raw
    return SymbolicSequence.from_array(digits, r=r)
