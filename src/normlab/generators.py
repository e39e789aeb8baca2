"""Random-access digit generators for the constructed sequences.

Provides the Gray-ordered Champernowne-like normal sequence kappa, the
sparse indicator number y and its reciprocal partner v, seeded Bernoulli
surrogates and the Champernowne reference.  Every generator is
deterministic: identical parameters yield identical digit functions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError, rational
from .grayorder import GrayOrdering
from .seqcore import Block, SymbolicSequence, tiled


# ---------------------------------------------------------------------------
# level schedule: n_1 = 2, n_{k+1} = n_k * 2^{n_k}

# n_1 .. n_4.  n_5 = 2^(2059 + 2^2059) has more bits than any Python int can
# hold, so every position beyond n_4 lies at level 4 (n_4 < p <= n_5).  The
# schedule is superincreasing (n_{k+1} > n_1 + ... + n_k), so finite-sum
# representations are unique.
LEVELS = (2, 8, 2048, 1 << 2059)
_N4 = LEVELS[3]


def finite_sums(n: int) -> list[int]:
    """The positive elements up to n of S = {0} union FS((n_k)), ascending.

    (0 belongs to the set but is not a 1-indexed position: it is y's
    integer part.)  Superincreasing levels make subset-mask numeric
    order equal to sum order, so the enumeration stops at the first sum
    above n.
    """
    sums = []
    for mask in range(1, 1 << len(LEVELS)):
        s = sum(v for i, v in enumerate(LEVELS) if mask >> i & 1)
        if s > n:
            break
        sums.append(s)
    return sums


# ---------------------------------------------------------------------------
# kappa: the Gray-ordered Champernowne-like normal sequence


@lru_cache(maxsize=None)
def _kappa_prefix_2048() -> np.ndarray:
    """First n_3 = 2048 digits: the words of the alternated orderings of
    levels 1 and 2, each started at the level's prefix."""
    level = np.array([0, 1], dtype=np.uint8)  # the level-1 seed block
    for n_k in LEVELS[:2]:
        words = GrayOrdering(n_k, Block(tuple(int(b) for b in level)), "alternated").words()
        level = ((words[:, None] >> np.arange(n_k - 1, -1, -1)) & 1).astype(np.uint8).ravel()
    level.setflags(write=False)
    return level


_KAPPA_PREFIX = _kappa_prefix_2048().tolist()  # bound once: kappa_digit reads one entry per probe

# (e, 2^e - 1, 2^e) of the levels n_k = 2^e whose chunks are at least as
# long as the prefix, top first
_KAPPA_LEVELS = tuple((n.bit_length() - 1, n - 1, n) for n in reversed(LEVELS[2:]))
_GRAY_PARITY = (0, 1, 1, 0)  # bit 0 of t ^ (t >> 1), t = 0 .. 3


def kappa_digit(p: int) -> int:
    """Digit p (1-indexed) of the sequence kappa.

    At a level with chunk length 2^e, position q = p - 1 lies at offset
    i = q & (2^e - 1) of chunk l = (q >> e) + 1, the l-th word of the
    alternated ordering started at the level prefix: prefix digit i XOR bit
    2^e - 1 - i of reflected-gray(l - 1), complemented for even l.  That
    bit is bit s = e + 2^e - 1 - i of q XOR bit s + 1, so one shift
    t = q >> s gives it, and l is even when bit e of q is 1, read as
    q & 2^e without shifting all of q; for e = 2059 the shift is
    astronomically large and t = 0.

    Every p <= n_4 past the prefix lies at level 3 (e = 11).  There, when
    r = p & 2047 is not 0, q shares every bit at or above bit 11 with p and
    i = r - 1, so the digit is read from p itself, with no copy p - 1:
    s = 2059 - r.  Multiples of 2048 and p > n_4 take the level loop.
    """
    if p <= 2048:
        if p < 1:
            raise DomainError(f"positions are 1-indexed, got {p}")
        return _KAPPA_PREFIX[p - 1]
    r = p & 2047
    if r and p <= _N4:
        return _GRAY_PARITY[p >> (2059 - r) & 3] ^ (p & 2048 != 0) ^ _KAPPA_PREFIX[r - 1]
    q = p - 1
    bit = 0
    for e, mask, high in _KAPPA_LEVELS:
        if q > mask:  # p > n_k = 2^e
            i = q & mask
            t = q >> (e + mask - i) & 3
            bit ^= t ^ (t >> 1) ^ ((q & high) != 0)
            q = i
    return (bit & 1) ^ _KAPPA_PREFIX[q]


def _level3_chunks(rows: np.ndarray, c: int) -> None:
    """Write level-3 chunks c + 1, c + 2, ... (each 2048 digits) into the
    rows of `rows`, a (chunks, 2048) uint8 array.

    Chunk l is the prefix XOR reflected-gray(l - 1), complemented for even
    l.  With l - 1 = H 2^62 + L, gray(l - 1) is gray(L), below 2^62, XOR
    ((H ^ (H >> 1)) << 62) | ((H & 1) << 61), a constant of the run of
    chunks sharing H: each run is the prefix XOR its constant in every row
    (complemented where L is odd), with gray(L) XORed into the last 64
    digits, all of its rows at once.
    """
    prefix = _kappa_prefix_2048()
    k = 0
    while k < len(rows):
        H, L = divmod(c + k, 1 << 62)
        run = rows[k : k + (1 << 62) - L]
        const = ((H ^ (H >> 1)) << 62) | ((H & 1) << 61)
        base = prefix ^ np.unpackbits(np.frombuffer(const.to_bytes(256, "big"), dtype=np.uint8))
        run[L & 1 :: 2] = base
        run[1 - (L & 1) :: 2] = base ^ 1
        Ls = np.arange(L, L + len(run), dtype=np.uint64)
        gray = (Ls ^ (Ls >> np.uint64(1))).astype(">u8")
        run[:, -64:] ^= np.unpackbits(gray.view(np.uint8).reshape(-1, 8), axis=1)
        k += len(run)


def _kappa_bulk(start: int, count: int) -> np.ndarray:
    """Digits start .. start+count-1 of kappa: the prefix, then the whole
    level-3 chunks of the range through a (chunks, 2048) view of the output
    and its partial end chunks through one scratch row, then level 4
    (p > n_4) digit by digit."""
    lo, hi = start, start + count - 1
    out = np.empty(count, dtype=np.uint8)
    if lo <= 2048:
        out[: min(hi, 2048) - lo + 1] = _kappa_prefix_2048()[lo - 1 : hi]
    a, b = max(lo, 2049), min(hi, _N4)
    if a <= b:
        first, last = -(-(a - 1) >> 11), b >> 11  # the whole chunks: positions 2048 first + 1 .. 2048 last
        if first < last:
            _level3_chunks(out[(first << 11) + 1 - lo : (last << 11) + 1 - lo].reshape(-1, 2048), first)
        row = np.empty((1, 2048), dtype=np.uint8)
        for c in {(a - 1) >> 11, (b - 1) >> 11}:
            if first <= c < last:
                continue
            _level3_chunks(row, c)
            s, e = max(a, (c << 11) + 1), min(b, (c + 1) << 11)
            out[s - lo : e - lo + 1] = row[0, s - 1 - (c << 11) : e - (c << 11)]
    for p in range(max(lo, _N4 + 1), hi + 1):  # level 4, chunks longer than the prefix
        out[p - lo] = kappa_digit(p)
    return out


def kappa_sequence() -> SymbolicSequence:
    return SymbolicSequence(_kappa_bulk, digit_fn=kappa_digit)


# ---------------------------------------------------------------------------
# y: indicator of the finite-sums set (coordinate 0 is the integer part)

# The level values are distinct powers of two, so a finite sum of them is a
# number whose binary digits all sit on level exponents.  Every
# representable p is below n_5, so the bits of n_1 .. n_4 decide membership.
_SUMS_MASK = sum(LEVELS)


def _y_bulk(start: int, count: int) -> np.ndarray:
    out = np.zeros(count, dtype=np.uint8)
    hi = start + count - 1
    for s in finite_sums(hi):
        if s >= start:
            out[s - start] = 1
    return out


_Y_TABLE = _y_bulk(0, 4096).tolist()  # digit p at entry p; entry 0 is never read


def _y_position_digit(p: int) -> int:
    """Digit p (1-indexed) of y_sequence: 1 exactly on the finite sums.  Every
    finite sum below n_4 is at most n_1 + n_2 + n_3 = 2058, so digits
    4096 <= p < n_4 are 0 and only p >= n_4 needs the mask test."""
    if p < 4096:
        if p < 1:
            raise DomainError(f"positions are 1-indexed, got {p}")
        return _Y_TABLE[p]
    if p < _N4:
        return 0
    return 1 if p | _SUMS_MASK == _SUMS_MASK else 0


def y_sequence() -> SymbolicSequence:
    """Fractional digits of y (positions >= 1)."""
    return SymbolicSequence(_y_bulk, digit_fn=_y_position_digit)


# ---------------------------------------------------------------------------
# v: the reciprocal partner of y


@lru_cache(maxsize=None)
def _v_pattern_4096() -> np.ndarray:
    pat = np.array([1, 1], dtype=np.uint8)
    for n_k, n_next in zip(LEVELS, LEVELS[1:3]):
        pat = np.tile(np.concatenate([pat, np.zeros(n_k, dtype=np.uint8)]), n_next // (2 * n_k))
    pat = np.concatenate([pat, np.zeros(2048, dtype=np.uint8)])
    pat.setflags(write=False)
    return pat  # (B_3 0^2048): the tile of the level-4 block, length 4096


_V_PATTERN = _v_pattern_4096().tolist()  # bound once: v_digit reads one entry per probe


def v_digit(p: int) -> int:
    """Digit p (1-indexed) of the block-doubling sequence v.

    The level-(k+1) block is (B_k 0^{n_k}) repeated, starting from B_1 = 11,
    so the level-4 block tiles (B_3 0^2048) and gives every p <= n_4.  A
    position beyond n_4 lies in the level-5 block, (B_4 0^{n_4}) repeated:
    its digit is that of (p - 1) mod 2 n_4 + 1 when that is <= n_4, else 0.
    """
    if p > _N4:
        p = (p - 1) % (2 * _N4) + 1
        if p > _N4:
            return 0
    elif p < 1:
        raise DomainError(f"positions are 1-indexed, got {p}")
    return _V_PATTERN[(p & 4095) - 1]  # p & 4095 == 0 reads entry -1, the last


def _v_bulk(start: int, count: int) -> np.ndarray:
    if start + count - 1 <= _N4:
        return tiled(_v_pattern_4096(), start, count)
    return np.fromiter((v_digit(p) for p in range(start, start + count)), dtype=np.uint8, count=count)


def v_sequence() -> SymbolicSequence:
    return SymbolicSequence(_v_bulk, digit_fn=v_digit)


# ---------------------------------------------------------------------------
# counter-based PRNG (SplitMix64 finalizer on seed + counter)

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """64-bit word #index (0-based) of the stream with the given seed.

    word(seed, i) = mix((seed + (i+1) * 0x9E3779B97F4A7C15) mod 2^64) where
    mix is z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31.  Pure integer arithmetic, hence
    bit-identical across runs and platforms.
    """
    z = (seed + (index + 1) * _SM_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return z ^ (z >> 31)


_WORD_CHUNK = 1 << 15  # words per chunk: its two 256 KiB uint64 buffers stay in L2 cache


def _vec_words(seed: int, first: int, count: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """splitmix64 words first .. first + count - 1 of the stream, in chunks,
    before the mix's last z ^= z >> 31 (`_finish`).

    Yields (i, z, t) with z the words first + i .. first + i + len(z) - 1,
    computed in place in one uint64 buffer (uint64 arithmetic wraps mod
    2^64) that the next chunk overwrites, and t a scratch buffer as long as
    z: reduce z before asking for more.  z >> 31 is below 2^33, so z and
    the finished words agree on bits 33 to 63.
    """
    steps = np.arange(min(count, _WORD_CHUNK), dtype=np.uint64)
    steps *= np.uint64(_SM_GAMMA)  # word k of a chunk starts from k * gamma past its first
    z, t = np.empty_like(steps), np.empty_like(steps)
    for i in range(0, count, _WORD_CHUNK):
        n = min(_WORD_CHUNK, count - i)
        zi, ti = z[:n], t[:n]
        np.add(steps[:n], np.uint64((seed + (first + i + 1) * _SM_GAMMA) & _MASK64), out=zi)
        for shift, mult in ((30, _SM_M1), (27, _SM_M2)):
            np.right_shift(zi, np.uint64(shift), out=ti)
            zi ^= ti
            zi *= np.uint64(mult)
        yield i, zi, ti


def _finish(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """z ^= z >> 31 in place, with t as scratch: `_vec_words`' chunk finished."""
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def derive_seed(seed: int, tag: str) -> int:
    """Stable per-purpose substream seed."""
    h = seed & _MASK64
    for ch in tag.encode():
        h = splitmix64(h, ch)
    return h


def bernoulli_stream(p, seed: int, N: int) -> SymbolicSequence:
    """Deterministic pseudorandom binary digits with marginal P(1) = p.

    Digit i is 1 iff the (i-1)-th 64-bit word is below T = floor(p * 2^64);
    exact, branch-simple, reproducible per (p, seed).  When 2^33 divides T
    (every dyadic p with denominator up to 2^31, 1/2 among them), that test
    reads only bits 33 to 63, where the unfinished words of `_vec_words`
    agree with the words, so it skips the finish.
    """
    pf = rational(p)  # floats are exact binary rationals
    if not 0 < pf < 1:
        raise DomainError(f"p must lie strictly between 0 and 1, got {p}")
    if N < 1:
        raise DomainError("N must be >= 1")
    T = (pf.numerator << 64) // pf.denominator
    threshold, finish = np.uint64(T), T % (1 << 33) != 0

    def bulk(start: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint8)
        for i, z, t in _vec_words(seed, start - 1, count):
            np.less(_finish(z, t) if finish else z, threshold, out=out[i : i + len(z)].view(bool))
        return out

    return SymbolicSequence(bulk, horizon=N)


def uniform_stream(r: int, seed: int, N: int) -> SymbolicSequence:
    """Uniform digits over {0..r-1}: one 64-bit word per digit reduced mod r
    (bias below 2^-56 for r <= 256, irrelevant at desk scale)."""
    if r < 2 or r > 256:
        raise DomainError("uniform_stream supports 2 <= r <= 256")
    if N < 1:
        raise DomainError("N must be >= 1")

    def bulk(start: int, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint8)
        for i, z, t in _vec_words(seed, start - 1, count):
            z, digits = _finish(z, t), out[i : i + len(z)]
            if r & (r - 1):
                # z - r * (z // r): numpy divides uint64 by a constant about
                # 3x faster than np.remainder reduces it
                np.floor_divide(z, np.uint64(r), out=t)
                t *= np.uint64(r)
                np.subtract(z, t, out=digits, casting="unsafe")
            else:  # a power of two: the low bits, with no divide
                np.bitwise_and(z, np.uint64(r - 1), out=digits, casting="unsafe")
        return out

    return SymbolicSequence(bulk, r, horizon=N)


# ---------------------------------------------------------------------------
# reference sequences


def champernowne_digits(r: int, N: int) -> SymbolicSequence:
    """Concatenation of the base-r representations of 1, 2, 3, ..."""
    cache: dict[str, object] = {"digits": np.zeros(0, dtype=np.uint8), "next": 1}

    def materialize(upto: int) -> np.ndarray:
        arr = cache["digits"]
        if len(arr) >= upto:
            return arr
        chunks = [arr]
        total = len(arr)
        value = cache["next"]
        while total < upto:
            digs = []
            v = value
            while v:
                v, d = divmod(v, r)
                digs.append(d)
            digs.reverse()
            chunks.append(np.array(digs, dtype=np.uint8 if r <= 256 else np.uint32))
            total += len(digs)
            value += 1
        arr = np.concatenate(chunks)
        cache["digits"] = arr
        cache["next"] = value
        return arr

    def bulk(start: int, count: int) -> np.ndarray:
        arr = materialize(start + count - 1)
        return arr[start - 1 : start - 1 + count].copy()

    return SymbolicSequence(bulk, r, horizon=N)
