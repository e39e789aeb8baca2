"""Exact fixed-point binary arithmetic with certified error bounds.

A FixedPointNumber is sign * mantissa / 2^frac_bits where frac_bits =
certified digits N plus guard digits G, together with an error radius in
units of one ulp (2^-frac_bits).  The radius is tracked through every
operation and never understated; `certified_digit_count` reports how many
leading fractional digits are provably exact digits of the represented
real (it shrinks when the guard region sits in a carry-ambiguous run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError, within
from .seqcore import SymbolicSequence

DEFAULT_GUARD_BITS = 64


def _frac_bits(N: int, G: int) -> int:
    """N + G, checked against the fixed-point budget before anything is allocated."""
    within("fixed-point", N + G)
    return N + G


def _bits_to_int(bits: np.ndarray) -> int:
    """MSB-first digit array -> integer."""
    n = len(bits)
    if n == 0:
        return 0
    word = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return word >> ((-n) % 8)


def _int_to_bits(word: int, count: int) -> np.ndarray:
    """The low `count` bits of an integer -> MSB-first digit array."""
    word &= (1 << count) - 1
    raw = word.to_bytes((count + 7) // 8, "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[-count:]


# ---------------------------------------------------------------------------
# exact products of large mantissas

# The smaller operand needs 2^14 bits, and 1/16 of the larger's, before the
# FFT beats CPython's Karatsuba `*` (2 cores, numpy 2.4: 2^13 bits 0.11 vs
# 0.18 ms, 2^14 bits 0.38 vs 0.30 ms, 2^20 bits 236 vs 44 ms; 2^20 by 2^15
# bits 28 vs 44 ms, 2^20 by 2^16 bits 37 vs 39 ms).
_FFT_MIN_BITS = 1 << 14

_UNIT_ROUNDOFF = 2.0**-53
_TWIDDLE_ERR = 2.0**-50  # beta: 8 ulps on each computed root of unity


def _fft_error_bound(size_log2: int, norm2_a: float, norm2_b: float) -> float:
    """Percival's bound (Math. Comp. 72, 2003, Thm. 5.1) on the largest error
    of a cyclic convolution of length 2^size_log2 computed by FFT in double
    precision: ||a||_2 ||b||_2 ((1+e)^3n (1+e sqrt5)^(3n+1) (1+beta)^3n - 1)
    with n = size_log2, e the unit roundoff and beta the twiddle error.  The
    real FFT of length 2^n is a complex one of length 2^(n-1) plus one
    butterfly pass, so n levels count all of its passes."""
    k = 3 * size_log2
    growth = math.expm1(
        k * math.log1p(_UNIT_ROUNDOFF)
        + (k + 1) * math.log1p(_UNIT_ROUNDOFF * math.sqrt(5))
        + k * math.log1p(_TWIDDLE_ERR)
    )
    return math.sqrt(norm2_a * norm2_b) * growth


def _limb_spectrum(x: int, nbytes: int, size: int) -> tuple[np.ndarray, float]:
    """rfft of x's bytes (little-endian 8-bit limbs) zero-padded to `size`,
    and the limbs' squared 2-norm.  The norm is exact: every term and
    partial sum is an integer below 2^53.  The size/2 + 1 complex outputs
    overwrite the limbs' own buffer."""
    buf = np.zeros(size + 2)
    limbs = buf[:nbytes]
    limbs[:] = np.frombuffer(x.to_bytes(nbytes, "little"), dtype=np.uint8)
    norm2 = float(limbs @ limbs)
    spectrum = buf.view(np.complex128)
    np.fft.rfft(buf[:size], out=spectrum)
    return spectrum, norm2


def _product(a: int, b: int) -> int:
    """a * b for a, b >= 0, exactly.

    Large operands are multiplied as polynomials in 2^8: the limb sequences
    are convolved by one real FFT of the next power of two, each coefficient
    is rounded to the nearest integer, and the coefficients (each below
    min(limbs) * 255^2) are carried back by byte planes.  Rounding is exact
    when the convolution error is below 1/2; the result is returned only
    when Percival's bound, computed from these operands' limb norms, is
    below 1/4.  With 8-bit limbs the bound is about 2e-4 at 2^20 bits and
    0.05 for two all-ones 2^26-bit operands.
    """
    small, big = sorted((a.bit_length(), b.bit_length()))
    if small < max(_FFT_MIN_BITS, big >> 4):
        return a * b
    la, lb = (a.bit_length() + 7) // 8, (b.bit_length() + 7) // 8
    n_coeffs = la + lb - 1
    size = 1 << (n_coeffs - 1).bit_length()
    fa, norm2_a = _limb_spectrum(a, la, size)
    fb, norm2_b = _limb_spectrum(b, lb, size)
    if _fft_error_bound(size.bit_length() - 1, norm2_a, norm2_b) >= 0.25:
        return a * b
    fa *= fb
    del fb
    c = np.fft.irfft(fa, size)
    del fa
    np.rint(c, out=c)
    planes = c[:n_coeffs].astype("<i8").view(np.uint8).reshape(-1, 8)
    n_planes = ((min(la, lb) * 255 * 255).bit_length() + 7) // 8
    return sum(int.from_bytes(planes[:, k].tobytes(), "little") << (8 * k) for k in range(n_planes))


@dataclass(frozen=True)
class FixedPointNumber:
    """sign * mant * 2^-frac_bits, known to within err_ulps * 2^-frac_bits."""

    mant: int
    frac_bits: int
    guard_bits: int = DEFAULT_GUARD_BITS
    sign: int = 1
    err_ulps: int = 0

    def __post_init__(self):
        if self.mant < 0:
            raise ValueError("mantissa is stored unsigned; use sign")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.guard_bits < 0 or self.guard_bits > self.frac_bits:
            raise DomainError("need 0 <= guard_bits <= frac_bits")
        if self.err_ulps < 0:
            raise ValueError("error bound cannot be negative")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sequence(
        cls,
        seq: SymbolicSequence,
        N: int,
        G: int = DEFAULT_GUARD_BITS,
        integer_part: int = 0,
        exact: bool = False,
    ) -> "FixedPointNumber":
        """0.d1 d2 ... truncated at N+G fractional digits (plus an integer
        part).  err is 1 ulp for the dropped tail unless `exact` asserts the
        sequence is zero beyond the horizon."""
        if seq.alphabet.size != 2:
            raise DomainError("fixed-point numbers are binary")
        F = _frac_bits(N, G)
        take = F if seq.horizon is None else min(F, seq.horizon)
        bits = seq.digits(1, take)
        mant = _bits_to_int(bits)
        mant <<= F - take
        mant += integer_part << F
        if take == F:
            # dropped tail (digits beyond F, if any) is strictly below 1 ulp
            err = 0 if (seq.horizon is not None and seq.horizon <= F) else 1
        else:
            # digits beyond the horizon are unknown unless asserted zero
            err = 0 if exact else 1 << (F - take)
        return cls(mant, F, G, 1, err)

    # -- views ---------------------------------------------------------------

    @property
    def certified_bits(self) -> int:
        return self.frac_bits - self.guard_bits

    def value(self) -> Fraction:
        """The stored point value (center of the certified interval)."""
        return Fraction(self.sign * self.mant, 1 << self.frac_bits)

    def error_bound(self) -> Fraction:
        return Fraction(self.err_ulps, 1 << self.frac_bits)

    def error_bound_log2(self) -> Optional[int]:
        """Smallest integer e with error bound <= 2^e (None when exact)."""
        if self.err_ulps == 0:
            return None
        e = self.err_ulps.bit_length() - 1
        if self.err_ulps & (self.err_ulps - 1):
            e += 1  # not a power of two: round the exponent up
        return e - self.frac_bits

    def integer_part(self) -> int:
        return self.mant >> self.frac_bits

    def fraction_mant(self) -> int:
        return self.mant & ((1 << self.frac_bits) - 1)

    def certified_digit_count(self) -> int:
        """Largest t such that every real in [value - err, value + err] has
        the same first t fractional digits as the stored mantissa (digits of
        the magnitude).  Capped at the certified target N.

        lo and hi agree on their first t fractional digits exactly when
        their highest differing bit lies below position frac_bits - t."""
        lo = self.mant - self.err_ulps
        hi = self.mant + self.err_ulps
        if lo < 0:
            return 0
        return max(0, min(self.certified_bits, self.frac_bits - (lo ^ hi).bit_length()))

    def fraction_digits(self, count: int, certified_only: bool = True) -> np.ndarray:
        """First `count` fractional digits of the magnitude, MSB first."""
        if certified_only and count > self.certified_digit_count():
            raise DomainError(
                f"asked for {count} digits, certified {self.certified_digit_count()}"
            )
        if count > self.frac_bits:
            raise DomainError("beyond stored precision")
        return _int_to_bits(self.fraction_mant() >> (self.frac_bits - count), count)

    def __repr__(self) -> str:
        ip = self.integer_part()
        lead = "".join(map(str, self.fraction_digits(min(16, self.frac_bits), False)))
        s = "-" if self.sign < 0 else ""
        return (
            f"FixedPointNumber({s}{ip}.{lead}..., frac_bits={self.frac_bits}, "
            f"err_ulps={self.err_ulps})"
        )


def _signed(x: FixedPointNumber) -> int:
    return x.sign * x.mant


def _aligned(a: FixedPointNumber, b: FixedPointNumber):
    F = max(a.frac_bits, b.frac_bits)
    G = max(a.guard_bits, b.guard_bits)
    am = _signed(a) << (F - a.frac_bits)
    bm = _signed(b) << (F - b.frac_bits)
    ae = a.err_ulps << (F - a.frac_bits)
    be = b.err_ulps << (F - b.frac_bits)
    return F, G, am, bm, ae, be


def carry_add(a: FixedPointNumber, b: FixedPointNumber) -> FixedPointNumber:
    """Exact sum as big-integer addition of the digit strings, aligned to
    the larger precision of the two."""
    F, G, am, bm, ae, be = _aligned(a, b)
    v = am + bm
    sign = 1 if v >= 0 else -1
    return FixedPointNumber(abs(v), F, G, sign, ae + be)


def mod1(x: FixedPointNumber) -> FixedPointNumber:
    """Fractional-part reduction onto [0, 1)."""
    m = x.fraction_mant()
    if x.sign < 0 and m != 0:
        m = (1 << x.frac_bits) - m
    return FixedPointNumber(m, x.frac_bits, x.guard_bits, 1, x.err_ulps)


def neg(x: FixedPointNumber) -> FixedPointNumber:
    """Mod-1 negation: the two's complement of the fraction, so the digits
    before the final ulp are the mirror of the digits of x."""
    if x.sign < 0 or x.integer_part() != 0:
        raise DomainError("neg expects a value in [0, 1)")
    m = x.fraction_mant()
    out = 0 if m == 0 else (1 << x.frac_bits) - m
    return FixedPointNumber(out, x.frac_bits, x.guard_bits, 1, x.err_ulps)


def mul_rational(x: FixedPointNumber, p: int, q: int, N: int, G: Optional[int] = None) -> FixedPointNumber:
    """x * p / q at N (+G) fractional bits, truncated toward zero (adds at
    most 1 ulp).

    Exact and linear-time: the product mant * |p| is first shifted to the
    output scale (floor(a / (q 2^k)) = floor(floor(a / 2^k) / q) for
    k = x.frac_bits - (N+G) >= 0, a left shift for k < 0), then divided by
    the small q.  The error radius is ceil(ceil(err * |p| / 2^k) / q), plus
    one ulp when any dropped bit or the remainder mod q is nonzero.
    """
    if q == 0:
        raise DomainError("q must be a positive integer, got 0")
    if q < 0:
        raise DomainError("q must be positive; carry the sign in p")
    if p == 0:
        raise DomainError("p must be nonzero")
    Gout = x.guard_bits if G is None else G
    F = N + Gout
    a = x.mant * abs(p)
    e = x.err_ulps * abs(p)
    k = x.frac_bits - F
    if k >= 0:
        inexact = a & ((1 << k) - 1)
        a >>= k
        e = -((-e) >> k)  # ceil division by 2^k
    else:
        inexact = 0
        a <<= -k
        e <<= -k
    mant, rem = divmod(a, q)
    err = -((-e) // q)  # ceil
    if inexact or rem:
        err += 1
    sign = x.sign * (1 if p > 0 else -1)
    return FixedPointNumber(mant, F, Gout, sign, err)


def mul(x: FixedPointNumber, y: FixedPointNumber, N: int, G: Optional[int] = None) -> FixedPointNumber:
    """Full product at N (+G) fractional bits.

    Certified error <= |x|*err_y + |y|*err_x + err_x*err_y + 1 ulp of
    truncation; with operand errors at 1 ulp this is within the
    (|x| + |y| + 1) * 2^-(N+G) envelope.  Products of large mantissas go
    through the exact FFT product `_product`.
    """
    Gout = max(x.guard_bits, y.guard_bits) if G is None else G
    F = N + Gout
    if x.frac_bits < F or y.frac_bits < F:
        raise DomainError(
            f"operands carry {x.frac_bits} and {y.frac_bits} fractional bits, need >= {F}"
        )
    shift = x.frac_bits + y.frac_bits - F
    prod = _product(x.mant, y.mant)
    mant = prod >> shift
    err_scaled = (
        _product(x.mant, y.err_ulps) + _product(y.mant, x.err_ulps) + _product(x.err_ulps, y.err_ulps)
    )
    err = -((-err_scaled) >> shift) if err_scaled else 0  # ceil division by 2^shift
    if prod & ((1 << shift) - 1):
        err += 1
    return FixedPointNumber(mant, F, Gout, x.sign * y.sign, err)


def shifted_sum(
    seq: SymbolicSequence,
    shifts: Iterable[int],
    N: int,
    G: int = DEFAULT_GUARD_BITS,
) -> FixedPointNumber:
    """Sum of 2^-s * (0.seq) over the shifts s, by big-integer accumulation.

    Shifts beyond N+G are dropped; each omitted term is below one ulp and
    the omitted shifts are distinct integers, so the dropped tail is below
    2^(1-(N+G)) and is covered by 2 ulps on top of the per-copy truncation.
    """
    F = _frac_bits(N, G)
    svals = sorted(set(int(s) for s in shifts))
    if any(s < 0 for s in svals):
        raise DomainError("shifts must be >= 0")
    kept = [s for s in svals if s < F]
    omitted = len(svals) - len(kept)
    if not kept:
        return FixedPointNumber(0, F, G, 1, 2 if omitted else 0)
    top = F - kept[0]
    bits = seq.digits(1, top) if (seq.horizon is None or seq.horizon >= top) else None
    if bits is None:
        bits = np.zeros(top, dtype=np.uint8)
        h = seq.horizon
        bits[:h] = seq.digits(1, h)
    full = _bits_to_int(bits)  # the copy at shift s is its first F - s digits
    acc = 0
    err = 2 if omitted else 0
    for s in kept:
        acc += full >> (s - kept[0])
        if seq.horizon is None or seq.horizon > F - s:
            err += 1  # this copy was truncated; exact otherwise
    return FixedPointNumber(acc, F, G, 1, err)


# ---------------------------------------------------------------------------
# streaming carry addition


def stream_carry_add(
    s1: SymbolicSequence,
    s2: SymbolicSequence,
    N: int,
    lookahead_cap: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Digits 1..N of the carry sum of two binary digit streams.

    The carry into position n is resolved by scanning right from n+1 for
    the first column whose digit sum differs from 1: sum 2 means carry 1,
    sum 0 means carry 0.  Positions whose scan exceeds `lookahead_cap` are
    flagged ambiguous (second return value); their digit is emitted with
    carry 0 but carries no certificate.  The rows of N + lookahead_cap
    digits are added as two integers, and every scan is one bitwise AND.
    """
    if s1.alphabet.size != 2 or s2.alphabet.size != 2:
        raise DomainError("carry addition is defined for binary sequences")
    if N < 1:
        raise DomainError("N must be >= 1")
    if lookahead_cap < 0:
        raise DomainError(f"lookahead_cap must be >= 0, got {lookahead_cap}")
    M = N + lookahead_cap
    for s in (s1, s2):
        if s.horizon is not None and s.horizon < M:
            raise DomainError(
                f"need digits up to {M} (= N + lookahead), horizon is {s.horizon}"
            )
    a = _bits_to_int(s1.digits(1, M))
    b = _bits_to_int(s2.digits(1, M))
    # Bit i of an M-digit row is column M - 1 - i, so the columns right of a
    # column sit at its lower bits.
    ones = a ^ b  # columns with digit sum 1
    carry = (a + b) ^ ones  # carry into each column from the finite rows
    # A column is ambiguous when the next lookahead_cap columns all have sum
    # 1: the AND of ones << 1 .. ones << cap, built from run = the AND of
    # ones << 0 .. ones << span-1 by doubling span (cap = 0 leaves -1: every
    # column).  Any other column meets a sum != 1 inside the rows, and the
    # first one decides its carry as in the infinite sum.
    ambiguous, run, span, shift, rest = -1, ones, 1, 1, lookahead_cap
    while rest:
        if rest & 1:
            ambiguous &= run << shift
            shift += span
        rest >>= 1
        if rest:
            run &= run << span
            span *= 2
    digits = ones ^ (carry & ~ambiguous)
    return (
        _int_to_bits(digits >> lookahead_cap, N),
        _int_to_bits(ambiguous >> lookahead_cap, N).view(bool),
    )
