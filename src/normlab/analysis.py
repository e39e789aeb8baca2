"""Entropy, complexity, normality, and switch statistics of digit prefixes.

All quantities are prefix-scale: they are computed exactly on a finite
window and labeled as such.  The infinite-limit quantities they estimate
are not computable, so curves over a ladder of window lengths stand in for
lower/upper limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetError
from .seqcore import Block, LengthError, SymbolicSequence, _anchor_codes, _check_code_bits, block_counts, block_histogram

ENUM_BUDGET_BITS = 24


def _digits_of(seq, L: Optional[int] = None) -> np.ndarray:
    if isinstance(seq, np.ndarray):
        return seq if L is None else seq[:L]
    if isinstance(seq, SymbolicSequence):
        if L is None:
            if seq.horizon is None:
                raise LengthError("prefix length required for an unbounded sequence")
            L = seq.horizon
        return seq.digits(1, L)
    arr = np.asarray(seq, dtype=np.uint8)
    return arr if L is None else arr[:L]


def _alphabet_size(seq, default: int = 2) -> int:
    return seq.alphabet.size if isinstance(seq, SymbolicSequence) else default


def combinatorial_entropy(B, n: int, r: Optional[int] = None) -> float:
    """Per-symbol entropy of the empirical n-block distribution of B, in bits.

    Accepts a Block or a digit array; ranges over the anchored n-windows.
    """
    if isinstance(B, Block):
        digits = B.as_array()
        r = B.alphabet.size
    else:
        digits = np.asarray(B, dtype=np.uint8)
        r = r or 2
    _check_block_length(n, len(digits))
    return _entropy(block_counts(digits, n, r).counts, n)


def _check_block_length(n: int, length: int) -> None:
    if n < 1:
        raise LengthError(f"block length n={n} must be >= 1")
    if n > length:
        raise LengthError(f"n={n} exceeds block length {length}")


def _entropy(counts: np.ndarray, n: int) -> float:
    """Per-symbol entropy in bits of n-block counts in ascending code order
    (the order fixes the float sum)."""
    if len(counts) == 1:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum() / n)


def epsilon_complexity(seq, eps, m: int, L: Optional[int] = None, r: Optional[int] = None) -> int:
    """Minimal number of m-blocks needed to cover all but an eps-fraction of
    the anchored positions of the prefix.

    Exact on the prefix relaxation: sort block counts descending and take
    the shortest head whose complement holds at most eps * W anchors
    (greedy-by-frequency is minimal for this relaxation; dropping any head
    block in favor of a tail block never shrinks the family).
    """
    epsf = Fraction(eps)
    if not 0 < epsf < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    digits = _digits_of(seq, L)
    if m > len(digits):
        raise LengthError(f"m={m} exceeds prefix length {len(digits)}")
    bc = block_counts(digits, m, r or _alphabet_size(seq))
    W = bc.total
    # the head must hold at least W - floor(eps * W) anchors; head[t] is
    # the number the t most frequent blocks hold
    need = W - epsf.numerator * W // epsf.denominator
    head = np.concatenate(([0], np.cumsum(np.sort(bc.counts)[::-1])))
    return int(np.searchsorted(head, need, side="left"))


@dataclass
class ComplexityReport:
    """Coverage counts against the 2^(eps * m) subexponential threshold."""

    eps: float
    prefix_length: int
    rows: list[tuple[int, int, float]] = field(default_factory=list)  # (m, C, 2^(eps m))
    verdict: bool = False  # subexponential at some tested m

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "prefix_length": self.prefix_length,
            "rows": [
                {"m": m, "C": c, "threshold": t, "below": c < t} for m, c, t in self.rows
            ],
            "subexponential_at_tested_scales": self.verdict,
        }


def complexity_curve(seq, eps, m_range: Iterable[int], L: Optional[int] = None) -> ComplexityReport:
    digits = _digits_of(seq, L)
    rr = _alphabet_size(seq)
    report = ComplexityReport(eps=float(eps), prefix_length=len(digits))
    for m in m_range:
        C = epsilon_complexity(digits, eps, m, r=rr)
        threshold = 2.0 ** (float(eps) * m)
        report.rows.append((m, C, threshold))
    report.verdict = any(c < t for _, c, t in report.rows)
    return report


def eps_m_goodness(seq, m: int, L: Optional[int] = None) -> Fraction:
    """Max over all binary m-blocks of |anchored frequency - 2^-m|.

    The prefix is (eps, m)-good exactly when the result is <= eps.  Over the
    W anchored windows, |c/W - 2^-m| = |c 2^m - W| / (W 2^m) is convex in the
    count c, so the maximum sits at the smallest or the largest count, and
    the smallest is 0 when some m-block does not occur.
    """
    digits = _digits_of(seq, L)
    if _alphabet_size(seq) != 2:
        raise ValueError("goodness is defined against the binary uniform weights")
    if m > len(digits):
        raise LengthError(f"m={m} exceeds prefix length {len(digits)}")
    bc = block_counts(digits, m, 2)
    W = bc.total
    lo = int(bc.counts.min()) if len(bc.counts) == 1 << m else 0
    hi = int(bc.counts.max())
    return Fraction(max(abs((lo << m) - W), abs((hi << m) - W)), W << m)


def switch_density(seq, L: Optional[int] = None) -> Fraction:
    """Fraction of adjacent positions n with digit(n) != digit(n+1)."""
    digits = _digits_of(seq, L)
    if len(digits) < 2:
        raise LengthError("switch density needs at least two digits")
    switches = int(np.count_nonzero(digits[1:] != digits[:-1]))
    return Fraction(switches, len(digits) - 1)


@dataclass
class EntropyProfile:
    """Combinatorial entropies H_n of prefix windows, with min/max per n as
    desk-scale stand-ins for the lower/upper limits."""

    rows: list[tuple[int, int, float]] = field(default_factory=list)  # (window, n, H_n)

    def per_n(self) -> dict[int, tuple[float, float]]:
        out: dict[int, tuple[float, float]] = {}
        for _, n, h in self.rows:
            lo, hi = out.get(n, (math.inf, -math.inf))
            out[n] = (min(lo, h), max(hi, h))
        return out

    def as_dict(self) -> dict:
        return {
            "rows": [{"window": w, "n": n, "H": h} for w, n, h in self.rows],
            "per_n": {
                str(n): {"min": lo, "max": hi} for n, (lo, hi) in sorted(self.per_n().items())
            },
        }


def entropy_profile(seq, window_lengths: Sequence[int], n_range: Iterable[int]) -> EntropyProfile:
    """H_n of each prefix window for each n, as `combinatorial_entropy` of
    the window would give it, from one count per window.

    The blocks of the largest n, `top`, are anchored once over the longest
    window; a window counts the prefix of those codes that fits in it.  An
    n-block's code is its top-block's code // r^(top - n), which keeps the
    codes ascending, so equal ones are adjacent; the top - n anchors at the
    window's end that start no top-block are read off its last top-block.
    """
    ns = list(n_range)
    for w in window_lengths:
        if w < 1:  # a slice end below 1 would read all but the last digits
            raise LengthError(f"window length {w} must be >= 1")
    digits = np.asarray(_digits_of(seq, max(window_lengths)), dtype=np.uint8)
    r = _alphabet_size(seq)
    windows = [digits[:w] for w in window_lengths]
    for window in windows:  # the errors of the per-window rule, in its order
        for n in ns:
            _check_block_length(n, len(window))
            _check_code_bits(n, r)
    profile = EntropyProfile()
    if not ns:
        return profile
    top = max(ns)
    codes = _anchor_codes(digits, top, r)
    for w, window in zip(window_lengths, windows):
        head = len(window) - top + 1  # top-blocks inside the window
        observed, counts = block_histogram(codes[:head], r**top)
        last = int(codes[head - 1])
        for n in ns:
            drop = top - n
            # the n-block at anchor head + j is digits j + 1 .. j + n of `last`
            tail = np.array(sorted(last // r ** (drop - 1 - j) % r**n for j in range(drop)), dtype=np.int64)
            coarse = observed // r**drop
            at = np.searchsorted(coarse, tail)
            merged = np.insert(coarse, at, tail)
            starts = np.flatnonzero(np.diff(merged, prepend=-1))
            grouped = np.add.reduceat(np.insert(counts, at, 1), starts)
            profile.rows.append((w, n, _entropy(grouped, n)))
    return profile


def count_low_entropy_blocks(m: int, n: int, c: float) -> int:
    """Exhaustive count of binary blocks B of length m with H_n(B) <= c."""
    if m > ENUM_BUDGET_BITS:
        raise BudgetError(f"enumeration budget is m <= {ENUM_BUDGET_BITS}")
    if n > m:
        raise LengthError(f"n={n} exceeds m={m}")
    W = m - n + 1
    total = 1 << m
    nmask = (1 << n) - 1
    chunk = 1 << min(m, 18)
    count = 0
    for lo in range(0, total, chunk):
        blocks = np.arange(lo, min(lo + chunk, total), dtype=np.uint64)
        rows = len(blocks)
        # counts[b, code] over the W anchored n-windows of each block
        row_offsets = np.arange(rows, dtype=np.int64) << n
        idx = np.empty((W, rows), dtype=np.int64)
        for i in range(W):
            shift = np.uint64(m - n - i)
            idx[i] = row_offsets + ((blocks >> shift) & np.uint64(nmask)).astype(np.int64)
        counts = np.bincount(idx.ravel(), minlength=rows << n).reshape(rows, 1 << n)
        p = counts / W
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(counts > 0, -p * np.log2(np.where(counts > 0, p, 1.0)), 0.0)
        H = terms.sum(axis=1) / n
        single = (counts > 0).sum(axis=1) == 1
        H[single] = 0.0  # exactly one block type occurring is exactly zero entropy
        count += int(np.count_nonzero(H <= c))
    return count
