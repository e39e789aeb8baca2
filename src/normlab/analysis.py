"""Entropy, complexity, normality, and switch statistics of digit prefixes.

All quantities are prefix-scale: they are computed exactly on a finite
window and labeled as such.  The infinite-limit quantities they estimate
are not computable, so curves over a ladder of window lengths stand in for
lower/upper limits.

Every statistic reads a digit array and its alphabet size r (binary by
default); `seqcore.block_counts` checks the block lengths against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, within
from .seqcore import _anchor_codes, _check_code_bits, _counts_from_table, block_counts, check_block_length


def combinatorial_entropy(digits: np.ndarray, n: int, r: int = 2) -> float:
    """Per-symbol entropy in bits of the empirical distribution of the
    n-blocks anchored in `digits`."""
    return _entropy(block_counts(digits, n, r).counts, n)


def _entropy(counts: np.ndarray, n: int) -> float:
    """Per-symbol entropy in bits of n-block counts in ascending code order
    (the order fixes the float sum)."""
    if len(counts) == 1:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum() / n)


def epsilon_complexity(digits: np.ndarray, eps, m: int, r: int = 2) -> int:
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
    bc = block_counts(digits, m, r)
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


def complexity_curve(digits: np.ndarray, eps, m_range: Iterable[int], r: int = 2) -> ComplexityReport:
    report = ComplexityReport(eps=float(eps), prefix_length=len(digits))
    for m in m_range:
        C = epsilon_complexity(digits, eps, m, r)
        threshold = 2.0 ** (float(eps) * m)
        report.rows.append((m, C, threshold))
    report.verdict = any(c < t for _, c, t in report.rows)
    return report


def eps_m_goodness(digits: np.ndarray, m: int, r: int = 2) -> Fraction:
    """Max over all binary m-blocks of |anchored frequency - 2^-m|.

    The prefix is (eps, m)-good exactly when the result is <= eps.  Over the
    W anchored windows, |c/W - 2^-m| = |c 2^m - W| / (W 2^m) is convex in the
    count c, so the maximum sits at the smallest or the largest count, and
    the smallest is 0 when some m-block does not occur.
    """
    if r != 2:
        raise ValueError("goodness is defined against the binary uniform weights")
    bc = block_counts(digits, m, 2)
    W = bc.total
    lo = int(bc.counts.min()) if len(bc.counts) == 1 << m else 0
    hi = int(bc.counts.max())
    return Fraction(max(abs((lo << m) - W), abs((hi << m) - W)), W << m)


def switch_density(digits: np.ndarray) -> Fraction:
    """Fraction of adjacent positions n with digit(n) != digit(n+1)."""
    if len(digits) < 2:
        raise DomainError("switch density needs at least two digits")
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


def entropy_profile(
    digits: np.ndarray, window_lengths: Sequence[int], n_range: Iterable[int], r: int = 2
) -> EntropyProfile:
    """H_n of each prefix window for each n, as `combinatorial_entropy` of
    the window would give it, from one count per window.

    The blocks of the largest n, `top`, are anchored once over the longest
    window.  A window whose table of top-blocks is dense, as
    `block_histogram` counts it, counts its prefix of those codes into that
    table and derives every n from it as `block_counts` derives its ladder;
    a shorter window takes each n from `block_counts`.
    """
    ns = list(n_range)
    for w in window_lengths:
        if w < 1:  # a slice end below 1 would read all but the last digits
            raise DomainError(f"window length {w} must be >= 1")
        if w > len(digits):
            raise DomainError(f"window length {w} exceeds the {len(digits)} digits")
    digits = digits[: max(window_lengths)]
    windows = [digits[:w] for w in window_lengths]
    for window in windows:  # the errors of the per-window rule, in its order
        for n in ns:
            check_block_length(n, len(window))
            _check_code_bits(n, r)
    profile = EntropyProfile()
    if not ns:
        return profile
    top = max(ns)
    codes = None
    for w, window in zip(window_lengths, windows):
        head = w - top + 1  # top-blocks inside the window
        if r**top <= head:
            if codes is None:
                codes = _anchor_codes(digits, top, r)
            table = np.bincount(codes[:head], minlength=r**top)
            counts = [_counts_from_table(table, window, top, n, r)[1] for n in ns]
        else:
            counts = [block_counts(window, n, r).counts for n in ns]
        profile.rows += [(w, n, _entropy(c, n)) for n, c in zip(ns, counts)]
    return profile


def count_low_entropy_blocks(m: int, n: int, c: float) -> int:
    """Exhaustive count of binary blocks B of length m with H_n(B) <= c;
    1 <= n <= m."""
    within("enumeration", m)
    if n < 1:
        raise DomainError(f"block length n={n} must be >= 1")
    if n > m:
        raise DomainError(f"n={n} exceeds m={m}")
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
