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
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, rational, within
from .seqcore import _check_code_bits, _counts_from_table, _memo_length, block_counts, check_block_length, code_table


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


def _eps(eps) -> Fraction:
    """eps read by `errors.rational` (the text "0.3" is exactly 3/10) and held to (0, 1)."""
    epsf = rational(eps)
    if not 0 < epsf < 1:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return epsf


def epsilon_complexity(digits: np.ndarray, eps, m: int, r: int = 2) -> int:
    """Minimal number of m-blocks needed to cover all but an eps-fraction of
    the anchored positions of the prefix.

    Exact on the prefix relaxation: sort block counts descending and take
    the shortest head whose complement holds at most eps * W anchors
    (greedy-by-frequency is minimal for this relaxation; dropping any head
    block in favor of a tail block never shrinks the family).
    """
    epsf = _eps(eps)
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
    eps = _eps(eps)
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
        raise DomainError("goodness is defined against the binary uniform weights")
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

    Windows are taken shortest first.  The window of all the digits reads
    each n from `block_counts` when that answers every n from the table it
    memoises for the array (`_memo_length`), the table a ladder of
    `block_counts` on the array has already built.  Any other window whose
    table of blocks of the largest n, `top`, is dense (r^top <= its
    top-blocks) adds the top-blocks the previous dense window lacked to a
    running table (`code_table`), so each anchor is coded once, and derives
    every n from that table as `block_counts` derives its ladder; a shorter
    window takes each n from `block_counts`.  The codes behind every table
    come in phase-major order (`seqcore._packed_codes`), not anchor order,
    and no count depends on their order.
    """
    ns = list(n_range)
    for w in window_lengths:
        if w < 1:  # a slice end below 1 would read all but the last digits
            raise DomainError(f"window length {w} must be >= 1")
        if w > len(digits):
            raise DomainError(f"window length {w} exceeds the {len(digits)} digits")
    for w in window_lengths:  # the errors of the per-window rule, in its order
        for n in ns:
            check_block_length(n, w)
            _check_code_bits(n, r)
    profile = EntropyProfile()
    if not ns:
        return profile
    top = max(ns)
    rows, table, coded = {}, None, 0  # table counts the top-blocks at the first `coded` anchors
    for w in sorted(set(window_lengths)):
        window, head = digits[:w], w - top + 1  # head: top-blocks inside the window
        if w == len(digits) and top <= _memo_length(digits, r):
            counts = [block_counts(digits, n, r).counts for n in ns]
        elif r**top <= head:
            more = code_table(digits[coded : head + top - 1], top, r, head - coded)
            table, coded = (more if table is None else table + more), head
            counts = [_counts_from_table(table, window, top, n, r)[1] for n in ns]
        else:
            counts = [block_counts(window, n, r).counts for n in ns]
        rows[w] = [(w, n, _entropy(c, n)) for n, c in zip(ns, counts)]
    for w in window_lengths:
        profile.rows += rows[w]
    return profile


_CENSUS_CELLS = 17  # log2 of the window codes held at a time: 1 MiB of them
_TIE_SLACK = 2.0**-30  # far above the float error of H_n (W nonzero terms, each within a few ulps)


def count_low_entropy_blocks(m: int, n: int, c: float | Fraction) -> int:
    """Exhaustive count of binary blocks B of length m with H_n(B) <= c;
    1 <= n <= m.  `c` is a float, taken at its exact binary value (so ties
    at 3/5 lie above c = 0.6), or an exact rational such as Fraction(3, 5).

    Each block's W = m - n + 1 window codes are sorted, and their runs are
    the n-block counts, so the work is linear in W whatever n is.  H_n is
    computed in float64 for every block, and a block whose float lies
    within _TIE_SLACK of c is decided exactly by `_entropy_at_most`, so the
    count is exact.  H_n depends only on the multiset of run lengths, so
    each distinct multiset among the tied blocks is decided once."""
    within("enumeration", m)
    if n < 1:
        raise DomainError(f"block length n={n} must be >= 1")
    if n > m:
        raise DomainError(f"n={n} exceeds m={m}")
    W = m - n + 1
    total = 1 << m
    code = np.uint32 if m <= 32 else np.uint64  # uint32: about 0.6 of uint64's time
    shifts = np.arange(m - n, -1, -1, dtype=code)  # window i starts i digits below the top
    nmask = code((1 << n) - 1)
    chunk = max(1, (1 << _CENSUS_CELLS) // W)
    c_float = float(c)
    count = 0
    decided: dict[tuple[int, ...], bool] = {}  # run-length histogram -> H_n <= c, for tied blocks
    for lo in range(0, total, chunk):
        blocks = np.arange(lo, min(lo + chunk, total), dtype=code)
        windows = blocks[:, None] >> shifts
        windows &= nmask
        windows.sort(axis=1)
        windows = windows.ravel()
        first = np.empty(len(windows), dtype=bool)  # where each run of equal codes starts
        np.not_equal(windows[1:], windows[:-1], out=first[1:])
        first[::W] = True
        starts = np.flatnonzero(first)  # each block's runs in ascending code order
        del windows, first
        runs = np.diff(starts, append=len(blocks) * W)
        row = starts // W
        p = runs / W
        H = np.bincount(row, weights=-p * np.log2(p), minlength=len(blocks)) / n
        near = np.abs(H - c_float) <= _TIE_SLACK
        count += int(np.count_nonzero((H <= c_float) & ~near))
        tied = np.flatnonzero(near)
        if len(tied):
            # each tied block's run lengths as a histogram over 0 .. W
            sel = near[row]
            hist = np.bincount(row[sel] * (W + 1) + runs[sel], minlength=len(blocks) * (W + 1))
            hist = hist.reshape(-1, W + 1)[tied]
            hist = hist[np.lexsort(hist.T)]
            new = np.ones(len(hist), dtype=bool)  # where each run of equal histograms starts
            np.any(hist[1:] != hist[:-1], axis=1, out=new[1:])
            kinds = np.flatnonzero(new)
            blocks_of = np.diff(kinds, append=len(hist))
            for kind, k in zip(map(tuple, hist[kinds].tolist()), blocks_of.tolist()):
                if kind not in decided:
                    decided[kind] = _entropy_at_most([L for L, x in enumerate(kind) for _ in range(x)], n, Fraction(c))
                count += k * decided[kind]
    return count


def _entropy_at_most(counts: list[int], n: int, c: Fraction) -> bool:
    """Whether H_n <= c exactly, for the n-block counts of one block.

    With W = sum(counts), n W H_n = log2(L) for L = W^W / prod k^k, so
    H_n <= a/b exactly when W^(bW) <= 2^(anW) prod k^(bk).  log2(L) is an
    integer j when L = 2^j and irrational otherwise, so a tie H_n = c needs
    L = 2^j, and then the test is j <= c n W in integers.  Any other L
    differs from c, and the sign of ln L - c n W ln 2, from correctly
    rounded `decimal` logarithms at doubling precision, decides the side.
    """
    W = sum(counts)
    P, Q = W**W, math.prod(k**k for k in counts)
    t = c * n * W  # H_n <= c exactly when log2(P / Q) <= t
    q, rem = divmod(P, Q)
    if rem == 0 and q & (q - 1) == 0:
        return q.bit_length() - 1 <= t
    prec = 40
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            ln_p, ln_q = Decimal(P).ln(), Decimal(Q).ln()
            ln_t = Decimal(t.numerator) / t.denominator * Decimal(2).ln()
            gap = ln_p - ln_q - ln_t
            # each of the six roundings is within 10^(1 - prec) of its operands' size
            slack = (ln_p + ln_q + abs(ln_t) + 1) * Decimal(10) ** (2 - prec)
        if abs(gap) > slack:
            return gap < 0
        prec *= 2
