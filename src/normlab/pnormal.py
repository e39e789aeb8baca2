"""Closed-form carry-sum probabilities and their Monte-Carlo verification.

For two independent digit streams with ones-density p added with carry,
the carry probability and the digit statistics of the sum have exact
rational closed forms; this module evaluates them exactly and checks them
against seeded sampled streams.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .bitarith import stream_carry_add
from .errors import DataQualityError, DomainError, rational, within
from .generators import bernoulli_stream, derive_seed

MAX_AMBIGUITY = 0.01  # the largest share of carry-ambiguous digits a Monte-Carlo run tallies


def _check_p(p) -> Fraction:
    pf = rational(p)
    if not 0 < pf < 1:
        raise DomainError(f"p must lie strictly between 0 and 1, got {p}")
    within("p-denominator", pf.denominator.bit_length())
    return pf


def _carry_parts(a: int, n: int):
    """The closed forms at p = a/n as integer (numerator, denominator)
    pairs, in the order P, p', Q0, P0, p0'; not reduced.

    With b = n - a and s = a^2 + b^2: P = a^2 / s,
    p' = (a^2 s + 2 a b^3) / (n^2 s), Q0 = b^3 / D0 with D0 = b s + 2 a^3,
    P0 = (D0 - b^3) / D0 and p0' = (2 a b^4 + (D0 - b^3) s) / (n^2 D0).
    """
    b = n - a
    a2, b3 = a * a, b * b * b
    s = a2 + b * b
    d0 = b * s + 2 * a2 * a
    p0_num = d0 - b3
    n2 = n * n
    return (a2, s), (a2 * s + 2 * a * b3, n2 * s), (b3, d0), (p0_num, d0), (2 * a * b3 * b + p0_num * s, n2 * d0)


def carry_digit_prob(p) -> tuple[Fraction, Fraction]:
    """(P, p') for the carry sum of two independent p-streams.

    P is the probability that a carry arrives at a fixed coordinate,
    P = p^2 / (p^2 + q^2) with q = 1 - p; p' is the ones-density of the
    sum digits, p' = 2 Q p q + P (p^2 + q^2) = p^2 + 2 p q^3 / (p^2 + q^2).
    """
    pf = _check_p(p)
    P, p_prime = _carry_parts(pf.numerator, pf.denominator)[:2]
    return Fraction(*P), Fraction(*p_prime)


def conditional_digit_prob(p) -> tuple[Fraction, Fraction, Fraction]:
    """(Q0, P0, p0') with the next sum digit conditioned to be 0.

    Q0 = q^2 / (p^2 + q^2 + 2 p^3 / q) is the no-carry probability given
    the digit to the right of the target is 0, P0 = 1 - Q0, and
    p0' = 2 Q0 p q + P0 (p^2 + q^2).  For p != 1/2 the conditioning
    matters: p0' > p', which is what breaks product structure in the sum.
    """
    pf = _check_p(p)
    Q0, P0, p0_prime = _carry_parts(pf.numerator, pf.denominator)[2:]
    return Fraction(*Q0), Fraction(*P0), Fraction(*p0_prime)


def rauzy_obstruction_l(p) -> int:
    """Smallest positive l with ((1-p)/p)^l < p; defined for p > 1/2.

    With p = a/n and b = n - a the condition is b^l n < a^(l+1).  l is
    estimated from logarithms and then confirmed exactly with integer
    powers; BudgetError, before any power, when the estimate puts l * bits(n)
    beyond the obstruction budget.
    """
    pf = rational(p)
    if not Fraction(1, 2) < pf < 1:
        raise DomainError(f"the obstruction length needs 1/2 < p < 1, got {p}")
    a, n = pf.numerator, pf.denominator
    b = n - a

    def below(l: int) -> bool:
        return b**l * n < a ** (l + 1)

    if below(1):  # every p >= 2/3 ends here, so (a - b) / b <= 1 below
        return 1
    # l is the least integer above log(n/a) / log(a/b); (a - b) / b keeps
    # log(a/b) accurate when p is within 2^-53 of 1/2
    gap = math.log1p((a - b) / b)
    l = max(2, math.floor(math.log1p(b / a) / gap) + 1) if gap > 0 else math.inf
    within("obstruction", l * n.bit_length())
    while l > 2 and below(l - 1):
        l -= 1
    while not below(l):
        l += 1
    return l


@dataclass
class MonteCarloCarrySum:
    """Empirical digit statistics of one sampled carry sum.  `pair_rows`
    keeps the tallied pairs' lead and next digits as a 2 x pairs bool array
    for `correlation`, which is computed on its first read."""

    p: str
    seed: int
    n_digits: int
    lookahead_cap: int
    freq_one: float
    freq_one_given_next_zero: float
    dependence: float  # conditional minus unconditional ones-frequency
    tallied: int
    tallied_pairs: int
    ambiguity_rate: float
    pair_rows: InitVar[np.ndarray]

    def __post_init__(self, pair_rows: np.ndarray):
        self._pair_rows = pair_rows

    @cached_property
    def correlation(self) -> float:
        """Pearson correlation of adjacent sum digits, 0 when either side of
        the pairs is constant.  It stays np.corrcoef of the two rows (as
        float64, a 2 x pairs copy): a closed form from the 2x2 pair counts
        differs from it in the last bits."""
        rows = self._pair_rows
        ones = np.count_nonzero(rows, axis=1)
        if not ((0 < ones) & (ones < self.tallied_pairs)).all():
            return 0.0
        # np.cov stacks two arguments into this 2 x pairs array, so passing it whole is the same computation
        return float(np.corrcoef(rows)[0, 1])

    def as_dict(self) -> dict:
        out = {}
        for key, value in asdict(self).items():
            out[key] = value
            if key == "dependence":
                out["correlation"] = self.correlation
        return out


def _tallies(digits: np.ndarray, ambiguous: np.ndarray) -> dict:
    """The digit statistics of a carry sum over its unambiguous positions,
    from integer counts of the 0/1 uint8 `digits`, and the tallied pairs'
    rows for `MonteCarloCarrySum.correlation`.

    Each frequency is a quotient of two counts, which is also what the
    float64 mean of 0/1 digits rounds to, since its sum is exact.  The
    next-digit-zero frequency is NaN when no tallied pair ends in 0.
    """
    ok = ~ambiguous
    tallied = int(np.count_nonzero(ok))
    if tallied == 0:
        raise DataQualityError("no unambiguous digits to tally")
    bits = digits.view(bool)  # the digits are 0 or 1
    ones = int(np.count_nonzero(bits[ok]))
    pair_ok = ok[:-1] & ok[1:]
    del ok  # one byte a digit less at the peak, while the rows are built
    pairs = int(np.count_nonzero(pair_ok))
    rows = np.empty((2, pairs), dtype=bool)  # lead, next; a mask, where np.compress would build int64 indices
    rows[0], rows[1] = bits[:-1][pair_ok], bits[1:][pair_ok]
    n10 = int(np.count_nonzero(rows[0] > rows[1]))  # lead 1, next 0
    zero_next = pairs - int(np.count_nonzero(rows[1]))
    return dict(
        freq_one=ones / tallied,
        freq_one_given_next_zero=n10 / zero_next if zero_next else float("nan"),
        tallied=tallied,
        tallied_pairs=pairs,
        pair_rows=rows,
    )


def monte_carlo_carry_sum(
    p,
    seed: int,
    N: int,
    lookahead_cap: int = 64,
) -> MonteCarloCarrySum:
    """Sample two independent p-streams, add them with carry, and tally the
    digit statistics of the sum.  Carry-ambiguous positions are excluded
    from every tally rather than guessed."""
    pf = _check_p(p)
    if N < 10**3:
        raise DomainError("need at least 10^3 digits for the tallies")
    within("Monte-Carlo", N)
    M = N + lookahead_cap
    s1 = bernoulli_stream(pf, derive_seed(seed, "carry-sum/left"), M)
    s2 = bernoulli_stream(pf, derive_seed(seed, "carry-sum/right"), M)
    digits, ambiguous = stream_carry_add(s1, s2, N, lookahead_cap)
    amb_rate = float(ambiguous.mean())
    if amb_rate > MAX_AMBIGUITY:
        raise DataQualityError(f"ambiguity rate {amb_rate:.4f} exceeds {MAX_AMBIGUITY:.4f}")
    t = _tallies(digits, ambiguous)
    return MonteCarloCarrySum(
        p=str(pf),
        seed=seed,
        n_digits=N,
        lookahead_cap=lookahead_cap,
        dependence=t["freq_one_given_next_zero"] - t["freq_one"],
        ambiguity_rate=amb_rate,
        **t,
    )


@dataclass
class CarrySumStats:
    """Closed forms (exact rationals rendered as strings) plus optional
    Monte-Carlo estimates for one value of p."""

    p: str
    P: str
    Q: str
    pprime: str
    Q0: str
    P0: str
    pprime0: str
    l: Optional[int]
    P_float: float
    pprime_float: float
    pprime0_float: float
    mc: Optional[MonteCarloCarrySum] = None

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["mc"]
        out["mc_stats"] = self.mc.as_dict() if self.mc else None
        return out


def carry_sum_stats(p, mc_n: Optional[int] = None, seed: int = 0) -> CarrySumStats:
    pf = _check_p(p)
    P, pprime = carry_digit_prob(pf)
    Q0, P0, pprime0 = conditional_digit_prob(pf)
    l = rauzy_obstruction_l(pf) if pf > Fraction(1, 2) else None
    mc = monte_carlo_carry_sum(pf, seed, mc_n) if mc_n else None
    return CarrySumStats(
        p=str(pf),
        P=str(P),
        Q=str(1 - P),
        pprime=str(pprime),
        Q0=str(Q0),
        P0=str(P0),
        pprime0=str(pprime0),
        l=l,
        P_float=float(P),
        pprime_float=float(pprime),
        pprime0_float=float(pprime0),
        mc=mc,
    )
