"""What normlab refuses, decided in one place.

Three exception types, each a ValueError, so the command line reports every
one of them as a usage error (one `error:` line, exit code 2):

- `DomainError`: an argument outside the domain an operation is defined on
- `BudgetError`: a request beyond one of the caps in `BUDGETS`
- `DataQualityError`: sampled data too ambiguous to tally

`within` is the one check against a cap and `rational` the one reader of a
rational number from outside the program.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple


class DomainError(ValueError):
    """An argument outside the domain an operation is defined on."""


class BudgetError(ValueError):
    """A request beyond a cap in `BUDGETS`."""


class DataQualityError(ValueError):
    """Sampled data too ambiguous to tally."""


class Budget(NamedTuple):
    what: str
    limit: int


# Every cap on the work a caller can ask for; each is checked before the
# work starts.  README.md ("Budgets and errors") gives the reason for each.
BUDGETS = {
    "digit": Budget("digits read at once", 1 << 26),
    "fixed-point": Budget("fractional bits N + G", 1 << 26),
    "obstruction": Budget("l * bits(n)", 1 << 20),
    "p-denominator": Budget("bits of p's denominator", 1 << 11),
    "decimal exponent": Budget("|exponent| - length of the decimal", 1 << 11),
    "Monte-Carlo": Budget("samples N", 1 << 22),
    "enumeration": Budget("block length m", 24),
    "exhaustive check": Budget("block length n", 20),
    "orbit grid": Budget("d * grid_bits", 20),
    "orbit steps": Budget("steps", 1 << 20),
    "orbit storage": Budget("steps * d * bits(D)", 1 << 28),
    "orbit precision": Budget("precision_bits", 1 << 20),
    "closed-form points": Budget("n_random + grid_points", 1 << 20),
    "gray words": Budget("words verified", 1 << 24),
    "roundtrip cases": Budget("roundtrip_cases and pairs", 1 << 14),
    "roundtrip stream digits": Budget("pairs * (digits + lookahead_cap)", 1 << 24),
}


def within(name: str, value, log2: bool = False) -> None:
    """Raise BudgetError unless value <= the limit of BUDGETS[name].

    With log2, value is the base-2 exponent of the quantity, so a huge
    exponent is refused without building 2^value.
    """
    what, limit = BUDGETS[name]
    if (value > limit.bit_length() - 1) if log2 else (value > limit):
        raise BudgetError(f"{name} budget is {what} <= {limit}, got {f'2^{value}' if log2 else value}")


# Fraction's own exponent grammar: PEP 515 underscores between digits
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*$")


def rational(x) -> Fraction:
    """The exact rational of outside text, or of a number.

    Fraction("1e-100000000") builds 10^100000000 before any check, so the
    decimal exponent is bounded first: a decimal of d characters with
    exponent k, |k| > d + 2048, has a denominator above 10^2048 (k < 0) or
    is an integer above 10^2048 (k > 0, unless 0).
    """
    m = _EXPONENT.search(x) if isinstance(x, str) else None
    if m:
        within("decimal exponent", abs(int(m[1])) - len(x))
    try:
        return Fraction(x)
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"{x!r} is not a finite rational") from exc
