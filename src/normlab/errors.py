"""The exception types that several normlab modules raise.

Each is a ValueError, so the command line reports every one of them as a
usage error (one `error:` line, exit code 2).  The modules that raise them
re-export them under their old names, e.g. `normlab.bitarith.DomainError`.
"""


class DomainError(ValueError):
    """An argument outside the domain an operation is defined on."""


class BudgetError(ValueError):
    """A request beyond a fixed enumeration or verification budget."""


# At most 2^26 digits are read at once: the int64 anchor codes of such a
# prefix take 512 MiB.
DIGITS_BUDGET_BITS = 26

# rauzy_obstruction_l compares integer powers of about l * bits(n) bits; at
# most 2^20 bits each (a few milliseconds per power).
OBSTRUCTION_BUDGET_BITS = 20


class DataQualityError(ValueError):
    """Sampled data too ambiguous to tally."""
