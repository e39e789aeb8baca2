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

# The carry-sum closed forms at p = a/n have numerators and denominators
# below 10 n^5 (the largest, p0' = (2ab^4 + (D0 - b^3) s) / (n^2 D0), has
# s <= 2n^2 and D0 <= 4n^3).  With bits(n) <= 2^11 that is at most
# 5 * 2048 + 4 = 10,244 bits, 3,084 decimal digits, so every form prints
# under Python's 4,300-digit int-to-str limit.
P_DENOMINATOR_BUDGET_BITS = 11

# The loops of the experiments whose sizes a config override sets are
# bounded before the first one runs; each cap is far above the manifest
# size and keeps the largest allowed run to a few seconds.
CLOSED_FORM_BUDGET_BITS = 20  # carry-closed-forms: n_random + grid_points, about 5 us each
GRAY_WORDS_BUDGET_BITS = 24  # gray-invariants: words verified, about 0.5 us each
ROUNDTRIP_BUDGET_BITS = 14  # arithmetic-roundtrips: roundtrip_cases and pairs, up to 0.3 ms each
STREAM_DIGITS_BUDGET_BITS = 24  # arithmetic-roundtrips: pairs * (digits + lookahead_cap), about 0.15 us each


class DataQualityError(ValueError):
    """Sampled data too ambiguous to tally."""
