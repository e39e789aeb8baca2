import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from normlab.errors import BUDGETS, BudgetError, DataQualityError
from normlab.pnormal import (
    DomainError,
    MonteCarloCarrySum,
    _carry_parts,
    _pprime_parts,
    _tallies,
    carry_digit_prob,
    carry_sum_stats,
    conditional_digit_prob,
    monte_carlo_carry_sum,
    rauzy_obstruction_l,
)

fractions_in_unit = st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000))


def carry_digit_prob_by_fractions(p: Fraction):
    q = 1 - p
    P = p**2 / (p**2 + q**2)
    return P, 2 * (1 - P) * p * q + P * (p**2 + q**2)


def conditional_digit_prob_by_fractions(p: Fraction):
    q = 1 - p
    Q0 = q**2 / (p**2 + q**2 + 2 * p**3 / q)
    P0 = 1 - Q0
    return Q0, P0, 2 * Q0 * p * q + P0 * (p**2 + q**2)


def rauzy_obstruction_l_by_loop(p: Fraction) -> int:
    ratio = (1 - p) / p
    power, l = ratio, 1
    while power >= p:
        power *= ratio
        l += 1
    return l


@given(st.integers(2, 10**12), st.data(), st.integers(1, 1000))
def test_integer_parts_match_fraction_definitions(n, data, k):
    a = data.draw(st.integers(1, n - 1))
    p = Fraction(a, n)
    parts = [Fraction(num, den) for num, den in _carry_parts(k * a, k * n)]
    assert tuple(parts) == carry_digit_prob_by_fractions(p) + conditional_digit_prob_by_fractions(p)
    assert carry_digit_prob(p) == tuple(parts[:2])
    assert conditional_digit_prob(p) == tuple(parts[2:])
    assert all(den > 0 for _, den in _carry_parts(k * a, k * n))


@given(st.integers(2, 10**30), st.data())
def test_pprime_parts_match_fraction_arithmetic(n, data):
    a = data.draw(st.integers(1, n - 1))
    p = Fraction(a, n)
    num, den = _pprime_parts(a, n)
    assert den > 0 and Fraction(num, den) == carry_digit_prob_by_fractions(p)[1]
    assert (num, den) == _carry_parts(a, n)[1]


def test_half_is_fixed():
    P, pprime = carry_digit_prob(Fraction(1, 2))
    assert P == Fraction(1, 2) and pprime == Fraction(1, 2)
    _, _, pprime0 = conditional_digit_prob(Fraction(1, 2))
    assert pprime0 == Fraction(1, 2)


def test_exact_values_at_one_fifth():
    P, pprime = carry_digit_prob(Fraction(1, 5))
    assert P == Fraction(1, 17)
    assert pprime == Fraction(29, 85)
    Q0, P0, pprime0 = conditional_digit_prob(Fraction(1, 5))
    assert Q0 == Fraction(32, 35)
    assert P0 == Fraction(3, 35)
    assert pprime0 == Fraction(307, 875)
    assert pprime0 > pprime


def test_mirrored_p():
    assert carry_digit_prob(Fraction(4, 5))[1] == 1 - Fraction(29, 85)
    _, _, p0 = conditional_digit_prob(Fraction(4, 5))
    assert p0 > carry_digit_prob(Fraction(4, 5))[1]


def test_domain_checks():
    for bad in (0, 1, Fraction(3, 2)):
        with pytest.raises(DomainError):
            carry_digit_prob(bad)
    with pytest.raises(DomainError):
        rauzy_obstruction_l(Fraction(1, 2))


def test_denominator_budget():
    cap = BUDGETS["p-denominator"].limit
    largest = (1 << cap) - 1  # the longest denominator within the budget
    for a in (1, largest // 2, largest - 1):
        stats = carry_sum_stats(Fraction(a, largest)).as_dict()
        # every closed form prints, so each part stays under str()'s limit
        assert all(len(part) < 4300 for v in stats.values() if isinstance(v, str) for part in v.split("/"))
    for fn in (carry_digit_prob, conditional_digit_prob, carry_sum_stats):
        with pytest.raises(BudgetError, match=f"p-denominator budget is bits of p's denominator <= {cap}, got {cap + 1}$"):
            fn(Fraction(1, 1 << cap))
    with pytest.raises(BudgetError, match="p-denominator budget"):
        monte_carlo_carry_sum(Fraction(1, 10**1000), 0, 1000)


@given(fractions_in_unit)
def test_two_closed_forms_agree(p):
    q = 1 - p
    _, pprime = carry_digit_prob(p)
    assert pprime == p**2 + 2 * p * q**3 / (p**2 + q**2)


@given(fractions_in_unit)
def test_symmetry_identity(p):
    assert carry_digit_prob(p)[1] + carry_digit_prob(1 - p)[1] == 1


@given(fractions_in_unit)
def test_probability_sanity(p):
    P, pprime = carry_digit_prob(p)
    Q0, P0, pprime0 = conditional_digit_prob(p)
    assert 0 < P < 1 and P + (1 - P) == 1
    assert Q0 + P0 == 1
    assert 0 < pprime < 1 and 0 < pprime0 < 1
    assert pprime0 >= pprime  # equality exactly at p = 1/2


@pytest.mark.parametrize(
    "p, want",
    [(Fraction(9, 10), 1), (Fraction(3, 5), 2), (Fraction(51, 100), 17), (1 - Fraction(1, 10**400), 1)],
)
def test_obstruction_lengths(p, want):
    l = rauzy_obstruction_l(p)
    assert l == want
    assert ((1 - p) / p) ** l < p
    if l > 1:
        assert ((1 - p) / p) ** (l - 1) >= p


@given(st.integers(3, 400), st.data())
def test_obstruction_length_matches_loop(n, data):
    p = Fraction(data.draw(st.integers(n // 2 + 1, n - 1)), n)
    assert rauzy_obstruction_l(p) == rauzy_obstruction_l_by_loop(p)


def test_obstruction_length_near_half():
    # 50001/100000: l = 17329, the smallest l with 49999^l * 10^5 < 50001^(l+1)
    assert rauzy_obstruction_l(Fraction(50001, 100000)) == 17329
    n = 1 << 60  # p = 1/2 + 2^-60: the float ratio (1 - p) / p rounds to 1.0
    assert (n // 2 - 1) / (n // 2 + 1) == 1.0
    for p in (Fraction(n // 2 + 1, n), Fraction("0.5000000000000000000001"), Fraction(500001, 10**6)):
        with pytest.raises(BudgetError, match=f"obstruction budget is l \\* bits\\(n\\) <= {BUDGETS['obstruction'].limit}, got "):
            rauzy_obstruction_l(p)
    # just inside the budget: l * bits(n) <= 2^20 with p = 125001/250000
    p = Fraction(125001, 250000)
    l = rauzy_obstruction_l(p)
    assert l * p.denominator.bit_length() <= BUDGETS["obstruction"].limit
    b, a, n = p.denominator - p.numerator, p.numerator, p.denominator
    assert b**l * n < a ** (l + 1) and b ** (l - 1) * n >= a**l


def test_grid_scan_unique_fixed_point():
    crossings = 0
    prev = None
    for k in range(1, 200):
        p = Fraction(k, 200)
        sign = carry_digit_prob(p)[1] - p
        cur = 0 if sign == 0 else (1 if sign > 0 else -1)
        if prev is not None and cur != prev:
            crossings += 1
        prev = cur
    assert crossings == 2  # + -> 0 at exactly 1/2 -> -


def test_monte_carlo_five_sigma_band():
    mc = monte_carlo_carry_sum(Fraction(1, 5), seed=7, N=10**5)
    _, pprime = carry_digit_prob(Fraction(1, 5))
    sigma = math.sqrt(float(pprime) * (1 - float(pprime)) / mc.tallied)
    assert abs(mc.freq_one - float(pprime)) <= 5 * sigma
    assert mc.dependence > 0
    assert mc.ambiguity_rate <= 0.01


def test_monte_carlo_independence_at_half():
    mc = monte_carlo_carry_sum(Fraction(1, 2), seed=11, N=10**5)
    sigma = math.sqrt(0.25 / mc.tallied_pairs)
    assert abs(mc.dependence) <= 5 * sigma


def test_monte_carlo_needs_enough_digits():
    with pytest.raises(DomainError):
        monte_carlo_carry_sum(Fraction(1, 5), seed=1, N=100)


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
def test_monte_carlo_convergence_rate(n):
    # fixed seeds: the estimate tracks the closed form at rate <= 4/sqrt(N)
    mc = monte_carlo_carry_sum(Fraction(1, 5), seed=7, N=n)
    _, pprime = carry_digit_prob(Fraction(1, 5))
    assert abs(mc.freq_one - float(pprime)) <= 4 / math.sqrt(n)


def tallies_by_float_means(digits: np.ndarray, ambiguous: np.ndarray) -> dict:
    """The tallies as float64 means of the digits, as they were first defined."""
    ok = ~ambiguous
    tallied = int(ok.sum())
    if tallied == 0:
        raise DataQualityError("no unambiguous digits to tally")
    d = digits.astype(np.float64)
    pair_ok = ok[:-1] & ok[1:]
    lead, nxt = d[:-1][pair_ok], d[1:][pair_ok]
    tallied_pairs = int(pair_ok.sum())
    next_zero = nxt == 0
    if tallied_pairs > 1 and lead.std() > 0 and nxt.std() > 0:
        corr = float(np.corrcoef(lead, nxt)[0, 1])
    else:
        corr = 0.0
    return dict(
        freq_one=float(d[ok].mean()),
        freq_one_given_next_zero=float(lead[next_zero].mean()) if next_zero.any() else float("nan"),
        correlation=corr,
        tallied=tallied,
        tallied_pairs=tallied_pairs,
        zero_next=int(next_zero.sum()),
    )


# (digit, ambiguous) cells; about one in four is ambiguous, so runs of pairs are common
cells = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3).map(lambda v: v == 0)), min_size=1, max_size=400)


@given(cells)
@example([(1, True), (0, False), (1, True)])  # all digits ambiguous but one
@example([(0, True), (1, True)])  # no digit to tally
@example([(0, False), (1, False), (1, False), (1, False)])  # no pair whose next digit is 0; constant next
@example([(1, False), (1, False), (1, False), (0, False)])  # constant lead
@example([(0, False), (1, False), (0, True)])  # exactly one tallied pair
@example([(1, False), (0, False), (1, False), (0, False), (0, False), (1, False)])
def test_tallies_match_float_means(cells):
    digits = np.array([d for d, _ in cells], dtype=np.uint8)
    ambiguous = np.array([a for _, a in cells], dtype=bool)
    try:
        want = tallies_by_float_means(digits, ambiguous)
    except DataQualityError:
        with pytest.raises(DataQualityError, match="no unambiguous digits"):
            _tallies(digits, ambiguous)
        return
    got = _tallies(digits, ambiguous)
    # the correlation is read on demand from the kept digits and pair mask,
    # bit for bit np.corrcoef of the float64 rows
    mc = MonteCarloCarrySum("1/2", 0, len(cells), 0, dependence=0.0, ambiguity_rate=0.0, **got)
    got["correlation"] = mc.correlation
    assert mc.zero_next == got["zero_next"]
    del got["pairs"]
    assert got.keys() == want.keys()
    for key, value in want.items():
        # the same type keeps repr() of the report, and so its digest, unchanged
        assert type(got[key]) is type(value), key
        assert got[key] == value or (math.isnan(got[key]) and math.isnan(value)), key


def test_monte_carlo_report_keeps_its_key_order():
    # the correlation is computed on its first read, and the report places it
    # where the field stood, so `normlab pnormal --mc` prints the same JSON
    d = monte_carlo_carry_sum(Fraction(1, 5), seed=7, N=10**4).as_dict()
    assert list(d) == [
        "p", "seed", "n_digits", "lookahead_cap", "freq_one", "freq_one_given_next_zero", "dependence",
        "correlation", "tallied", "tallied_pairs", "ambiguity_rate",
    ]
    assert type(d["correlation"]) is float and -1 < d["correlation"] < 0


def test_monte_carlo_counts_the_pairs_with_next_digit_zero():
    # the trials of the conditional frequency, kept out of the report's fields
    mc = monte_carlo_carry_sum(Fraction(1, 5), seed=7, N=10**4)
    bits, pair_ok = mc._pairs
    assert mc.zero_next == int(np.count_nonzero(pair_ok & (bits[1:] == 0)))
    assert round(mc.freq_one_given_next_zero * mc.zero_next) == np.count_nonzero(pair_ok & bits[:-1] & ~bits[1:])
    assert "zero_next" not in mc.as_dict()
    assert mc._pairs is None  # the digits are dropped once the correlation has its rows


def test_stats_bundle():
    stats = carry_sum_stats(Fraction(7, 10))
    assert stats.l == 1
    assert stats.P == str(Fraction(49, 58))
    d = stats.as_dict()
    assert d["pprime"] == stats.pprime and d["mc_stats"] is None
