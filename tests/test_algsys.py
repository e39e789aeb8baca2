import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normlab import algsys
from normlab.algsys import (
    LinearCA,
    ToralMap,
    _certified_steps,
    _reduce,
    apply_ca,
    modp_add,
    toral_orbit,
)
from normlab.errors import BUDGETS, BudgetError, DomainError
from normlab.seqcore import SymbolicSequence

from helpers import constant


def seq3(digits):
    return SymbolicSequence.from_array(digits, r=3)


def apply_map(tm: ToralMap, x) -> list[Fraction]:
    """x -> A x mod 1 in Fractions: the definition the integer orbit replaces."""
    out = []
    for row in tm.matrix:
        v = sum(Fraction(a) * c for a, c in zip(row, x))
        out.append(v - (v.numerator // v.denominator))
    return out


def test_modp_add_example():
    out = modp_add(seq3([0, 1, 2, 2]), seq3([1, 2, 2, 1]), 4)
    assert out.digits(1, 4).tolist() == [1, 0, 1, 0]


def test_modp_add_identity():
    s = seq3([2, 0, 1, 1, 2])
    zero = constant(0, r=3)
    assert modp_add(s, zero, 5).digits(1, 5).tolist() == s.digits(1, 5).tolist()


def test_modp_modulus_mismatch():
    with pytest.raises(DomainError, match="modulus mismatch: 3 vs 5"):
        modp_add(seq3([0]), constant(0, r=5), 1)


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=20),
    st.lists(st.integers(0, 2), min_size=1, max_size=20),
    st.lists(st.integers(0, 2), min_size=1, max_size=20),
)
def test_modp_group_laws(a, b, c):
    n = min(len(a), len(b), len(c))
    sa, sb, sc = seq3(a[:n]), seq3(b[:n]), seq3(c[:n])
    ab_c = modp_add(modp_add(sa, sb, n), sc, n).digits(1, n).tolist()
    a_bc = modp_add(sa, modp_add(sb, sc, n), n).digits(1, n).tolist()
    assert ab_c == a_bc
    assert (
        modp_add(sa, sb, n).digits(1, n).tolist() == modp_add(sb, sa, n).digits(1, n).tolist()
    )
    neg_a = seq3([(-d) % 3 for d in a[:n]])
    assert modp_add(sa, neg_a, n).digits(1, n).tolist() == [0] * n


def modp_sum_by_definition(a: list[int], b: list[int], p: int) -> list[int]:
    """(a + b) mod p in int64, the sum modp_add took before it kept the
    digits in their own small dtype."""
    return ((np.array(a, dtype=np.int64) + np.array(b, dtype=np.int64)) % p).tolist()


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 5, 127, 131, 251, 257]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=40))
))
@example((127, [(126, 126)] * 3))  # 2(p - 1) = 252: the largest sum uint8 holds
@example((131, [(130, 130), (130, 1), (0, 0)]))  # 2(p - 1) >= 256: the sum is widened
@example((251, [(250, 250), (250, 1), (125, 126)]))
@example((3, []))
def test_modp_add_matches_int64_sum(case):
    # primes on both sides of the uint8 limit, and one whose digits are uint32
    p, pairs = case
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    n = len(pairs)
    out = modp_add(SymbolicSequence.from_array(a, r=p), SymbolicSequence.from_array(b, r=p), n)
    assert out.r == p
    assert out.digits(1, n).tolist() == modp_sum_by_definition(a, b, p)


def ca_by_definition(coeffs: tuple[int, ...], p: int, digits: list[int], N: int) -> list[int]:
    """sum_j (c_j mod p) * in[n + j] accumulated in int64 and reduced once,
    the sum apply_ca took before it reduced after each term in uint8."""
    arr = np.array(digits, dtype=np.int64)
    out = np.zeros(N, dtype=np.int64)
    for j, c in enumerate(coeffs):
        if c % p:
            out += (c % p) * arr[j : j + N]
    return (out % p).tolist()


@settings(max_examples=100)
@given(st.data())
@example(None)
def test_apply_ca_matches_int64_sum(data):
    if data is None:  # every term at its largest: p^2 > 256 widens the sum
        p, coeffs, digits = 17, (16, -1, 33, 16, 16), [16] * 12
    else:
        p = data.draw(st.sampled_from([2, 3, 17]))
        # coefficients that are 0, >= p or negative too
        coeffs = tuple(data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=1, max_size=5)))
        digits = data.draw(st.lists(st.integers(0, p - 1), min_size=len(coeffs) - 1, max_size=40))
    N = len(digits) - (len(coeffs) - 1)
    out = apply_ca(LinearCA(p, coeffs), SymbolicSequence.from_array(digits, r=p), N)
    assert out.r == p
    assert out.digits(1, N).tolist() == ca_by_definition(coeffs, p, digits, N)


def reduce_moduli(dtype) -> list[int]:
    """Moduli whose sums `_reduce` sees in `dtype`.  modp_add sums in uint8
    for p <= 128 and in uint16 up to p = 32768, apply_ca (p prime) in uint8
    for p <= 13 and in uint16 up to 251.  uint8 takes every p below 256;
    uint16 every p below 1024, then every 61st up to 32768 and the powers
    of two with their neighbours (all 32,768 would take seconds)."""
    if dtype == np.uint8:
        return list(range(2, 256))
    powers = [(1 << e) + d for e in range(10, 16) for d in (-1, 0, 1)]
    return sorted({*range(2, 1024), *range(1024, 32769, 61), *powers, 32768})


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_reduce_matches_np_remainder(dtype):
    values = np.arange(np.iinfo(dtype).max + 1, dtype=dtype)
    got, scratch = np.empty_like(values), np.empty_like(values)
    for p in reduce_moduli(dtype):
        got[:] = values
        _reduce(got, p, scratch)
        assert np.array_equal(got, np.remainder(values, p)), p


def test_apply_ca_rejects_negative_n():
    with pytest.raises(DomainError, match="n must be >= 0, got -1"):
        apply_ca(LinearCA(2, (1, 1)), SymbolicSequence.from_array([0, 1, 1]), -1)


def test_ca_needs_a_coefficient():
    with pytest.raises(DomainError, match="need at least one coefficient"):
        LinearCA(2, ())


def test_ca_switch_map():
    # adjacent-sum map marks the switch positions of 0110 0110 ...
    s = SymbolicSequence.periodic([0, 1, 1, 0])
    out = apply_ca(LinearCA(2, (1, 1)), s, 6)
    assert out.digits(1, 6).tolist() == [1, 0, 1, 0, 1, 0]


def test_ca_identity_coeffs():
    s = SymbolicSequence.periodic([0, 1, 1, 0])
    out = apply_ca(LinearCA(2, (1,)), s, 8)
    assert out.digits(1, 8).tolist() == s.digits(1, 8).tolist()


def test_ca_requires_prime_modulus():
    with pytest.raises(DomainError, match="modulus must be prime, got 4"):
        LinearCA(4, (1, 1))


def test_ca_shift_dependence_flag():
    # the output reads in[n + j] only through coefficients nonzero mod p
    s = SymbolicSequence.periodic([0, 1, 1, 0])
    same = s.digits(1, 8).tolist()
    assert apply_ca(LinearCA(2, (1, 2)), s, 8).digits(1, 8).tolist() == same  # 2 = 0 mod 2
    assert apply_ca(LinearCA(2, (1, 1)), s, 8).digits(1, 8).tolist() != same


@settings(max_examples=25)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=40))
def test_ca_commutes_with_shift(bits):
    s = SymbolicSequence.from_array(bits)
    ca = LinearCA(2, (1, 1))
    n = len(bits) - 2
    if n < 1:
        return
    shifted_then_ca = apply_ca(ca, SymbolicSequence.from_array(bits[1:]), n)
    ca_then_shifted = apply_ca(ca, s, n + 1).digits(1, n + 1).tolist()[1:]
    assert shifted_then_ca.digits(1, n).tolist() == ca_then_shifted


# -- toral maps --------------------------------------------------------------


def test_toral_first_image():
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    r = toral_orbit(tm, [Fraction(1, 5), Fraction(2, 5)], 1)
    assert r.points[1] == (Fraction(4, 5), Fraction(3, 5))


def test_toral_exact_orbit_is_periodic():
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    r = toral_orbit(tm, [Fraction(1, 5), Fraction(2, 5)], 30)
    seen = {}
    for i, pt in enumerate(r.points):
        if pt in seen:
            break
        seen[pt] = i
    assert pt in seen and i <= 25  # denominators 5: at most 24 states


def test_toral_orbit_satisfies_recurrence():
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    r = toral_orbit(tm, [Fraction(3, 7), Fraction(1, 7)], 12)
    for a, b in zip(r.points, r.points[1:]):
        assert tuple(apply_map(tm, a)) == b


def test_ergodicity_flags():
    assert ToralMap.from_rows([[2, 0], [0, 2]]).is_ergodic()
    assert ToralMap.from_rows([[2, 1], [1, 1]]).is_ergodic()
    assert not ToralMap.from_rows([[0, 1], [1, 0]]).is_ergodic()  # eigenvalues +-1
    assert not ToralMap.from_rows([[0, -1], [1, 0]]).is_ergodic()  # eigenvalues +-i
    assert not ToralMap.from_rows([[0, -1], [1, 1]]).is_ergodic()  # sixth roots
    assert ToralMap.from_rows([[3]]).is_ergodic()
    assert not ToralMap.from_rows([[1]]).is_ergodic()
    assert not ToralMap.from_rows([[-1]]).is_ergodic()


def test_determinant_spot_values():
    assert ToralMap.from_rows([[-7]]).determinant() == -7
    assert ToralMap.from_rows([[2, 1], [1, 1]]).determinant() == 1
    assert ToralMap.from_rows([[0, 1], [1, 0]]).determinant() == -1  # pivot swap
    assert ToralMap.from_rows([[2, 0, 1], [1, 3, 2], [1, 1, 2]]).determinant() == 6
    assert ToralMap.from_rows([[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]]).determinant() == 210
    assert ToralMap.from_rows([[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]).determinant() == 160


def _leibniz_det(rows):
    d = len(rows)
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(d))
    return total


def _divides(a, b):
    """Whether the monic integer polynomial b divides a (ascending coefficients)."""
    a = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return not any(a)


# the cyclotomic polynomials of degree <= 3, ascending: Phi_1, Phi_2, Phi_3, Phi_4, Phi_6
_CYCLOTOMIC_DEG_LE_3 = ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1])


def _charpoly(rows):
    """det(xI - A) for d <= 3 from the trace and the principal minors."""
    d = len(rows)
    minors = [
        _leibniz_det([[rows[i][j] for j in idx] for i in idx])
        for idx in itertools.combinations(range(d), 2)
    ]
    sums = [1, sum(rows[i][i] for i in range(d)), sum(minors), _leibniz_det(rows)]
    return [(-1) ** k * sums[k] for k in range(d, -1, -1)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_determinant_and_ergodicity_match_charpoly_reference(data):
    d = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d))
    tm = _nonsingular(rows)
    assume(tm is not None)
    assert tm.determinant() == _leibniz_det(rows)
    cp = _charpoly(rows)
    assert tm.is_ergodic() == (not any(_divides(cp, phi) for phi in _CYCLOTOMIC_DEG_LE_3))


def test_singular_matrix_rejected():
    with pytest.raises(DomainError, match="matrix must be nonsingular"):
        ToralMap.from_rows([[1, 1], [1, 1]])


def test_certified_steps_budget():
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    r = toral_orbit(tm, [Fraction(1, 3), Fraction(1, 7)], 100, precision_bits=64)
    # error multiplies by the induced 1-norm (3) per step
    assert 0 < r.certified_steps < 100
    assert r.certified_steps <= (64 - 32) / np.log2(3) + 1


def certified_by_steps(d, growth, precision_bits, output_bits, steps):
    """Certified steps by the definition: grow the error bound step by step."""
    err, cap, k = Fraction(d, 1 << precision_bits), Fraction(1, 1 << output_bits), 0
    while k < steps and err * growth <= cap:
        err *= growth
        k += 1
    return k


@settings(max_examples=300)
@given(
    st.integers(1, 4),
    st.one_of(st.integers(0, 9), st.integers(0, 10**30)),
    st.integers(0, 400),
    st.integers(0, 64),
    st.integers(0, 300),
)
def test_certified_steps_match_the_stepwise_bound(d, growth, precision_bits, output_bits, steps):
    got = _certified_steps(d << output_bits, growth, 1 << precision_bits, steps)
    assert got == certified_by_steps(d, growth, precision_bits, output_bits, steps)


@pytest.mark.parametrize(
    "bits, error",
    [(-1, ValueError), (BUDGETS["orbit precision"].limit + 1, BudgetError), (99999999999, BudgetError)],
)
def test_precision_bits_are_bounded_before_use(bits, error):
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    with pytest.raises(error, match="precision"):
        toral_orbit(tm, [Fraction(1, 5), Fraction(2, 5)], 10, precision_bits=bits)


def test_negative_grid_bits_are_refused_by_name():
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    with pytest.raises(DomainError, match="grid_bits must be >= 0, got -1"):
        toral_orbit(tm, [Fraction(1, 5), Fraction(2, 5)], 10, grid_bits=-1)
    assert toral_orbit(tm, [Fraction(1, 5), Fraction(2, 5)], 10, grid_bits=0).discrepancy == 0.0


def test_certified_steps_at_the_precision_cap():
    # induced 1-norm 10^20: the largest k with 2 * 2^32 * 10^(20k) <= 2^(2^20)
    tm = ToralMap.from_rows([[10**20 - 1, 1], [1, 1]])
    bits = BUDGETS["orbit precision"].limit
    r = toral_orbit(tm, [Fraction(1, 5), Fraction(2, 5)], 20000, precision_bits=bits)
    k = r.certified_steps
    assert 0 < k < 20000
    assert (2 << 32) * 10 ** (20 * k) <= 1 << bits < (2 << 32) * 10 ** (20 * (k + 1))


def test_diagonal_product_map_orbit():
    # componentwise multiplication map (r1 t1, r2 t2): diagonal matrix
    tm = ToralMap.from_rows([[2, 0], [0, 3]])
    r = toral_orbit(tm, [Fraction(1, 7), Fraction(1, 5)], 4)
    assert r.points[1] == (Fraction(2, 7), Fraction(3, 5))
    assert r.ergodic


def _nonsingular(rows):
    try:
        return ToralMap.from_rows(rows)
    except DomainError:
        return None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_orbit_matches_fraction_orbit(data):
    d = data.draw(st.sampled_from([2, 3]))
    entry = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    tm = _nonsingular(rows)
    assume(tm is not None)
    x0 = [Fraction(data.draw(st.integers(-40, 40)), data.draw(st.integers(1, 30))) for _ in range(d)]
    steps = data.draw(st.integers(0, 20))
    grid_bits = data.draw(st.integers(1, 3))
    r = toral_orbit(tm, x0, steps, grid_bits=grid_bits)
    pts = [tuple(c - (c.numerator // c.denominator) for c in x0)]
    for _ in range(steps):
        pts.append(tuple(apply_map(tm, pts[-1])))
    assert len(r.points) == len(pts)
    assert list(r.points) == pts
    assert r.points[1:] == pts[1:]
    cells = 1 << grid_bits
    counts = np.zeros([cells] * d, dtype=np.int64)
    for pt in pts:
        counts[tuple(int(c * cells) % cells for c in pt)] += 1
    assert r.discrepancy == float(np.abs(counts / len(pts) - 1.0 / cells**d).max())


def cell_counts_by_division(tm: ToralMap, x0, steps: int, grid_bits: int) -> np.ndarray:
    """Points per grid cell code, stepping v <- A v mod D and binning with
    (c << grid_bits) // D for any common denominator D: the definition the
    power-of-two stepping replaces."""
    D = math.lcm(*(c.denominator for c in x0))
    v = [c.numerator * (D // c.denominator) % D for c in x0]
    cells = 1 << grid_bits
    counts = np.zeros(cells ** len(v), dtype=np.int64)
    for _ in range(steps + 1):
        f = 0
        for c in v:
            f = f * cells + (c << grid_bits) // D
        counts[f] += 1
        v = [sum(a * c for a, c in zip(row, v)) % D for row in tm.matrix]
    return counts


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@example(data=None)
def test_power_of_two_stepping_matches_division(data):
    if data is None:  # precision_bits 2 under grid_bits 4: D = 4 has fewer bits than a cell code
        tm, x0, steps, grid_bits = ToralMap.from_rows([[2, 1], [1, 1]]), [Fraction(1, 4), Fraction(3, 4)], 12, 4
    else:
        d = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d))
        tm = _nonsingular(rows)
        assume(tm is not None)
        dyadic = st.integers(0, 70).map(lambda k: 1 << k)
        x0 = [
            Fraction(data.draw(st.integers(-(2**72), 2**72)), data.draw(dyadic | st.integers(1, 40)))
            for _ in range(d)
        ]
        steps = data.draw(st.integers(0, 40))
        grid_bits = data.draw(st.integers(0, 12 // d))
    counts = cell_counts_by_division(tm, x0, steps, grid_bits)
    D = math.lcm(*(c.denominator for c in x0))
    real, seen = algsys._dyadic_visits, []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with mock.patch.object(algsys, "_dyadic_visits", spy):
        r = toral_orbit(tm, x0, steps, grid_bits=grid_bits)
    assert len(seen) == (D & (D - 1) == 0)  # the fast path runs exactly for a power of two
    if seen:
        assert sorted(seen[0].items()) == [(f, int(k)) for f, k in enumerate(counts) if k]
    cells = 1 << grid_bits
    assert r.discrepancy == float(np.abs(counts / (steps + 1) - 1.0 / cells**tm.dimension).max())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbit_points_read_like_a_list(data):
    # the points are recomputed on demand; iteration, indexing and slicing
    # must read as the list of a plain iteration of the Fraction map
    tm = data.draw(st.sampled_from([ToralMap.from_rows([[2, 1], [1, 1]]), ToralMap.from_rows([[3, 1], [2, 1]])]))
    x0 = [Fraction(data.draw(st.integers(0, 60)), data.draw(st.integers(1, 61))) for _ in range(2)]
    steps = data.draw(st.integers(0, 25))
    pts = [tuple(c - (c.numerator // c.denominator) for c in x0)]
    for _ in range(steps):
        pts.append(tuple(apply_map(tm, pts[-1])))
    points = toral_orbit(tm, x0, steps).points
    assert len(points) == steps + 1
    assert list(points) == pts
    assert points[steps] == points[-1] == pts[-1]
    k = data.draw(st.integers(-steps - 1, steps))
    assert points[k] == pts[k]
    for bad in (steps + 1, -steps - 2):
        with pytest.raises(IndexError):
            points[bad]
    cut = slice(
        data.draw(st.none() | st.integers(-steps - 3, steps + 3)),
        data.draw(st.none() | st.integers(-steps - 3, steps + 3)),
        data.draw(st.none() | st.integers(-4, 4).filter(bool)),
    )
    assert points[cut] == pts[cut]


def test_orbit_keeps_no_orbit_vectors():
    # 10^4 steps of 4096-bit vectors: the stored orbit peaked at 11.7 MiB
    tm = ToralMap.from_rows([[2, 1], [1, 1]])
    x0 = [Fraction((1 << 4096) // 3, 1 << 4096), Fraction((1 << 4096) // 7, 1 << 4096)]
    tracemalloc.start()
    try:
        r = toral_orbit(tm, x0, 10**4, grid_bits=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"peaked at {peak / 2**20:.1f} MiB"
    assert len(r.points) == 10**4 + 1 and r.as_dict()["steps"] == 10**4
