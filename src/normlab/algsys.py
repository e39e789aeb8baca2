"""Desk-scale algebraic dynamics: mod-p digit streams, linear cellular
automata, and integer toral endomorphism orbits.

Ergodicity of an integer matrix map on the torus means no eigenvalue is a
root of unity; this is decided exactly by integer determinants: no
det(A^m - I) vanishes for the orders m a root-of-unity eigenvalue can have.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Optional, Union

import numpy as np

from .errors import DomainError, rational, within
from .seqcore import SymbolicSequence

OUTPUT_BITS = 32  # certified_steps counts the steps whose error stays within 2^-OUTPUT_BITS


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# coordinatewise mod-p streams


def modp_add(s1: SymbolicSequence, s2: SymbolicSequence, N: int) -> SymbolicSequence:
    """Digit-wise (a + b) mod p; no carry."""
    p = s1.r
    if s2.r != p:
        raise DomainError(
            f"modulus mismatch: {p} vs {s2.r}"
        )
    out = s1.digits(1, N).astype(np.min_scalar_type(2 * (p - 1)))  # uint8 unless 2(p - 1) > 255
    out += s2.digits(1, N)
    _reduce(out, p, np.empty_like(out))
    return SymbolicSequence.from_array(out, r=p)


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> None:
    """x %= p in place, as x - p * (x // p) through `scratch` (x's shape and
    dtype): numpy divides unsigned ints by a constant in a SIMD loop but has
    none for remainder: 0.2 against 2.3 ms per 2^20 uint8 digits."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch


# ---------------------------------------------------------------------------
# linear cellular automata


@dataclass(frozen=True)
class LinearCA:
    """out[n] = sum_j coeffs[j] * in[n + j] mod p."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise DomainError(f"modulus must be prime, got {self.p}")
        if not self.coeffs:
            raise DomainError("need at least one coefficient")

    @property
    def reach(self) -> int:
        return len(self.coeffs) - 1


def apply_ca(ca: LinearCA, s: SymbolicSequence, N: int) -> SymbolicSequence:
    """Apply the automaton to the first N + reach input digits."""
    p, k = ca.p, ca.reach
    if s.r != p:
        raise DomainError(f"stream alphabet {s.r} != modulus {p}")
    if N < 0:
        raise DomainError(f"n must be >= 0, got {N}")
    if s.horizon is not None and s.horizon < N + k:
        raise DomainError(f"need {N + k} digits, horizon is {s.horizon}")
    arr = s.digits(1, N + k).astype(np.min_scalar_type(p * (p - 1)))  # the sum, reduced after each term, is < p^2
    out, term = np.zeros(N, dtype=arr.dtype), np.empty(N, dtype=arr.dtype)
    for j, c in enumerate(ca.coeffs):
        if c % p:
            out += np.multiply(arr[j : j + N], c % p, out=term)
            _reduce(out, p, term)
    return SymbolicSequence.from_array(out, r=p)


# ---------------------------------------------------------------------------
# integer determinants


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay integers."""
    M = [list(row) for row in rows]
    d = len(M)
    sign, prev = 1, 1
    for k in range(d - 1):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, d) if M[i][k]), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


# ---------------------------------------------------------------------------
# toral endomorphisms


@dataclass(frozen=True)
class ToralMap:
    """x -> A x mod 1 on the d-torus for a nonsingular integer matrix A."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.matrix)
        if d < 1 or any(len(row) != d for row in self.matrix):
            raise DomainError("matrix must be square")
        if self.determinant() == 0:
            raise DomainError("matrix must be nonsingular")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ToralMap":
        """Build from a list of rows of integers, e.g. parsed JSON."""
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple))
            and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
            for row in rows
        ):
            raise DomainError(f"matrix must be a list of rows of integers, got {rows!r}")
        return cls(tuple(tuple(row) for row in rows))

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def determinant(self) -> int:
        return _det(self.matrix)

    def induced_one_norm(self) -> int:
        return max(
            sum(abs(self.matrix[i][j]) for i in range(self.dimension))
            for j in range(self.dimension)
        )

    def is_ergodic(self) -> bool:
        """No eigenvalue is a root of unity: det(A^m - I) != 0 for m = 1..2d^2+6.

        A root-of-unity eigenvalue of order m is a root of the m-th
        cyclotomic polynomial, so phi(m) <= d; phi(m) >= sqrt(m/2) then
        gives m <= 2d^2, and every such order is covered.
        """
        A = self.matrix
        d = self.dimension
        power = A
        for m in range(1, 2 * d * d + 7):
            if m > 1:
                power = [[sum(p * a for p, a in zip(row, col)) for col in zip(*A)] for row in power]
            if _det([[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(power)]) == 0:
                return False
        return True


def _numerators(A: tuple[tuple[int, ...], ...], v: tuple[int, ...], D: int, steps: int):
    """v, then each of `steps` images under v <- A v mod D."""
    yield v
    for _ in range(steps):
        v = tuple(sum(a * c for a, c in zip(row, v)) % D for row in A)
        yield v


def _dyadic_visits(A: tuple[tuple[int, ...], ...], v: list[int], k: int, steps: int, grid_bits: int) -> dict[int, int]:
    """Points per grid cell code of v, then each of `steps` images under
    v <- A v mod 2^k, for k >= grid_bits: the reduction is a mask and a
    coordinate's cell is its top grid_bits bits, where any other D needs
    `% D` and `(c << grid_bits) // D`.  10^4 steps of 4096-bit 2 x 2
    vectors take 14 ms with the step unrolled, about 30 ms through the
    general step, and 90 ms with `%` and `//`."""
    mask, drop = (1 << k) - 1, k - grid_bits
    visits: dict[int, int] = {}
    if len(A) == 2:
        (a, b), (c, e) = A
        x, y = v
        for _ in range(steps + 1):
            f = (x >> drop) << grid_bits | (y >> drop)
            visits[f] = visits.get(f, 0) + 1
            x, y = (a * x + b * y) & mask, (c * x + e * y) & mask
        return visits
    for _ in range(steps + 1):
        f = 0
        for c in v:
            f = (f << grid_bits) | (c >> drop)
        visits[f] = visits.get(f, 0) + 1
        v = [sum(map(operator.mul, row, v)) & mask for row in A]
    return visits


class OrbitPoints(Sequence):
    """Orbit points x_k = v_k / D, k = 0 .. steps: integer numerator vectors
    over one common denominator D, recomputed on demand from v_0, so only
    one vector is held at a time.  Iteration steps once per point, x[k]
    steps k times, and each point is built as a tuple of Fractions."""

    def __init__(self, v0: tuple[int, ...], matrix: tuple[tuple[int, ...], ...], denominator: int, steps: int):
        self._v0, self._A, self._den, self._steps = v0, matrix, denominator, steps

    def _point(self, v: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in v)

    def _points(self, start: int, stop: int, step: int = 1):
        return map(self._point, islice(_numerators(self._A, self._v0, self._den, self._steps), start, stop, step))

    def __len__(self) -> int:
        return self._steps + 1

    def __iter__(self):
        return self._points(0, None)

    def __getitem__(self, i):
        if isinstance(i, slice):
            at = range(len(self))[i]
            if at.step < 0:
                return self[at[-1] : at[0] + 1 : -at.step][::-1] if at else []
            return list(self._points(at.start, at.stop, at.step))
        k = range(len(self))[i]
        return next(self._points(k, k + 1))


@dataclass
class OrbitResult:
    points: Sequence[tuple[Fraction, ...]]
    ergodic: bool
    certified_steps: int
    discrepancy: Optional[float] = None
    grid_bits: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "steps": len(self.points) - 1,
            "ergodic": self.ergodic,
            "certified_steps": self.certified_steps,
            "discrepancy": self.discrepancy,
            "grid_bits": self.grid_bits,
            "first_points": [
                [str(c) for c in pt] for pt in self.points[: min(4, len(self.points))]
            ],
        }


def _certified_steps(err: int, growth: int, cap: int, steps: int) -> int:
    """The largest k <= steps with err * growth^k <= cap (k = 0 always).

    Binary lifting over growth^(2^i) takes O(log steps) products of at most
    bits(cap) bits, where stepping k one at a time takes O(steps^2) bits.
    """
    if growth <= 1:
        return steps if growth == 0 or err <= cap else 0
    lim = cap // err  # err * x <= cap exactly when x <= lim
    pows = [growth]  # growth^(2^i) <= lim, for 2^i <= steps
    while 1 << len(pows) <= steps and pows[-1] ** 2 <= lim:
        pows.append(pows[-1] ** 2)
    k, acc = 0, 1
    for i in reversed(range(len(pows))):
        if k + (1 << i) <= steps and acc * pows[i] <= lim:
            acc *= pows[i]
            k += 1 << i
    return k


def check_precision_bits(precision_bits: int) -> None:
    """Raise unless 0 <= precision_bits, within the orbit precision budget."""
    if precision_bits < 0:
        raise DomainError(f"precision_bits must be >= 0, got {precision_bits}")
    within("orbit precision", precision_bits)


def toral_orbit(
    tmap: ToralMap,
    x0: Sequence[Union[Fraction, str, int]],
    steps: int,
    precision_bits: Optional[int] = None,
    grid_bits: int = 4,
) -> OrbitResult:
    """Orbit of x0 under x -> Ax mod 1, computed exactly, plus a
    box-counting discrepancy over a 2^grid_bits-per-axis grid.

    With D the common denominator of x0, every orbit point is v / D for an
    integer vector v, so the orbit is iterated as v <- A v mod D and the
    grid cell of a coordinate is (v_i * 2^grid_bits) // D: a mask and a
    shift when D is a power of two, as it is for every dyadic x0.

    `precision_bits` declares how many bits of x0 are trusted; the error of
    the true orbit grows by at most the induced 1-norm of A per step, and
    `certified_steps` is how many steps stay within 2^-OUTPUT_BITS.  Exact
    rational inputs (precision_bits=None) certify every step.

    Raises BudgetError, before iterating, beyond the orbit budgets: the cell
    histogram has 2^(d * grid_bits) entries, and each of the steps
    multiplies d^2 integers below D.  No orbit vector is kept: each point's
    cell is counted as the orbit steps, and `points` recomputes the points
    on demand.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if grid_bits < 0:
        raise DomainError(f"grid_bits must be >= 0, got {grid_bits}")
    d = tmap.dimension
    within("orbit grid", d * grid_bits)
    within("orbit steps", steps)
    if precision_bits is not None:
        check_precision_bits(precision_bits)
    x = [rational(c) for c in x0]
    if len(x) != d:
        raise DomainError("dimension mismatch between x0 and the matrix")
    D = lcm(*(c.denominator for c in x))
    within("orbit storage", steps * d * D.bit_length())
    v0 = tuple(c.numerator * (D // c.denominator) % D for c in x)
    if precision_bits is None:
        certified = steps
    else:
        # the error after k steps, d * growth^k / 2^precision_bits, in
        # integers scaled by 2^(precision_bits + OUTPUT_BITS)
        certified = _certified_steps(d << OUTPUT_BITS, tmap.induced_one_norm(), 1 << precision_bits, steps)
    cells = 1 << grid_bits
    if D & (D - 1) == 0:
        # scaled by 2^lift, the numerators step mod 2^k with k >= grid_bits
        lift = max(0, grid_bits - D.bit_length() + 1)
        visits = _dyadic_visits(tmap.matrix, [c << lift for c in v0], D.bit_length() - 1 + lift, steps, grid_bits)
    else:
        visits = {}  # cell code -> points in that cell
        for v in _numerators(tmap.matrix, v0, D, steps):
            f = 0
            for c in v:
                f = f * cells + ((c << grid_bits) // D)
            visits[f] = visits.get(f, 0) + 1
    counts = np.zeros(cells**d, dtype=np.int64)
    counts[list(visits)] = list(visits.values())
    freq = counts / (steps + 1)
    disc = float(np.abs(freq - 1.0 / cells**d).max())
    return OrbitResult(
        points=OrbitPoints(v0, tmap.matrix, D, steps),
        ergodic=tmap.is_ergodic(),
        certified_steps=certified,
        discrepancy=disc,
        grid_bits=grid_bits,
    )
