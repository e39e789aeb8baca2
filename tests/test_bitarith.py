from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.bitarith import (
    DomainError,
    FixedPointNumber,
    PrecisionError,
    carry_add,
    mod1,
    mul,
    mul_rational,
    neg,
    shifted_sum,
    stream_carry_add,
)
from normlab.generators import kappa_sequence, splitmix64, y_sequence
from normlab.seqcore import SymbolicSequence


def fp(value, N=32, G=8) -> FixedPointNumber:
    """Round a rational toward zero at N+G fractional bits (err <= 1 ulp,
    0 when the value is an exactly representable dyadic)."""
    v = Fraction(value)
    mant, rem = divmod(abs(v.numerator) << (N + G), v.denominator)
    return FixedPointNumber(mant, N + G, G, -1 if v < 0 else 1, 0 if rem == 0 else 1)


def binary_fraction_digits(value: Fraction, count: int) -> list[int]:
    # independent oracle: repeated doubling
    out = []
    v = value - (value.numerator // value.denominator)
    for _ in range(count):
        v *= 2
        d = v.numerator // v.denominator
        out.append(int(d))
        v -= d
    return out


# -- carry_add ---------------------------------------------------------------


def test_carry_chain():
    s = carry_add(fp(Fraction(7, 16)), fp(Fraction(1, 16)))
    assert s.value() == Fraction(1, 2)
    assert s.fraction_digits(4, False).tolist() == [1, 0, 0, 0]


def test_add_identity():
    x = fp(Fraction(5, 8))
    assert carry_add(x, fp(0)).value() == x.value()


def test_add_alignment():
    a = fp(Fraction(1, 4), 8, 2)
    b = fp(Fraction(1, 8), 16, 4)
    s = carry_add(a, b)
    assert s.value() == Fraction(3, 8)
    assert s.frac_bits == 20
    with pytest.raises(PrecisionError):
        carry_add(a, b, auto_align=False)


def test_regular_tail_pattern():
    # a block A followed by the alternating tail, plus the same sequence
    # shifted right by an even n: the sum's tail flips parity after the
    # second irregular block, which ends at coordinate n + len(A) - 1
    A = [1, 1, 0]
    n, total = 12, 64
    eta = A + [1, 0] * ((total - len(A)) // 2 + 1)
    eta = eta[:total]
    eta_val = sum(Fraction(d, 2**i) for i, d in enumerate(eta, start=1))
    zeta_val = eta_val / 2**n
    want = binary_fraction_digits(eta_val + zeta_val, total)
    got = carry_add(
        fp(eta_val, total, 0),
        fp(zeta_val, total, 0),
    )
    assert got.fraction_digits(total, False).tolist() == want
    # regular pattern between the irregular blocks, flipped parity after the
    # second irregular block (which spans positions n-1 .. n+len(A))
    mid = want[len(A) : n - 2]
    assert mid == ([1, 0] * len(mid))[: len(mid)]
    tail = want[n + len(A) :]
    assert tail == ([0, 1] * len(tail))[: len(tail)]


@settings(max_examples=30)
@given(st.integers(0, 2**24 - 1), st.integers(0, 2**24 - 1), st.integers(0, 2**24 - 1))
def test_add_commutes_and_associates_exactly(a, b, c):
    xs = [FixedPointNumber(v, 30, 4) for v in (a, b, c)]
    ab = carry_add(xs[0], xs[1])
    assert ab.value() == carry_add(xs[1], xs[0]).value()
    abc1 = carry_add(ab, xs[2])
    abc2 = carry_add(xs[0], carry_add(xs[1], xs[2]))
    assert abc1.value() == abc2.value()
    assert abc1.err_ulps == 0


def test_disjoint_support_sum_is_digitwise():
    a_bits = [1, 0, 0, 1, 0, 0, 0, 0]
    b_bits = [0, 1, 0, 0, 0, 1, 0, 1]
    a = FixedPointNumber.from_sequence(SymbolicSequence.from_array(a_bits), 8, 0, exact=True)
    b = FixedPointNumber.from_sequence(SymbolicSequence.from_array(b_bits), 8, 0, exact=True)
    s = carry_add(a, b)
    assert s.fraction_digits(8, False).tolist() == [x | y for x, y in zip(a_bits, b_bits)]


# -- neg ---------------------------------------------------------------------


def test_neg_examples():
    assert neg(fp(Fraction(5, 8))).value() == Fraction(3, 8)
    assert neg(fp(0)).value() == 0


def test_neg_mirror_before_final_ulp():
    x = FixedPointNumber(0b101101, 6, 0)
    n = neg(x)
    assert n.mant == (0b010010 + 1)  # bitwise mirror plus one ulp


def test_neg_is_mod1_inverse():
    for mant in (1, 77, 12345, 2**20 - 1):
        x = FixedPointNumber(mant, 20, 4)
        assert mod1(carry_add(x, neg(x))).fraction_mant() == 0


def test_neg_domain():
    with pytest.raises(DomainError):
        neg(FixedPointNumber(3 << 8, 8, 2))  # integer part 3


# -- mul_rational ------------------------------------------------------------


def test_mul_rational_identity_and_shift():
    x = fp(Fraction(5, 8), 16, 4)
    assert mul_rational(x, 1, 1, 16).value() == x.value()
    doubled = mul_rational(x, 2, 1, 16)
    assert doubled.value() == x.value() * 2
    # doubling shifts the fraction digits left by one
    assert doubled.fraction_digits(8, False).tolist() == [0, 1, 0, 0, 0, 0, 0, 0]


def test_mul_rational_z_prefix():
    y = FixedPointNumber.from_sequence(y_sequence(), 4096, 64, integer_part=1)
    z = mul_rational(y, 4, 3, 4096)
    assert z.integer_part() == 1
    assert z.fraction_digits(10).tolist() == [1, 0, 1, 0, 1, 1, 0, 0, 0, 1]


def test_mul_rational_rejects_zero_q():
    with pytest.raises(DomainError):
        mul_rational(fp(Fraction(1, 2)), 1, 0, 8)


@settings(max_examples=50)
@given(
    st.integers(0, 2**40 - 1),
    st.integers(1, 1000),
    st.integers(1, 1000),
)
def test_mul_rational_roundtrip(mant, p, q):
    N, G = 64, 64
    x = FixedPointNumber(mant << 24, N + G, G)
    z = mul_rational(mul_rational(x, p, q, N, G), q, p, N, G)
    assert abs(z.value() - x.value()) <= Fraction(2, 2**N)


def mul_rational_by_long_division(x: FixedPointNumber, p: int, q: int, N: int, G: int):
    """The defining formula: one long division of mant * |p| * 2^(N+G) by
    q * 2^frac_bits, error rounded up, one more ulp for a nonzero remainder."""
    F = N + G
    den = q << x.frac_bits
    mant, rem = divmod(x.mant * abs(p) << F, den)
    err = -((-(x.err_ulps * abs(p) << F)) // den) + (1 if rem else 0)
    return mant, err, x.sign * (1 if p > 0 else -1)


@settings(max_examples=300)
@pytest.mark.parametrize("shrink", [True, False], ids=["k>=0", "k<0"])
@given(data=st.data())
def test_mul_rational_matches_long_division(shrink, data):
    frac_bits = data.draw(st.integers(1, 96))
    x = FixedPointNumber(
        data.draw(st.integers(0, 2 ** (frac_bits + 4))),
        frac_bits,
        data.draw(st.integers(0, frac_bits)),
        data.draw(st.sampled_from([1, -1])),
        data.draw(st.integers(0, 2**12)),
    )
    # k = frac_bits - F: output bits dropped (k >= 0) or appended (k < 0)
    k = data.draw(st.integers(0, frac_bits) if shrink else st.integers(-64, -1))
    G = data.draw(st.integers(0, frac_bits - k))
    N = frac_bits - k - G
    p = data.draw(st.integers(1, 2**40) | st.integers(-1000, -1))
    q = data.draw(st.integers(1, 1000) | st.integers(1, 2**70))
    z = mul_rational(x, p, q, N, G)
    assert (z.mant, z.err_ulps, z.sign) == mul_rational_by_long_division(x, p, q, N, G)
    assert (z.frac_bits, z.guard_bits) == (N + G, G)


# -- mul ---------------------------------------------------------------------


def test_mul_quarter_half():
    a = fp(Fraction(1, 4), 16, 8)
    b = fp(Fraction(1, 2), 16, 8)
    prod = mul(a, b, 8, 8)
    assert prod.value() == Fraction(1, 8)
    assert prod.fraction_digits(3, False).tolist() == [0, 0, 1]


def test_mul_identity():
    x = fp(Fraction(3, 7), 64, 16)
    one = fp(1, 64, 16)
    prod = mul(x, one, 48, 16)
    assert abs(prod.value() - x.value()) <= prod.error_bound()
    exact = FixedPointNumber(0b1011 << 60, 64, 16)  # a dyadic: product is exact
    assert mul(exact, fp(1, 64, 16), 48, 16).value() == exact.value()


def test_mul_precision_check():
    with pytest.raises(PrecisionError):
        mul(fp(Fraction(1, 2), 8, 4), fp(Fraction(1, 2), 8, 4), 32, 16)


def test_mul_error_envelope():
    # with operand errors at <= 1 ulp the reported error stays within the
    # (|x| + |y| + 1) envelope at the output scale
    x = replace(fp(Fraction(1, 3), 128, 32), err_ulps=1)
    y = replace(fp(Fraction(2, 3), 128, 32), err_ulps=1)
    prod = mul(x, y, 96, 32)
    assert prod.err_ulps <= 3


# -- shifted_sum -------------------------------------------------------------


def test_shifted_sum_simple():
    seq = SymbolicSequence.from_array([1, 0, 0, 0])
    s = shifted_sum(seq, [0, 2], 8, 8)
    assert abs(s.value() - Fraction(5, 8)) <= s.error_bound()
    assert s.fraction_digits(3).tolist() == [1, 0, 1]


def test_shifted_sum_of_ones_gives_sum_of_powers():
    # each copy of 0.111... is within 1 ulp of 2^-s, so the sum tracks the
    # plain power sum over the shift set
    ones = SymbolicSequence.constant(1)
    shifts = [0, 2, 8, 10]
    s = shifted_sum(ones, shifts, 64, 16)
    want = sum(Fraction(1, 2**k) for k in shifts)
    assert abs(s.value() - want) <= s.error_bound()
    assert s.integer_part() == 1


def test_shifted_sum_matches_mul_for_sparse_multipliers():
    # cross-oracle on 100 random sparse multipliers: multiplying by a number
    # whose fraction is a finite indicator equals summing shifted copies
    N, G = 256, 64
    kap = kappa_sequence()
    x = FixedPointNumber.from_sequence(kap, N, G)
    for trial in range(100):
        positions = sorted({1 + splitmix64(5, 10 * trial + i) % 200 for i in range(6)})
        mult_bits = np.zeros(N + G, dtype=np.uint8)
        for pos in positions:
            mult_bits[pos - 1] = 1
        mult = FixedPointNumber.from_sequence(
            SymbolicSequence.from_array(mult_bits), N, G, exact=True
        )
        via_mul = mul(x, mult, N, G)
        via_shift = shifted_sum(kap, positions, N, G)
        agree = min(via_mul.certified_digit_count(), via_shift.certified_digit_count())
        assert agree >= N - 16
        assert (via_mul.fraction_digits(agree) == via_shift.fraction_digits(agree)).all()


def test_shifted_sum_drops_far_shifts():
    seq = SymbolicSequence.constant(1)
    s = shifted_sum(seq, [10**6], 32, 8)
    assert s.mant == 0 and s.err_ulps == 2


# -- streaming carry ---------------------------------------------------------


def test_stream_all_ambiguous():
    s1 = SymbolicSequence.periodic([0, 1])
    s2 = SymbolicSequence.periodic([1, 0])
    digits, amb = stream_carry_add(s1, s2, 32, 16)
    assert amb.all()


def test_stream_add_zero_identity():
    s1 = kappa_sequence()
    zero = SymbolicSequence.constant(0)
    digits, amb = stream_carry_add(s1, zero, 100, 16)
    assert not amb.any()
    assert (digits == s1.prefix(100)).all()


def test_stream_matches_batch_on_kappa_shift():
    N, cap = 10**4, 64
    kap = kappa_sequence()
    arr = np.concatenate([np.zeros(2, dtype=np.uint8), kap.prefix(N + cap - 2)])
    shifted = SymbolicSequence.from_array(arr)
    digits, amb = stream_carry_add(kap, shifted, N, cap)
    a = FixedPointNumber.from_sequence(kap, N + cap, 0, exact=True)
    b = FixedPointNumber.from_sequence(shifted, N + cap, 0, exact=True)
    batch = mod1(carry_add(a, b)).fraction_digits(N, certified_only=False)
    ok = ~amb
    assert ok.sum() > 0.99 * N
    assert (digits[ok] == batch[ok]).all()


def test_certified_digits_shrink_with_error():
    x = FixedPointNumber(0b1010101010101010, 16, 8, err_ulps=0)
    assert x.certified_digit_count() == 8
    noisy = replace(x, err_ulps=1 << 9)  # more than the guard region can absorb
    assert noisy.certified_digit_count() < 8


def certified_digit_count_by_bits(x: FixedPointNumber) -> int:
    """The defining search: lower t one bit at a time until lo and hi agree
    on their first t fractional digits."""
    lo, hi = x.mant - x.err_ulps, x.mant + x.err_ulps
    if lo < 0:
        return 0
    t = x.certified_bits
    while t > 0 and (lo >> (x.frac_bits - t)) != (hi >> (x.frac_bits - t)):
        t -= 1
    return t


@settings(max_examples=300)
@given(data=st.data())
def test_certified_digit_count_matches_bit_search(data):
    frac_bits = data.draw(st.integers(0, 80))
    mant = data.draw(st.integers(0, 2 ** (frac_bits + 3)))
    err = data.draw(st.integers(0, 2 ** (frac_bits + 2)) | st.integers(0, 16))
    x = FixedPointNumber(mant, frac_bits, data.draw(st.integers(0, frac_bits)), 1, err)
    assert x.certified_digit_count() == certified_digit_count_by_bits(x)
