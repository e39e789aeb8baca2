from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab import seqcore
from normlab.bitarith import (
    DomainError,
    FixedPointNumber,
    _fft_error_bound,
    _int_to_bits,
    _product,
    carry_add,
    mod1,
    mul,
    mul_rational,
    neg,
    shifted_sum,
    stream_carry_add,
)
from normlab.generators import bernoulli_stream, kappa_sequence, splitmix64, y_sequence
from normlab.seqcore import SymbolicSequence, block_counts

from helpers import constant


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
    a = FixedPointNumber.from_sequence(SymbolicSequence.from_array(a_bits), 8, 0)
    b = FixedPointNumber.from_sequence(SymbolicSequence.from_array(b_bits), 8, 0)
    s = carry_add(a, b)
    assert s.fraction_digits(8, False).tolist() == [x | y for x, y in zip(a_bits, b_bits)]


def test_from_sequence_error_follows_the_horizon():
    bits = SymbolicSequence.from_array([1, 0, 1, 1])
    assert FixedPointNumber.from_sequence(bits, 4, 0).err_ulps == 0  # every digit read, none dropped
    assert FixedPointNumber.from_sequence(constant(1), 4, 0).err_ulps == 1  # an unread tail below 1 ulp
    short = FixedPointNumber.from_sequence(bits, 6, 2)  # 8 fractional bits, 4 of them known
    assert short.value() == Fraction(0b1011, 16)
    assert short.err_ulps == 1 << 4


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
    assert mul_rational(x, 1, 1, 16, 4).value() == x.value()
    doubled = mul_rational(x, 2, 1, 16, 4)
    assert doubled.value() == x.value() * 2
    # doubling shifts the fraction digits left by one
    assert doubled.fraction_digits(8, False).tolist() == [0, 1, 0, 0, 0, 0, 0, 0]


def test_mul_rational_z_prefix():
    y = FixedPointNumber.from_sequence(y_sequence(), 4096, 64, integer_part=1)
    z = mul_rational(y, 4, 3, 4096, 64)
    assert z.integer_part() == 1
    assert z.fraction_digits(10).tolist() == [1, 0, 1, 0, 1, 1, 0, 0, 0, 1]


def test_mul_rational_rejects_zero_q():
    with pytest.raises(DomainError):
        mul_rational(fp(Fraction(1, 2)), 1, 0, 8, 8)


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
    with pytest.raises(DomainError, match="operands carry 12 and 12 fractional bits, need >= 48"):
        mul(fp(Fraction(1, 2), 8, 4), fp(Fraction(1, 2), 8, 4), 32, 16)


def test_mul_error_envelope():
    # with operand errors at <= 1 ulp the reported error stays within the
    # (|x| + |y| + 1) envelope at the output scale
    x = replace(fp(Fraction(1, 3), 128, 32), err_ulps=1)
    y = replace(fp(Fraction(2, 3), 128, 32), err_ulps=1)
    prod = mul(x, y, 96, 32)
    assert prod.err_ulps <= 3


@st.composite
def product_operands(draw):
    """Nonnegative integers of 0 .. 2^17 + 3 bits: random, all-ones (every
    limb 0xFF, the largest limb norm) or a power of two."""
    bits = draw(st.sampled_from([0, 1, 7, 64, 1 << 12, (1 << 14) - 1, 1 << 14, 3 << 13, 1 << 16, (1 << 17) + 3]))
    kind = draw(st.sampled_from(["random", "ones", "power"]))
    if kind == "ones":
        return (1 << bits) - 1
    if kind == "power":
        return 1 << bits >> 1
    raw = np.random.default_rng(draw(st.integers(0, 2**32))).bytes((bits + 7) // 8)
    return int.from_bytes(raw, "little") >> ((-bits) % 8)


@settings(max_examples=150, deadline=None)
@given(product_operands(), product_operands())
@example((1 << (1 << 17)) - 1, (1 << (1 << 17)) - 1)
@example((1 << (1 << 17)) - 1, (1 << (1 << 14)) - 1)  # lopsided: Karatsuba
@example(0, (1 << (1 << 17)) - 1)
@example((1 << (1 << 20) + 64) - 1, (1 << (1 << 20) + 64) - 1)  # cli-session's mul: peels 8 limbs
def test_product_matches_python_multiplication(a, b):
    sizes = []
    irfft = np.fft.irfft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "irfft", lambda spectrum, n: sizes.append(n) or irfft(spectrum, n))
        assert _product(a, b) == a * b
    # the FFT runs exactly when the smaller operand has 2^14 bits and 1/16 of
    # the larger's; a coefficient count up to 128 above a power of two P first
    # loses ceil((count - P) / 2) low limbs of each operand
    small, big = sorted((a.bit_length(), b.bit_length()))
    n_coeffs = (small + 7) // 8 + (big + 7) // 8 - 1
    if small >= max(1 << 14, big >> 4):
        peel = (n_coeffs - (1 << (n_coeffs - 1).bit_length() - 1) + 1) // 2
        if peel <= 64:
            small, big, n_coeffs = small - 8 * peel, big - 8 * peel, n_coeffs - 2 * peel
    fft = small >= max(1 << 14, big >> 4)
    assert sizes == ([1 << (n_coeffs - 1).bit_length()] if fft else [])


def test_fft_error_bound_at_the_budget_edge():
    # two all-ones operands of 2^26 bits: 2^23 limbs of 0xFF each, a
    # convolution of length 2^24; rounding is exact while the bound is < 1/2
    norm2 = (1 << 23) * 255**2
    edge = _fft_error_bound(24, norm2, norm2)
    assert edge < 0.05
    assert _fft_error_bound(18, (1 << 17) * 255**2, (1 << 17) * 255**2) < 1e-3 < edge


def mul_by_formula(x: FixedPointNumber, y: FixedPointNumber, N: int, G: int):
    """mant * mant shifted to N + G bits, and the error radius
    |x| err_y + |y| err_x + err_x err_y rounded up, plus one ulp when bits are dropped."""
    shift = x.frac_bits + y.frac_bits - (N + G)
    prod = x.mant * y.mant
    err_scaled = x.mant * y.err_ulps + y.mant * x.err_ulps + x.err_ulps * y.err_ulps
    return prod >> shift, -((-err_scaled) >> shift) + (1 if prod & ((1 << shift) - 1) else 0)


@pytest.mark.parametrize("err_bits", [0, 1, 40, 1 << 15])
def test_mul_above_the_fft_crossover_matches_formula(err_bits):
    N, G = 1 << 16, 64
    rng = np.random.default_rng(err_bits)
    mants = [int.from_bytes(rng.bytes((N + G) // 8 + 1), "little") for _ in range(2)]
    errs = [int.from_bytes(rng.bytes(err_bits // 8 + 1), "little") >> ((-err_bits) % 8) for _ in range(2)]
    x = FixedPointNumber(mants[0], N + G + 3, G, -1, errs[0])
    y = FixedPointNumber(mants[1], N + G, G, 1, errs[1])
    prod = mul(x, y, N, G)
    assert (prod.mant, prod.err_ulps) == mul_by_formula(x, y, N, G)
    assert (prod.frac_bits, prod.guard_bits, prod.sign) == (N + G, G, -1)


# -- shifted_sum -------------------------------------------------------------


def test_shifted_sum_simple():
    seq = SymbolicSequence.from_array([1, 0, 0, 0])
    s = shifted_sum(seq, [0, 2], 8, 8)
    assert abs(s.value() - Fraction(5, 8)) <= s.error_bound()
    assert s.fraction_digits(3).tolist() == [1, 0, 1]


def test_shifted_sum_of_ones_gives_sum_of_powers():
    # each copy of 0.111... is within 1 ulp of 2^-s, so the sum tracks the
    # plain power sum over the shift set
    ones = constant(1)
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
        mult = FixedPointNumber.from_sequence(SymbolicSequence.from_array(mult_bits), N, G)
        via_mul = mul(x, mult, N, G)
        via_shift = shifted_sum(kap, positions, N, G)
        agree = min(via_mul.certified_digit_count(), via_shift.certified_digit_count())
        assert agree >= N - 16
        assert (via_mul.fraction_digits(agree) == via_shift.fraction_digits(agree)).all()


def test_shifted_sum_drops_far_shifts():
    seq = constant(1)
    s = shifted_sum(seq, [10**6], 32, 8)
    assert s.mant == 0 and s.err_ulps == 2


# -- streaming carry ---------------------------------------------------------


def test_stream_all_ambiguous():
    s1 = SymbolicSequence.periodic([0, 1])
    s2 = SymbolicSequence.periodic([1, 0])
    digits, amb = stream_carry_add(s1, s2, 32, 16)
    assert amb.all()


def test_stream_negative_lookahead_is_refused():
    # checked before the doubling loop, which would never end below 0
    s = SymbolicSequence.periodic([0, 1])
    with pytest.raises(DomainError, match="lookahead_cap must be >= 0, got -1"):
        stream_carry_add(s, s, 32, -1)


def test_stream_add_zero_identity():
    s1 = kappa_sequence()
    zero = constant(0)
    digits, amb = stream_carry_add(s1, zero, 100, 16)
    assert not amb.any()
    assert (digits == s1.digits(1, 100)).all()


def test_stream_matches_batch_on_kappa_shift():
    N, cap = 10**4, 64
    kap = kappa_sequence()
    arr = np.concatenate([np.zeros(2, dtype=np.uint8), kap.digits(1, N + cap - 2)])
    shifted = SymbolicSequence.from_array(arr)
    digits, amb = stream_carry_add(kap, shifted, N, cap)
    a = FixedPointNumber.from_sequence(kap, N + cap, 0)
    b = FixedPointNumber.from_sequence(shifted, N + cap, 0)
    batch = mod1(carry_add(a, b)).fraction_digits(N, certified_only=False)
    ok = ~amb
    assert ok.sum() > 0.99 * N
    assert (digits[ok] == batch[ok]).all()


def stream_carry_add_by_search(a: np.ndarray, b: np.ndarray, N: int, cap: int):
    """The O(N log N) definition: each position's next column with digit sum
    != 1, found by binary search over all such columns."""
    M = N + cap
    col = a[:M].astype(np.int8) + b[:M].astype(np.int8)
    pos = np.arange(N)
    non1 = np.flatnonzero(col != 1)
    if len(non1) == 0:
        return (col[:N] % 2).astype(np.uint8), np.ones(N, dtype=bool)
    nxt = np.searchsorted(non1, pos, side="right")
    has = nxt < len(non1)
    j = np.where(has, non1[np.minimum(nxt, len(non1) - 1)], M)
    within = has & (j - pos <= cap)
    carry = np.zeros(N, dtype=np.int8)
    carry[within] = (col[j[within]] == 2).astype(np.int8)
    return ((col[:N] + carry) % 2).astype(np.uint8), ~within


@st.composite
def carry_columns(draw):
    """Two digit rows of length N + cap built from runs of equal column sums;
    the long runs of sum 1 exceed the cap and can reach the last column."""
    N = draw(st.integers(1, 300))
    cap = draw(st.integers(0, 70))
    runs = draw(st.lists(st.tuples(st.sampled_from([0, 1, 1, 2]), st.integers(1, 120)), min_size=1))
    sums = np.resize(np.repeat(*np.array(runs, dtype=np.uint8).T), N + cap)
    pick = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, 2, N + cap, dtype=np.uint8)
    a = np.where(sums == 1, pick, sums // 2).astype(np.uint8)
    return a, (sums - a).astype(np.uint8), N, cap


@given(carry_columns())
@example((np.ones(5, np.uint8), np.zeros(5, np.uint8), 5, 0))  # cap 0, no column != 1
@example((np.ones(1, np.uint8), np.ones(1, np.uint8), 1, 0))  # N = 1, cap 0
@example((np.array([1, 0, 0, 1], np.uint8), np.array([1, 1, 0, 0], np.uint8), 1, 3))  # N = 1, run reaches M
@example((np.r_[np.zeros(3), np.ones(90)].astype(np.uint8), np.r_[np.ones(3), np.zeros(89), [1]].astype(np.uint8), 3, 90))
@settings(max_examples=200, deadline=None)
def test_stream_carry_add_matches_search(case):
    a, b, N, cap = case
    digits, amb = stream_carry_add(SymbolicSequence.from_array(a), SymbolicSequence.from_array(b), N, cap)
    want_digits, want_amb = stream_carry_add_by_search(a, b, N, cap)
    assert digits.dtype == want_digits.dtype and amb.dtype == want_amb.dtype
    assert (digits == want_digits).all() and (amb == want_amb).all()


def stream_carry_add_by_running_minimum(a: np.ndarray, b: np.ndarray, N: int, cap: int):
    """The numpy carry resolution stream_carry_add had before it added the
    rows as integers: each position's next column with digit sum != 1 from
    one reversed running minimum."""
    M = N + cap
    col = a[:M].astype(np.int8) + b[:M].astype(np.int8)
    nxt = np.full(M + 1, M)
    nxt[:M] = np.where(col != 1, np.arange(M), M)
    j = np.minimum.accumulate(nxt[::-1])[::-1][1 : N + 1]
    within = j - np.arange(N) <= cap
    carry = np.zeros(N, dtype=np.int8)
    carry[within] = (col[j[within]] == 2).astype(np.int8)
    return ((col[:N] + carry) % 2).astype(np.uint8), ~within


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda f: 0 < f < 1)
    | st.integers(8, 1000).map(lambda n: Fraction(1, n)),
    st.integers(1, 3000),
    st.integers(0, 70),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
def test_stream_carry_add_matches_running_minimum(p, N, cap, seed1, seed2):
    # a p-stream against a (1 - p)-stream: for p near 0 or 1 almost every
    # column has digit sum 1, so long runs exceed the cap
    s1 = bernoulli_stream(p, seed1, N + cap)
    s2 = bernoulli_stream(1 - p, seed2, N + cap)
    digits, amb = stream_carry_add(s1, s2, N, cap)
    want_digits, want_amb = stream_carry_add_by_running_minimum(s1.digits(1, N + cap), s2.digits(1, N + cap), N, cap)
    assert digits.dtype == want_digits.dtype and amb.dtype == want_amb.dtype
    assert (digits == want_digits).all() and (amb == want_amb).all()


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


@settings(max_examples=300)
@given(st.integers(-(2**300), 2**300), st.integers(0, 260))
@example(-1, 0)
@example(-1, 17)
def test_int_to_bits_reads_the_low_bits_into_a_frozen_array(word, count):
    bits = _int_to_bits(word, count)
    # the slice of a full unpack that the shifted, counted unpack replaced
    full = np.unpackbits(np.frombuffer((word & ((1 << count) - 1)).to_bytes((count + 7) // 8, "big"), dtype=np.uint8))
    assert bits.tolist() == full[len(full) - count :].tolist()
    assert bits.tolist() == [(word >> (count - 1 - i)) & 1 for i in range(count)]
    assert bits.dtype == np.uint8 and bits.base is None and not bits.flags.writeable


def test_digit_outputs_are_frozen_and_share_one_count_table():
    N, G = 4096, 64
    x = FixedPointNumber.from_sequence(bernoulli_stream(Fraction(1, 2), 7, N + G), N, G)
    digits = mul_rational(x, 3, 1, N, G).fraction_digits(N, certified_only=False)
    s1, s2 = (bernoulli_stream(Fraction(1, 2), seed, 300) for seed in (8, 9))
    sums, amb = stream_carry_add(s1, s2, 200, 64)
    for arr in (digits, sums):
        assert arr.base is None and not arr.flags.writeable  # owns its digits, read-only
    assert amb.dtype == bool and seqcore._frozen(amb)  # a bool view of such an array
    want = [block_counts(digits.copy(), m, 2) for m in range(1, 5)]  # a writeable copy: counted at m
    with mock.patch.object(seqcore, "code_table", wraps=seqcore.code_table) as table:
        got = [block_counts(digits, m, 2) for m in range(1, 5)]
    table.assert_called_once_with(digits, seqcore._top_length(N), 2, N - seqcore._top_length(N) + 1)
    for a, b in zip(got, want):
        assert a.total == b.total and a.codes.tolist() == b.codes.tolist() and a.counts.tolist() == b.counts.tolist()
