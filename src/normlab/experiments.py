"""Experiment harness: named, seeded, reproducible checks with reports.

Every experiment reads its parameters, seeds, expected values, and
tolerances from the tolerances.json manifest shipped with the package.
Reports are deterministic given the manifest: they embed a content hash of
the effective configuration so regressions are attributable.

An experiment is a generator of `Check`s.  A check carries the manifest
entry's provenance unless it names its own.  Checks with a fixed comparison
are built by `exact`, `at_most` and `band`, which compute `passed` from
the values they report.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterator, Optional

import numpy as np

from . import algsys, analysis, bitarith, grayorder, pnormal, seqcore
from .bitarith import FixedPointNumber, carry_add, mod1, mul, mul_rational, neg, shifted_sum, stream_carry_add
from .errors import DomainError, rational, within
from .generators import (
    bernoulli_stream,
    derive_seed,
    finite_sums,
    kappa_sequence,
    splitmix64,
    uniform_stream,
    v_sequence,
    y_sequence,
)
from .seqcore import Block, SymbolicSequence, prefix_frequency

SCHEMA_VERSION = 1


def load_manifest() -> dict:
    with resources.files("normlab").joinpath("tolerances.json").open("rb") as fh:
        return json.load(fh)


@dataclass
class Check:
    name: str
    measured: object
    expected: object
    tolerance: str
    passed: bool
    provenance: Optional[str] = None  # None: the manifest entry's provenance


def exact(name: str, measured, expected, tolerance: str, provenance: Optional[str] = None) -> Check:
    """A check that passes when the reported measured value equals the expected one."""
    return Check(name, measured, expected, tolerance, measured == expected, provenance)


def at_most(name: str, measured: float, bound, tolerance: str) -> Check:
    """A check that passes when `measured` is at most `bound`."""
    return Check(name, round(measured, 6), f"<= {bound}", tolerance, measured <= bound)


def band(name: str, measured: float, center: float, sigma: float, k: int) -> Check:
    """A check that passes when `measured` lies within k sigma of `center`."""
    return Check(
        name,
        round(float(measured), 8),
        round(float(center), 8),
        f"within {k} sigma = {k * sigma:.2e}",
        center - k * sigma <= measured <= center + k * sigma,
    )


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    runtime_s: float = 0.0
    schema_version: int = SCHEMA_VERSION
    content_hash: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "parameters": self.parameters,
            "content_hash": self.content_hash,
            "passed": self.passed,
            "runtime_s": round(self.runtime_s, 6),
            "checks": [asdict(c) for c in self.checks],
        }

    def summary_lines(self) -> list[str]:
        mark = "PASS" if self.passed else "FAIL"
        lines = [f"[{mark}] {self.name} ({self.runtime_s:.3f}s)"]
        for c in self.checks:
            m = "ok " if c.passed else "BAD"
            lines.append(
                f"    {m} {c.name}: measured={c.measured} expected={c.expected} ({c.tolerance})"
            )
        return lines


def _content_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_REGISTRY: dict[str, Callable[[dict], list[Check]]] = {}


def _experiment(name: str):
    """Register a generator of checks.  The registry entry runs it to the
    end, so one call of the entry spans all of the experiment's work."""

    def deco(gen: Callable[[dict], Iterator[Check]]):
        _REGISTRY[name] = lambda cfg: list(gen(cfg))
        return gen

    return deco


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


# Parameters that are base-2 exponents.  The experiments read 2^key digits
# (prefix_log2s: 2^e for each entry e) and compare against a tolerance of
# 2^tolerance_log2, -tolerance_log2 binary digits, so each is held to the
# digit budget before any 1 << key is built.
_LOG2_KEYS = ("prefix_log2", "prefix_log2s", "kappa_prefix_log2")


def _check_overrides(name: str, config: dict, overrides) -> None:
    """Each override must name a manifest parameter of the experiment and
    have its shape (`_check_shape`).  An exponent must be within the digit
    budget."""
    if not isinstance(overrides, dict):
        raise DomainError(f"config overrides must be a JSON object, got {overrides!r}")
    for key, value in overrides.items():
        if key not in config:
            raise DomainError(f"{name} has no parameter {key!r}; known: {', '.join(sorted(config))}")
        _check_shape(name, key, config[key], value)
        if key in _LOG2_KEYS:
            exps = value if isinstance(value, list) else [value]
            if min(exps) < 0:
                each = " for each entry" if isinstance(value, list) else ""
                raise DomainError(f"{name} parameter {key!r} must be >= 0{each}, got {value!r}")
            within("digit", max(exps), log2=True)
        if key == "tolerance_log2":
            if value > 0:
                raise DomainError(f"{name} parameter {key!r} must be <= 0, got {value!r}")
            within("digit", -value)


def _check_shape(name: str, key: str, want, got) -> None:
    """Raise DomainError unless `got` is shaped like the manifest value
    `want`: the same JSON type (an integer may stand where the manifest has
    a float), an object with the same keys, a list non-empty where the
    manifest's is and each entry shaped like the manifest list's first."""
    if type(got) is not type(want) and not (type(want) is float and type(got) is int):
        raise DomainError(f"{name} parameter {key!r} must be {type(want).__name__}, got {got!r}")
    if isinstance(want, dict):
        if got.keys() != want.keys():
            raise DomainError(f"{name} parameter {key!r} must have the keys {', '.join(want)}, got {got!r}")
        for k in want:
            _check_shape(name, f"{key}.{k}", want[k], got[k])
    elif isinstance(want, list) and want:
        if not got:  # an empty list would run no case and pass no check
            raise DomainError(f"{name} parameter {key!r} must be a non-empty list, got []")
        for i, entry in enumerate(got):
            _check_shape(name, f"{key}[{i}]", want[0], entry)


def _unknown(name: str) -> DomainError:
    return DomainError(f"unknown experiment {name!r}; known: {', '.join(experiment_names())}")


def run_experiment(name: str, overrides: Optional[dict] = None) -> ExperimentReport:
    if name not in _REGISTRY:
        raise _unknown(name)
    manifest = load_manifest()
    config = dict(manifest["experiments"].get(name, {}))
    if overrides is not None:
        _check_overrides(name, config, overrides)
        config.update(overrides)
    report = ExperimentReport(name=name, parameters=config, content_hash=_content_hash(config))
    t0 = time.perf_counter()
    report.checks = _REGISTRY[name](config)
    report.runtime_s = time.perf_counter() - t0
    if not report.checks:  # a run that checked nothing has not passed
        raise DomainError(f"{name} ran no check: its parameters leave nothing to check")
    for c in report.checks:
        if c.provenance is None:
            c.provenance = config["provenance"]
    return report


def verify(names: Optional[list[str]] = None, threads: int = 1) -> list[ExperimentReport]:
    """Run the named experiments (all when None) one after another.

    `threads` is ignored; it stays only because the perfbench harness
    calls `verify(names, threads=1)`.  The experiments are bigint and
    Fraction work that holds the interpreter lock, so a thread pool
    measured no faster than a serial run.
    """
    todo = names if names is not None else experiment_names()
    for n in todo:
        if n not in _REGISTRY:
            raise _unknown(n)
    return [run_experiment(n) for n in todo]


def _binom_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------


@_experiment("figure1-kappa")
def _figure1_kappa(cfg: dict):
    seq = kappa_sequence()
    seq.digits(1, 56)  # warm the memoized prefix before timing
    t0 = time.perf_counter()
    got = "".join(map(str, seq.digits(1, 56).tolist()))
    dt_ms = (time.perf_counter() - t0) * 1e3
    yield exact("first-56-digits", got, cfg["expected_digits"], "exact")
    yield Check(
        "digit-access-runtime",
        round(dt_ms, 4),
        f"< {cfg['max_runtime_ms']} ms",
        "wall clock",
        dt_ms < cfg["max_runtime_ms"],
        "recorded-run",
    )


@_experiment("gray-invariants")
def _gray_invariants(cfg: dict):
    within("exhaustive check", cfg["n_max"])
    # every start verifies 2^n words per variant, two variants at even n
    within("gray words", cfg["starts_per_n"] * sum(2**n * (2 - n % 2) for n in range(1, cfg["n_max"] + 1)))
    for key in ("n_max", "starts_per_n"):  # below 1, no ordering is verified
        if cfg[key] < 1:
            raise DomainError(f"gray-invariants needs {key} >= 1, got {cfg[key]}")
    seed = cfg["seed"]
    bad = []
    total = 0
    for n in range(1, cfg["n_max"] + 1):
        for t in range(cfg["starts_per_n"]):
            word = splitmix64(seed, n * 1000 + t) & ((1 << n) - 1)
            start = Block.from_code(word, n, 2)
            for variant in ("gray", "alternated") if n % 2 == 0 else ("gray",):
                rep = grayorder.verify_ordering(n, start, variant)
                total += 1
                if not rep.passed:
                    bad.append((n, variant, rep.failures[:1]))
    yield Check("orderings-verified", f"{total - len(bad)}/{total}", f"{total}/{total}", "exhaustive, exact", not bad)
    if bad:
        yield Check("failures", str(bad[:3]), "[]", "diagnostic", False)


def _y_fixedpoint(N: int, G: int) -> FixedPointNumber:
    return FixedPointNumber.from_sequence(y_sequence(), N, G, integer_part=1)


@_experiment("vy-identity")
def _vy_identity(cfg: dict):
    N, G = cfg["frac_bits"], cfg["guard_bits"]
    y = _y_fixedpoint(N, G)
    v = FixedPointNumber.from_sequence(v_sequence(), N, G)
    prod = mul(v, y, N, G)
    diff = abs(prod.value() - 1) + prod.error_bound()
    bound = Fraction(1, 1 << -cfg["tolerance_log2"])
    log2_diff = (
        float(diff.numerator.bit_length() - diff.denominator.bit_length()) if diff else -math.inf
    )
    yield Check(
        "abs(v*y - 1) inclusion",
        f"2^{log2_diff:.0f}",
        f"<= 2^{cfg['tolerance_log2']}",
        "exact rational inclusion incl. error bound",
        diff <= bound,
    )


@_experiment("z-prefix-digits")
def _z_prefix_digits(cfg: dict):
    N, G = cfg["frac_bits"], cfg["guard_bits"]
    z = mul_rational(_y_fixedpoint(N, G), 4, 3, N, G)
    got = "".join(map(str, z.fraction_digits(10).tolist()))
    yield exact("z-fractional-prefix", got, cfg["expected_prefix"], "exact")


@_experiment("z-switch-half")
def _z_switch_half(cfg: dict):
    N = 1 << cfg["prefix_log2"]
    z = mul_rational(_y_fixedpoint(N, cfg["guard_bits"]), 4, 3, N, cfg["guard_bits"])
    digits = z.fraction_digits(N, certified_only=False)
    fr = prefix_frequency(SymbolicSequence.from_array(digits), Block.from_string("01"), N)
    yield Check(
        "01-frequency",
        round(float(fr), 6),
        cfg["expected"],
        f"abs dev <= {cfg['tolerance']}",
        abs(float(fr) - cfg["expected"]) <= cfg["tolerance"],
    )


def _xy_digits(N: int, G: int) -> np.ndarray:
    shifts = [0] + finite_sums(N)
    xy = shifted_sum(kappa_sequence(), shifts, N, G)
    return xy.fraction_digits(N, certified_only=False)


@_experiment("xy-switch-decay")
def _xy_switch_decay(cfg: dict):
    logs = cfg["prefix_log2s"]
    digits = _xy_digits(1 << max(logs), cfg["guard_bits"])
    curve = [float(analysis.switch_density(digits[: 1 << lg])) for lg in logs]
    yield at_most("final-switch-density", curve[-1], cfg["final_bound"], "recorded-run bound")
    slack = cfg["monotone_slack"]
    yield Check(
        "curve-nonincreasing",
        [round(v, 6) for v in curve],
        f"nonincreasing within +{slack}",
        "recorded-run shape",
        all(b <= a + slack for a, b in zip(curve, curve[1:])),
    )


def _goodness_checks(digits: np.ndarray, cfg: dict, label: str):
    """One check per block length m <= m_max: the exact eps_m-goodness
    deviation against bound_factor * 2^-m."""
    factor = rational(cfg["bound_factor"])
    for m in range(1, cfg["m_max"] + 1):
        dev = analysis.eps_m_goodness(digits, m)
        bound = factor * Fraction(1, 1 << m)
        yield Check(
            f"{label}m{m}", round(float(dev), 8), f"<= {float(bound):.8f}", "exact rational comparison", dev <= bound
        )


@_experiment("kappa-goodness")
def _kappa_goodness(cfg: dict):
    yield from _goodness_checks(kappa_sequence().digits(1, 1 << cfg["prefix_log2"]), cfg, "goodness-")


@_experiment("carry-closed-forms")
def _carry_closed_forms(cfg: dict):
    within("closed-form points", cfg["n_random"] + cfg["grid_points"])
    for key, low in (("n_random", 1), ("grid_points", 2)):  # fewer points would check nothing
        if cfg[key] < low:
            raise DomainError(f"carry-closed-forms needs {key} >= {low}, got {cfg[key]}")
    p = Fraction(1, 5)
    P, pprime = pnormal.carry_digit_prob(p)
    Q0, P0, pprime0 = pnormal.conditional_digit_prob(p)
    exp = cfg["expected"]
    for name, got in (("P_at_1_5", P), ("pprime_at_1_5", pprime), ("Q0_at_1_5", Q0), ("pprime0_at_1_5", pprime0)):
        yield exact(name, str(got), exp[name], "exact rational")

    # the comparisons below run on the integer (numerator, denominator) of
    # p'(a/n); multiplying out positive denominators keeps them exact
    def pprime_parts(a: int, n: int) -> tuple[int, int]:
        return pnormal._carry_parts(a, n)[1]

    seed = cfg["seed"]
    sym_ok = True
    for i in range(cfg["n_random"]):
        n = 2 + splitmix64(seed, 2 * i) % 9999
        a = 1 + splitmix64(seed, 2 * i + 1) % (n - 1)
        (u, v), (w, x) = pprime_parts(a, n), pprime_parts(n - a, n)
        sym_ok &= u * x + w * v == v * x
    yield Check(
        "pprime-symmetry", f"{cfg['n_random']} random rationals", "p'(p) + p'(1-p) = 1", "exact rational", sym_ok
    )
    G = cfg["grid_points"]
    grid_ok = True
    for k in range(1, G):
        num, den = pprime_parts(k, G)  # sign(p' - k/G) against sign(1/2 - k/G)
        grid_ok &= _sign(num * G - k * den) == _sign(G - 2 * k)
    yield Check(
        "fixed-point-only-at-half",
        f"grid of {G} points",
        "sign change of p'(p)-p exactly at 1/2",
        "exact rational",
        grid_ok,
    )


@_experiment("carry-monte-carlo")
def _carry_monte_carlo(cfg: dict):
    p = rational(cfg["p"])
    mc = pnormal.monte_carlo_carry_sum(p, cfg["seed"], cfg["n"], cfg["lookahead_cap"])
    pprime = float(pnormal.carry_digit_prob(p)[1])
    pprime0 = float(pnormal.conditional_digit_prob(p)[2])
    k = cfg["sigma_count"]
    yield band("freq-one", mc.freq_one, pprime, _binom_sigma(pprime, mc.tallied), k)
    n_cond = max(1, int(mc.tallied_pairs * (1 - pprime)))
    yield band("freq-one-given-next-zero", mc.freq_one_given_next_zero, pprime0, _binom_sigma(pprime0, n_cond), k)
    yield Check("conditional-exceeds-unconditional", round(mc.dependence, 6), "> 0", "sign check", mc.dependence > 0)


@_experiment("low-entropy-census")
def _low_entropy_census(cfg: dict):
    for case in cfg["cases"]:
        m, n, c, exp = case["m"], case["n"], case["c"], case["expected"]
        got = analysis.count_low_entropy_blocks(m, n, c)
        rate = math.log2(got) / m if got else float("-inf")
        yield Check(
            f"count(m={m},n={n},c={c})", f"{got} (log2/m = {rate:.4f})", exp, "exact exhaustive count", got == exp
        )


@_experiment("complexity-contrast")
def _complexity_contrast(cfg: dict):
    eps = cfg["eps"]
    ydig = y_sequence().digits(1, cfg["sparse_prefix"])
    curve = analysis.complexity_curve(ydig, eps, range(1, cfg["sparse_m_max"] + 1))
    worst = max(c for _, c, _ in curve.rows)
    yield Check(
        "sparse-complexity",
        worst,
        f"<= {cfg['sparse_c_max']} for m <= {cfg['sparse_m_max']}",
        "greedy-exact on prefix",
        worst <= cfg["sparse_c_max"] and curve.verdict,
    )
    kdig = kappa_sequence().digits(1, 1 << cfg["kappa_prefix_log2"])
    c_kappa = analysis.epsilon_complexity(kdig, eps, cfg["kappa_m"])
    yield Check(
        "kappa-complexity", c_kappa, f">= {cfg['kappa_c_min']}", "greedy-exact on prefix", c_kappa >= cfg["kappa_c_min"]
    )


def _row_pair_table(digits: np.ndarray, blen: int) -> np.ndarray:
    """Counts of the blen-blocks anchored in the two binary rows (d // 2,
    d % 2) of base-4 digits, indexed by the two rows' codes.  A base-4 digit
    is 2 * hi + lo, so the base-4 block codes split into the rows' codes by
    regrouping their bits: a fixed permutation of the table."""
    bc = seqcore.block_counts(digits, blen, 4)
    table = np.zeros(4**blen, dtype=np.int64)
    table[bc.codes] = bc.counts
    rows_first = [*range(0, 2 * blen, 2), *range(1, 2 * blen, 2)]  # the hi bits, then the lo bits
    return table.reshape((2, 2) * blen).transpose(rows_first).reshape(1 << blen, 1 << blen)


@_experiment("base4-independence")
def _base4_independence(cfg: dict):
    N = cfg["n"]
    if N < 2:
        raise DomainError(f"base4-independence needs n >= 2 for a 2-block, got {N}")
    k = cfg["sigma_count"]
    digits = uniform_stream(4, derive_seed(cfg["seed"], "base4"), N + 2).digits(1, N)
    for blen in (1, 2):
        W = N - blen + 1
        nb = 1 << blen
        joint = _row_pair_table(digits, blen)
        marg1, marg2 = joint.sum(1), joint.sum(0)
        worst = 0.0
        worst_name = ""
        ok = True
        for a1 in range(nb):
            for a2 in range(nb):
                j = float(Fraction(int(joint[a1, a2]), W))
                m1 = float(Fraction(int(marg1[a1]), W))
                m2 = float(Fraction(int(marg2[a2]), W))
                target = m1 * m2
                sigma = _binom_sigma(target, W)
                dev = abs(j - target)
                if dev > worst:
                    B1, B2 = Block.from_code(a1, blen, 2), Block.from_code(a2, blen, 2)
                    worst, worst_name = dev, f"({B1},{B2})"
                if dev > k * sigma:
                    ok = False
        yield Check(
            f"factorization-{blen}-blocks",
            f"max dev {worst:.6f} at {worst_name}",
            f"<= {k} sigma each",
            "joint vs product of marginals",
            ok,
        )


@_experiment("rational-multiple-goodness")
def _rational_multiple_goodness(cfg: dict):
    N = 1 << cfg["prefix_log2"]
    G = cfg["guard_bits"]
    x = FixedPointNumber.from_sequence(
        bernoulli_stream(Fraction(1, 2), cfg["seed"], N + G), N, G
    )
    for p, q in ((3, 1), (1, 3)):
        digits = mul_rational(x, p, q, N, G).fraction_digits(N, certified_only=False)
        yield from _goodness_checks(digits, cfg, f"goodness-x*{p}/{q}-")


@_experiment("modp-translation")
def _modp_translation(cfg: dict):
    N = cfg["n"]
    k = cfg["sigma_count"]
    s = uniform_stream(3, derive_seed(cfg["seed"], "mod3"), N + 1)
    t = SymbolicSequence.periodic([0, 1, 2], r=3)
    total = algsys.modp_add(s, t, N + 1)
    measure = seqcore.empirical_measure(total, 2, N)
    target = 1.0 / 9.0
    sigma = _binom_sigma(target, N - 1)
    worst = max(abs(float(f) - target) for f in measure.fractions().values())
    missing = 9 - len(measure.counts)
    yield Check(
        "two-block-uniformity",
        f"max dev {worst:.6f}",
        f"each of 9 blocks within {k} sigma of 1/9",
        f"{k} sigma = {k * sigma:.2e}",
        missing == 0 and worst <= k * sigma,
    )


@_experiment("ca-switch-identity")
def _ca_switch_identity(cfg: dict):
    N = 1 << cfg["prefix_log2"]
    digits = _xy_digits(N, cfg["guard_bits"])
    seq = SymbolicSequence.from_array(digits)
    ca_out = algsys.apply_ca(algsys.LinearCA(2, (1, 1)), seq, N - 1)
    ones = prefix_frequency(ca_out, Block.from_string("1"), N - 1)
    sw = analysis.switch_density(digits)
    # str() of a Fraction is canonical, so equal strings mean equal rationals
    yield exact("ca-ones-equals-switch-density", str(ones), str(sw), "exact rational equality")


@_experiment("arithmetic-roundtrips")
def _arithmetic_roundtrips(cfg: dict):
    within("roundtrip cases", max(cfg["roundtrip_cases"], cfg["pairs"]))
    within("roundtrip stream digits", cfg["pairs"] * (cfg["digits"] + cfg["lookahead_cap"]))
    for key in ("roundtrip_cases", "max_pq", "pairs"):  # fewer cases or pairs would check nothing
        if cfg[key] < 1:
            raise DomainError(f"arithmetic-roundtrips needs {key} >= 1, got {cfg[key]}")
    seed = cfg["seed"]
    # (a) mod-1 negation inverse
    ok_neg = True
    for i in range(cfg["roundtrip_cases"]):
        mant = splitmix64(seed, 9000 + i) % (1 << 48)
        x = FixedPointNumber(mant, 48, 8)
        if mod1(carry_add(x, neg(x))).fraction_mant() != 0:
            ok_neg = False
    yield Check("neg-mod1-inverse", f"{cfg['roundtrip_cases']} cases", "sum of fraction digits = 0", "exact", ok_neg)
    # (b) rational multiplication round trip
    N, G = 256, bitarith.DEFAULT_GUARD_BITS
    ok_rt = True
    worst = Fraction(0)
    for i in range(cfg["roundtrip_cases"]):
        mant = splitmix64(seed, 100 + 3 * i) % (1 << (N + G))
        x = FixedPointNumber(mant, N + G, G)
        p = 1 + splitmix64(seed, 101 + 3 * i) % cfg["max_pq"]
        q = 1 + splitmix64(seed, 102 + 3 * i) % cfg["max_pq"]
        z = mul_rational(mul_rational(x, p, q, N, G), q, p, N, G)
        diff = abs(z.value() - x.value())
        worst = max(worst, diff * (1 << N))
        if diff > Fraction(2, 1 << N):
            ok_rt = False
    yield Check(
        "mul-rational-roundtrip",
        f"worst dev {float(worst):.3g} certified-ulps",
        "<= 2 ulps at the certified scale",
        "exact rational",
        ok_rt,
    )
    # (c) stream vs batch carry agreement
    Nd = cfg["digits"]
    cap = cfg["lookahead_cap"]
    ok_stream = True
    flagged_total = 0
    for i in range(cfg["pairs"]):
        s1 = bernoulli_stream(Fraction(1, 2), derive_seed(seed, f"pair{i}a"), Nd + cap)
        s2 = bernoulli_stream(Fraction(1, 2), derive_seed(seed, f"pair{i}b"), Nd + cap)
        rows = s1.digits(1, Nd + cap), s2.digits(1, Nd + cap)  # alive, so each row is generated once
        digits, amb = stream_carry_add(s1, s2, Nd, cap)
        flagged_total += int(amb.sum())
        a = FixedPointNumber.from_sequence(s1, Nd + cap, 0, exact=True)
        b = FixedPointNumber.from_sequence(s2, Nd + cap, 0, exact=True)
        batch = mod1(carry_add(a, b)).fraction_digits(Nd, certified_only=False)
        if not bool((digits[~amb] == batch[~amb]).all()):
            ok_stream = False
    yield Check(
        "stream-vs-batch-carry",
        f"{cfg['pairs']} pairs, {flagged_total} flagged digits",
        "agreement on all unflagged digits",
        "exact",
        ok_stream,
    )


@_experiment("zip-columns")
def _zip_columns(cfg: dict):
    N = cfg["n"]
    k = cfg["sigma_count"]
    rows = [
        bernoulli_stream(Fraction(1, 2), derive_seed(cfg["seed"], tag), N)
        for tag in ("left", "right")
    ]
    z = seqcore.zip_product(rows)
    measure = seqcore.empirical_measure(z, 1, N)
    sigma = _binom_sigma(0.25, N)
    worst = max(abs(float(measure.fraction((c,))) - 0.25) for c in range(4))
    yield Check(
        "column-uniformity",
        f"max dev {worst:.6f}",
        f"each of 4 columns within {k} sigma of 1/4",
        f"{k} sigma = {k * sigma:.2e}",
        worst <= k * sigma,
    )


@_experiment("spr-obstruction")
def _spr_obstruction(cfg: dict):
    """With p > 1/2, the all-ones block over a periodic partner occurs in the
    carry sum strictly less often than product structure would demand."""
    p = rational(cfg["p"])
    N = cfg["n"]
    k = cfg["sigma_count"]
    l = pnormal.rauzy_obstruction_l(p)
    cap = 64
    x = bernoulli_stream(p, derive_seed(cfg["seed"], "x"), N + cap)
    ypart = SymbolicSequence.periodic([1, 0])  # the block 10 has l=1 ones, ends in 0
    digits, amb = stream_carry_add(x, ypart, N, cap)
    ok = ~amb
    B = (1, 0)
    nb = len(B)
    W = N - nb + 1
    ydig = ypart.digits(1, N + nb)
    anchor = np.ones(W, dtype=bool)  # certified digits and B in the partner
    ones = np.ones(W, dtype=bool)  # the carry sum shows a run of nb ones
    for j, b in enumerate(B):
        anchor &= ok[j : j + W] & (ydig[j : j + W] == b)
        ones &= digits[j : j + W] == 1
    anchors = int(np.count_nonzero(anchor))
    sum_hits = int(np.count_nonzero(anchor & ones))
    measured = sum_hits / max(anchors, 1)
    product_demand = float(p) ** nb  # conditional ones-run frequency if product structure held
    forced_cap = float(1 - p)  # each occurrence forces a mirror prefix digit in x
    sigma = _binom_sigma(forced_cap, max(anchors, 1))
    yield Check(
        "obstruction-inequality",
        f"measured {measured:.5f} over {anchors} anchors (l={l})",
        f"measured + {k} sigma < product demand {product_demand:.5f}",
        f"{k} sigma = {k * sigma:.2e}",
        measured + k * sigma < product_demand,
    )
    yield Check(
        "forced-pattern-cap",
        round(measured, 6),
        f"<= {forced_cap} + {k} sigma",
        f"{k} sigma = {k * sigma:.2e}",
        measured <= forced_cap + k * sigma,
    )


@_experiment("toral-discrepancy")
def _toral_discrepancy(cfg: dict):
    tmap = algsys.ToralMap.from_rows(cfg["matrix"])
    bits = cfg["precision_bits"]
    algsys.check_precision_bits(bits)  # before x0 spends bits / 64 words on it
    seed = cfg["seed"]
    x0 = []
    for i in range(tmap.dimension):
        mant = 0
        for w in range((bits + 63) // 64):
            mant = (mant << 64) | splitmix64(seed, i * 10**6 + w)
        x0.append(Fraction(mant % (1 << bits), 1 << bits))
    result = algsys.toral_orbit(
        tmap, x0, cfg["steps"], precision_bits=bits, grid_bits=cfg["grid_bits"]
    )
    yield exact(
        "ergodic-flag",
        result.ergodic,
        True,
        "no root-of-unity eigenvalue (det(A^m - I) != 0 for m <= 2d^2 + 6)",
        "closed-form",
    )
    cells = f"{1 << cfg['grid_bits']}^d cells, {cfg['steps']} steps"
    yield at_most("grid-discrepancy", result.discrepancy, cfg["bound"], cells)
