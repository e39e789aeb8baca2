"""Experiment harness: named, seeded, reproducible checks with reports.

Every experiment reads its parameters, seeds, expected values, and
tolerances from the tolerances.json manifest shipped with the package.
Reports are deterministic given the manifest: they embed a content hash of
the effective configuration so regressions are attributable.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable, Optional

import numpy as np

from . import algsys, analysis, bitarith, grayorder, pnormal, seqcore
from .bitarith import FixedPointNumber, carry_add, mod1, mul, mul_rational, neg, shifted_sum, stream_carry_add
from .generators import (
    SCHEDULE,
    bernoulli_stream,
    derive_seed,
    kappa_sequence,
    splitmix64,
    uniform_stream,
    v_sequence,
    y_sequence,
)
from .seqcore import Block, SymbolicSequence, prefix_frequency

SCHEMA_VERSION = 1


class UnknownExperimentError(KeyError):
    pass


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
    provenance: str

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "provenance": self.provenance,
        }


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
            "checks": [c.as_dict() for c in self.checks],
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


_REGISTRY: dict[str, Callable[[dict, ExperimentReport], None]] = {}


def _experiment(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def experiment_names() -> list[str]:
    return sorted(_REGISTRY)


def run_experiment(name: str, overrides: Optional[dict] = None) -> ExperimentReport:
    if name not in _REGISTRY:
        raise UnknownExperimentError(name)
    manifest = load_manifest()
    config = dict(manifest["experiments"].get(name, {}))
    if overrides:
        config.update(overrides)
    report = ExperimentReport(name=name, parameters=config, content_hash=_content_hash(config))
    t0 = time.perf_counter()
    _REGISTRY[name](config, report)
    report.runtime_s = time.perf_counter() - t0
    return report


def verify(names: Optional[list[str]] = None, threads: int = 1) -> list[ExperimentReport]:
    """Run the named experiments (all when None) one after another.

    `threads` is accepted for compatibility and ignored: the experiments are
    bigint and Fraction work that holds the interpreter lock, so a thread
    pool measured no faster than a serial run.
    """
    todo = names if names is not None else experiment_names()
    for n in todo:
        if n not in _REGISTRY:
            raise UnknownExperimentError(n)
    return [run_experiment(n) for n in todo]


def _binom_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def _check_band(report, name, measured, center, sigma, k, provenance) -> None:
    lo, hi = center - k * sigma, center + k * sigma
    report.checks.append(
        Check(
            name,
            round(float(measured), 8),
            round(float(center), 8),
            f"within {k} sigma = {k * sigma:.2e}",
            lo <= measured <= hi,
            provenance,
        )
    )


# ---------------------------------------------------------------------------


@_experiment("figure1-kappa")
def _figure1_kappa(cfg: dict, report: ExperimentReport) -> None:
    seq = kappa_sequence()
    seq.digits(1, 56)  # warm the memoized prefix before timing
    t0 = time.perf_counter()
    got = "".join(map(str, seq.digits(1, 56).tolist()))
    dt_ms = (time.perf_counter() - t0) * 1e3
    exp = cfg["expected_digits"]
    report.checks.append(
        Check("first-56-digits", got, exp, "exact", got == exp, cfg["provenance"])
    )
    report.checks.append(
        Check(
            "digit-access-runtime",
            round(dt_ms, 4),
            f"< {cfg['max_runtime_ms']} ms",
            "wall clock",
            dt_ms < cfg["max_runtime_ms"],
            "recorded-run",
        )
    )


@_experiment("gray-invariants")
def _gray_invariants(cfg: dict, report: ExperimentReport) -> None:
    seed = cfg["seed"]
    bad = []
    total = 0
    for n in range(1, cfg["n_max"] + 1):
        for t in range(cfg["starts_per_n"]):
            word = splitmix64(seed, n * 1000 + t) & ((1 << n) - 1)
            start = Block.from_code(word, n, 2)
            rep = grayorder.verify_ordering(n, start, "gray")
            total += 1
            if not rep.passed:
                bad.append((n, "gray", rep.failures[:1]))
            if n % 2 == 0:
                rep2 = grayorder.verify_ordering(n, start, "alternated")
                total += 1
                if not rep2.passed:
                    bad.append((n, "alternated", rep2.failures[:1]))
    report.checks.append(
        Check(
            "orderings-verified",
            f"{total - len(bad)}/{total}",
            f"{total}/{total}",
            "exhaustive, exact",
            not bad,
            cfg["provenance"],
        )
    )
    if bad:
        report.checks.append(
            Check("failures", str(bad[:3]), "[]", "diagnostic", False, cfg["provenance"])
        )


def _y_fixedpoint(N: int, G: int) -> FixedPointNumber:
    return FixedPointNumber.from_sequence(y_sequence(), N, G, integer_part=1)


@_experiment("vy-identity")
def _vy_identity(cfg: dict, report: ExperimentReport) -> None:
    N, G = cfg["frac_bits"], cfg["guard_bits"]
    y = _y_fixedpoint(N, G)
    v = FixedPointNumber.from_sequence(v_sequence(), N, G)
    prod = mul(v, y, N, G)
    diff = abs(prod.value() - 1) + prod.error_bound()
    bound = Fraction(1, 1 << -cfg["tolerance_log2"])
    log2_diff = (
        float(diff.numerator.bit_length() - diff.denominator.bit_length()) if diff else -math.inf
    )
    report.checks.append(
        Check(
            "abs(v*y - 1) inclusion",
            f"2^{log2_diff:.0f}",
            f"<= 2^{cfg['tolerance_log2']}",
            "exact rational inclusion incl. error bound",
            diff <= bound,
            cfg["provenance"],
        )
    )


@_experiment("z-prefix-digits")
def _z_prefix_digits(cfg: dict, report: ExperimentReport) -> None:
    N, G = cfg["frac_bits"], cfg["guard_bits"]
    z = mul_rational(_y_fixedpoint(N, G), 4, 3, N, G)
    got = "".join(map(str, z.fraction_digits(10).tolist()))
    report.checks.append(
        Check(
            "z-fractional-prefix",
            got,
            cfg["expected_prefix"],
            "exact",
            got == cfg["expected_prefix"],
            cfg["provenance"],
        )
    )


@_experiment("z-switch-half")
def _z_switch_half(cfg: dict, report: ExperimentReport) -> None:
    N = 1 << cfg["prefix_log2"]
    z = mul_rational(_y_fixedpoint(N, cfg["guard_bits"]), 4, 3, N, cfg["guard_bits"])
    digits = z.fraction_digits(N, certified_only=False)
    fr = prefix_frequency(SymbolicSequence.from_array(digits), Block.from_string("01"), N)
    report.checks.append(
        Check(
            "01-frequency",
            round(float(fr), 6),
            cfg["expected"],
            f"abs dev <= {cfg['tolerance']}",
            abs(float(fr) - cfg["expected"]) <= cfg["tolerance"],
            cfg["provenance"],
        )
    )


def _xy_digits(N: int, G: int) -> np.ndarray:
    shifts = [0] + SCHEDULE.finite_sums().elements_up_to(N)
    xy = shifted_sum(kappa_sequence(), shifts, N, G)
    return xy.fraction_digits(N, certified_only=False)


@_experiment("xy-switch-decay")
def _xy_switch_decay(cfg: dict, report: ExperimentReport) -> None:
    logs = cfg["prefix_log2s"]
    digits = _xy_digits(1 << max(logs), cfg["guard_bits"])
    curve = [float(analysis.switch_density(digits[: 1 << lg])) for lg in logs]
    report.checks.append(
        Check(
            "final-switch-density",
            round(curve[-1], 6),
            f"<= {cfg['final_bound']}",
            "recorded-run bound",
            curve[-1] <= cfg["final_bound"],
            cfg["provenance"],
        )
    )
    slack = cfg["monotone_slack"]
    monotone = all(b <= a + slack for a, b in zip(curve, curve[1:]))
    report.checks.append(
        Check(
            "curve-nonincreasing",
            [round(v, 6) for v in curve],
            f"nonincreasing within +{slack}",
            "recorded-run shape",
            monotone,
            cfg["provenance"],
        )
    )


@_experiment("kappa-goodness")
def _kappa_goodness(cfg: dict, report: ExperimentReport) -> None:
    digits = kappa_sequence().prefix(1 << cfg["prefix_log2"])
    factor = Fraction(cfg["bound_factor"])
    for m in range(1, cfg["m_max"] + 1):
        dev = analysis.eps_m_goodness(digits, m)
        bound = factor * Fraction(1, 1 << m)
        report.checks.append(
            Check(
                f"goodness-m{m}",
                round(float(dev), 8),
                f"<= {float(bound):.8f}",
                "exact rational comparison",
                dev <= bound,
                cfg["provenance"],
            )
        )


@_experiment("carry-closed-forms")
def _carry_closed_forms(cfg: dict, report: ExperimentReport) -> None:
    prov = cfg["provenance"]
    p = Fraction(1, 5)
    P, pprime = pnormal.carry_digit_prob(p)
    Q0, P0, pprime0 = pnormal.conditional_digit_prob(p)
    exp = cfg["expected"]
    for name, got in (
        ("P_at_1_5", P),
        ("pprime_at_1_5", pprime),
        ("Q0_at_1_5", Q0),
        ("pprime0_at_1_5", pprime0),
    ):
        report.checks.append(
            Check(name, str(got), exp[name], "exact rational", str(got) == exp[name], prov)
        )
    seed = cfg["seed"]
    sym_ok = True
    for i in range(cfg["n_random"]):
        den = 2 + splitmix64(seed, 2 * i) % 9999
        num = 1 + splitmix64(seed, 2 * i + 1) % (den - 1)
        q = Fraction(num, den)
        if pnormal.carry_digit_prob(q)[1] + pnormal.carry_digit_prob(1 - q)[1] != 1:
            sym_ok = False
            break
    report.checks.append(
        Check(
            "pprime-symmetry",
            f"{cfg['n_random']} random rationals",
            "p'(p) + p'(1-p) = 1",
            "exact rational",
            sym_ok,
            prov,
        )
    )
    grid_ok = True
    G = cfg["grid_points"]
    for k in range(1, G):
        q = Fraction(k, G)
        sign = pnormal.carry_digit_prob(q)[1] - q
        if q < Fraction(1, 2) and sign <= 0:
            grid_ok = False
        if q > Fraction(1, 2) and sign >= 0:
            grid_ok = False
        if q == Fraction(1, 2) and sign != 0:
            grid_ok = False
        if not grid_ok:
            break
    report.checks.append(
        Check(
            "fixed-point-only-at-half",
            f"grid of {G} points",
            "sign change of p'(p)-p exactly at 1/2",
            "exact rational",
            grid_ok,
            prov,
        )
    )


@_experiment("carry-monte-carlo")
def _carry_monte_carlo(cfg: dict, report: ExperimentReport) -> None:
    p = Fraction(cfg["p"])
    mc = pnormal.monte_carlo_carry_sum(p, cfg["seed"], cfg["n"], cfg["lookahead_cap"])
    _, pprime = pnormal.carry_digit_prob(p)
    _, _, pprime0 = pnormal.conditional_digit_prob(p)
    k = cfg["sigma_count"]
    _check_band(
        report, "freq-one", mc.freq_one, float(pprime), _binom_sigma(float(pprime), mc.tallied), k, cfg["provenance"]
    )
    n_cond = max(1, int(mc.tallied_pairs * (1 - float(pprime))))
    _check_band(
        report,
        "freq-one-given-next-zero",
        mc.freq_one_given_next_zero,
        float(pprime0),
        _binom_sigma(float(pprime0), n_cond),
        k,
        cfg["provenance"],
    )
    report.checks.append(
        Check(
            "conditional-exceeds-unconditional",
            round(mc.dependence, 6),
            "> 0",
            "sign check",
            mc.dependence > 0,
            cfg["provenance"],
        )
    )


@_experiment("low-entropy-census")
def _low_entropy_census(cfg: dict, report: ExperimentReport) -> None:
    for case in cfg["cases"]:
        m, n, c, exp = case["m"], case["n"], case["c"], case["expected"]
        got = analysis.count_low_entropy_blocks(m, n, c)
        rate = math.log2(got) / m if got else float("-inf")
        report.checks.append(
            Check(
                f"count(m={m},n={n},c={c})",
                f"{got} (log2/m = {rate:.4f})",
                exp,
                "exact exhaustive count",
                got == exp,
                cfg["provenance"],
            )
        )


@_experiment("complexity-contrast")
def _complexity_contrast(cfg: dict, report: ExperimentReport) -> None:
    eps = cfg["eps"]
    ydig = y_sequence().prefix(cfg["sparse_prefix"])
    curve = analysis.complexity_curve(ydig, eps, range(1, cfg["sparse_m_max"] + 1))
    worst = max(c for _, c, _ in curve.rows)
    report.checks.append(
        Check(
            "sparse-complexity",
            worst,
            f"<= {cfg['sparse_c_max']} for m <= {cfg['sparse_m_max']}",
            "greedy-exact on prefix",
            worst <= cfg["sparse_c_max"] and curve.verdict,
            cfg["provenance"],
        )
    )
    kdig = kappa_sequence().prefix(1 << cfg["kappa_prefix_log2"])
    c_kappa = analysis.epsilon_complexity(kdig, eps, cfg["kappa_m"])
    report.checks.append(
        Check(
            "kappa-complexity",
            c_kappa,
            f">= {cfg['kappa_c_min']}",
            "greedy-exact on prefix",
            c_kappa >= cfg["kappa_c_min"],
            cfg["provenance"],
        )
    )


def _pair_block_counts(d1: np.ndarray, d2: np.ndarray, blen: int):
    """Counts of the binary blen-blocks anchored at each position of two
    equally long rows, in one pass: the joint histogram indexed by
    c1 * 2^blen + c2, and the two marginal histograms."""
    nb = 1 << blen
    c1 = seqcore._anchor_codes(d1, blen, 2)
    c2 = seqcore._anchor_codes(d2, blen, 2)
    return (
        np.bincount(c1 * nb + c2, minlength=nb * nb),
        np.bincount(c1, minlength=nb),
        np.bincount(c2, minlength=nb),
    )


@_experiment("base4-independence")
def _base4_independence(cfg: dict, report: ExperimentReport) -> None:
    N = cfg["n"]
    k = cfg["sigma_count"]
    stream = uniform_stream(4, derive_seed(cfg["seed"], "base4"), N + 2)
    row1, row2 = seqcore.base4_split(stream)
    d1, d2 = row1.digits(1, N), row2.digits(1, N)
    for blen in (1, 2):
        W = N - blen + 1
        nb = 1 << blen
        joint, marg1, marg2 = _pair_block_counts(d1, d2, blen)
        worst = 0.0
        worst_name = ""
        ok = True
        for a1 in range(nb):
            for a2 in range(nb):
                j = float(Fraction(int(joint[a1 * nb + a2]), W))
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
        report.checks.append(
            Check(
                f"factorization-{blen}-blocks",
                f"max dev {worst:.6f} at {worst_name}",
                f"<= {k} sigma each",
                "joint vs product of marginals",
                ok,
                cfg["provenance"],
            )
        )


@_experiment("rational-multiple-goodness")
def _rational_multiple_goodness(cfg: dict, report: ExperimentReport) -> None:
    N = 1 << cfg["prefix_log2"]
    G = cfg["guard_bits"]
    x = FixedPointNumber.from_sequence(
        bernoulli_stream(Fraction(1, 2), cfg["seed"], N + G), N, G
    )
    factor = Fraction(cfg["bound_factor"])
    for p, q in ((3, 1), (1, 3)):
        z = mul_rational(x, p, q, N, G)
        digits = z.fraction_digits(N, certified_only=False)
        for m in range(1, cfg["m_max"] + 1):
            dev = analysis.eps_m_goodness(digits, m)
            bound = factor * Fraction(1, 1 << m)
            report.checks.append(
                Check(
                    f"goodness-x*{p}/{q}-m{m}",
                    round(float(dev), 8),
                    f"<= {float(bound):.8f}",
                    "exact rational comparison",
                    dev <= bound,
                    cfg["provenance"],
                )
            )


@_experiment("modp-translation")
def _modp_translation(cfg: dict, report: ExperimentReport) -> None:
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
    report.checks.append(
        Check(
            "two-block-uniformity",
            f"max dev {worst:.6f}",
            f"each of 9 blocks within {k} sigma of 1/9",
            f"{k} sigma = {k * sigma:.2e}",
            missing == 0 and worst <= k * sigma,
            cfg["provenance"],
        )
    )


@_experiment("ca-switch-identity")
def _ca_switch_identity(cfg: dict, report: ExperimentReport) -> None:
    N = 1 << cfg["prefix_log2"]
    digits = _xy_digits(N, cfg["guard_bits"])
    seq = SymbolicSequence.from_array(digits)
    ca_out = algsys.apply_ca(algsys.LinearCA(2, (1, 1)), seq, N - 1)
    ones = prefix_frequency(ca_out, Block.from_string("1"), N - 1)
    sw = analysis.switch_density(digits)
    report.checks.append(
        Check(
            "ca-ones-equals-switch-density",
            str(ones),
            str(sw),
            "exact rational equality",
            ones == sw,
            cfg["provenance"],
        )
    )


@_experiment("arithmetic-roundtrips")
def _arithmetic_roundtrips(cfg: dict, report: ExperimentReport) -> None:
    seed = cfg["seed"]
    prov = cfg["provenance"]
    # (a) mod-1 negation inverse
    ok_neg = True
    for i in range(cfg["roundtrip_cases"]):
        mant = splitmix64(seed, 9000 + i) % (1 << 48)
        x = FixedPointNumber(mant, 48, 8)
        if mod1(carry_add(x, neg(x))).fraction_mant() != 0:
            ok_neg = False
    report.checks.append(
        Check("neg-mod1-inverse", f"{cfg['roundtrip_cases']} cases", "sum of fraction digits = 0", "exact", ok_neg, prov)
    )
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
    report.checks.append(
        Check(
            "mul-rational-roundtrip",
            f"worst dev {float(worst):.3g} certified-ulps",
            "<= 2 ulps at the certified scale",
            "exact rational",
            ok_rt,
            prov,
        )
    )
    # (c) stream vs batch carry agreement
    Nd = cfg["digits"]
    cap = cfg["lookahead_cap"]
    ok_stream = True
    flagged_total = 0
    for i in range(cfg["pairs"]):
        s1 = bernoulli_stream(Fraction(1, 2), derive_seed(seed, f"pair{i}a"), Nd + cap)
        s2 = bernoulli_stream(Fraction(1, 2), derive_seed(seed, f"pair{i}b"), Nd + cap)
        digits, amb = stream_carry_add(s1, s2, Nd, cap)
        flagged_total += int(amb.sum())
        a = FixedPointNumber.from_sequence(s1, Nd + cap, 0, exact=True)
        b = FixedPointNumber.from_sequence(s2, Nd + cap, 0, exact=True)
        batch = mod1(carry_add(a, b)).fraction_digits(Nd, certified_only=False)
        if not bool((digits[~amb] == batch[~amb]).all()):
            ok_stream = False
    report.checks.append(
        Check(
            "stream-vs-batch-carry",
            f"{cfg['pairs']} pairs, {flagged_total} flagged digits",
            "agreement on all unflagged digits",
            "exact",
            ok_stream,
            prov,
        )
    )


@_experiment("zip-columns")
def _zip_columns(cfg: dict, report: ExperimentReport) -> None:
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
    report.checks.append(
        Check(
            "column-uniformity",
            f"max dev {worst:.6f}",
            f"each of 4 columns within {k} sigma of 1/4",
            f"{k} sigma = {k * sigma:.2e}",
            worst <= k * sigma,
            cfg["provenance"],
        )
    )


@_experiment("spr-obstruction")
def _spr_obstruction(cfg: dict, report: ExperimentReport) -> None:
    """With p > 1/2, the all-ones block over a periodic partner occurs in the
    carry sum strictly less often than product structure would demand."""
    p = Fraction(cfg["p"])
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
    report.checks.append(
        Check(
            "obstruction-inequality",
            f"measured {measured:.5f} over {anchors} anchors (l={l})",
            f"measured + {k} sigma < product demand {product_demand:.5f}",
            f"{k} sigma = {k * sigma:.2e}",
            measured + k * sigma < product_demand,
            cfg["provenance"],
        )
    )
    report.checks.append(
        Check(
            "forced-pattern-cap",
            round(measured, 6),
            f"<= {forced_cap} + {k} sigma",
            f"{k} sigma = {k * sigma:.2e}",
            measured <= forced_cap + k * sigma,
            cfg["provenance"],
        )
    )


@_experiment("toral-discrepancy")
def _toral_discrepancy(cfg: dict, report: ExperimentReport) -> None:
    tmap = algsys.ToralMap.from_rows(cfg["matrix"])
    bits = cfg["precision_bits"]
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
    report.checks.append(
        Check(
            "ergodic-flag",
            result.ergodic,
            True,
            "no root-of-unity eigenvalue (det(A^m - I) != 0 for m <= 2d^2 + 6)",
            result.ergodic,
            "closed-form",
        )
    )
    report.checks.append(
        Check(
            "grid-discrepancy",
            round(result.discrepancy, 6),
            f"<= {cfg['bound']}",
            f"{1 << cfg['grid_bits']}^d cells, {cfg['steps']} steps",
            result.discrepancy <= cfg["bound"],
            cfg["provenance"],
        )
    )
