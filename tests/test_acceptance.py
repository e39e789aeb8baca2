"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs through the experiment registry at the tolerances
pinned in normlab/tolerances.json, so `pytest tests/test_acceptance.py -s`
and `normlab verify --all` exercise the same checks.  Each check's
[measured, passed] must also match the digest the benchmark pins for it in
perfbench/pins.json, and each check carries its manifest entry's provenance
unless it is one of OWN_PROVENANCE.
"""

import json
import time
from pathlib import Path

import pytest

from normlab.experiments import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWN_PROVENANCE = {
    ("figure1-kappa", "digit-access-runtime"): "recorded-run",
    ("toral-discrepancy", "ergodic-flag"): "closed-form",
}

CRITERIA = [
    ("A01 kappa opening digits exact", ["figure1-kappa"], 1.0),
    ("A02 gray-ordering invariants", ["gray-invariants"], 10.0),
    ("A03 reciprocal identity v*y = 1", ["vy-identity"], 5.0),
    ("A04 z construction and 01-frequency", ["z-prefix-digits", "z-switch-half"], 30.0),
    ("A05 product switch-density decay", ["xy-switch-decay"], 60.0),
    ("A06 kappa desk-scale normality", ["kappa-goodness"], 60.0),
    ("A07 carry-sum closed forms", ["carry-closed-forms"], 1.0),
    ("A08 carry-sum Monte Carlo", ["carry-monte-carlo"], 30.0),
    ("A09 low-entropy block census", ["low-entropy-census"], 60.0),
    ("A10 epsilon-complexity contrast", ["complexity-contrast"], 60.0),
    ("A11 base-4 split independence", ["base4-independence"], 30.0),
    ("A12 rational multiples stay uniform", ["rational-multiple-goodness"], 60.0),
    ("A13 mod-p translation and CA identity", ["modp-translation", "ca-switch-identity"], 30.0),
    ("A14 arithmetic round-trips", ["arithmetic-roundtrips"], 30.0),
    ("A15 toral orbit discrepancy", ["toral-discrepancy"], 1.5),
    ("A16 carry-sum obstruction", ["spr-obstruction"], 0.5),
    ("A17 zipped column uniformity", ["zip-columns"], 0.5),
]


@pytest.mark.parametrize("label, experiments, budget_s", CRITERIA, ids=[c[0][:3] for c in CRITERIA])
def test_criterion(label, experiments, budget_s, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    pins = json.loads((PERFBENCH / "pins.json").read_text())["full"]["verify-suite"]["manifest"]
    t0 = time.perf_counter()
    reports = [run_experiment(name) for name in experiments]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports)
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    for rep in reports:
        if not rep.passed:
            for line in rep.summary_lines():
                print("   ", line)
    assert ok, f"{label} failed: " + ", ".join(
        f"{r.name}:{[c.name for c in r.checks if not c.passed]}" for r in reports if not r.passed
    )
    assert elapsed <= budget_s, f"{label} exceeded its {budget_s}s budget ({elapsed:.2f}s)"
    for rep in reports:
        got = {
            f"{rep.name}/{c.name}": workloads.digest([c.measured, c.passed])
            for c in rep.checks
            if (rep.name, c.name) not in workloads.TIMING_CHECKS
        }
        assert got == {k: v for k, v in pins.items() if k.startswith(f"{rep.name}/")}
        for c in rep.checks:
            assert c.provenance == OWN_PROVENANCE.get((rep.name, c.name), rep.parameters["provenance"])
