"""Names, units and definitions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that both
agree and that every run prints each metric with its unit.
"""

from __future__ import annotations

from pathlib import Path

from tracing import LAYERS, Tracer, summarize
from workloads import EXPERIMENTS, SIZES, CliSession

END_TO_END = {
    "wall_s": "s",  # median time of one pass over the workload's fixed work
    "setup_s": "s",  # median import + manifest load + lazy-cache warm-up, fresh process
    "peak_rss_mib": "MiB",  # peak resident memory of the workload's process
    "ok_ops_ratio": "ratio",  # 1 - failed_ops_ratio: operations whose output matches its pin
}

CLI_COMMANDS = tuple(label for label, _, _ in CliSession(SIZES["tiny"], 0, None).commands(Path(".")))

BITARITH_OPS = {
    "mul_rational": "bitarith.mul_rational",
    "mul": "bitarith.mul",
    "carry_add": "bitarith.carry_add",
    "shifted_sum": "bitarith.shifted_sum",
    "from_sequence": "bitarith.FixedPointNumber.from_sequence",
    "fraction_digits": "bitarith.FixedPointNumber.fraction_digits",
    "certified_digit_count": "bitarith.FixedPointNumber.certified_digit_count",
    "stream_carry_add": "bitarith.stream_carry_add",
}
ANALYSIS_OPS = ("eps_m_goodness", "combinatorial_entropy", "epsilon_complexity", "entropy_profile")


def _per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for exp in EXPERIMENTS:
        units[f"experiments.{exp}.s"] = "s"
    for label in CLI_COMMANDS:
        units[f"cli.{label}.s"] = "s"
    for op in BITARITH_OPS:
        units[f"bitarith.{op}.s"] = "s"
    units.update({
        "bitarith.bits_per_s": "bit/s",
        "bitarith.certified_ratio": "ratio",
        "bitarith.stream_carry_add.flagged_ratio": "ratio",
        "seqcore.count.s": "s",
        "seqcore.count.anchors_per_s": "1/s",
        "seqcore.count.repeat_ratio": "ratio",
        "seqcore.nseq_write.s": "s",
        "seqcore.nseq_read.s": "s",
        "seqcore.nseq.bytes_per_s": "B/s",
        "generators.bulk.digits_per_s": "1/s",
        "generators.random_access.probes_per_s": "1/s",
    })
    for op in ANALYSIS_OPS:
        units[f"analysis.{op}.s"] = "s"
    units.update({
        "algsys.toral_orbit.steps_per_s": "1/s",
        "pnormal.carry_digit_prob.calls_per_s": "1/s",
        "pnormal.monte_carlo_carry_sum.s": "s",
        "grayorder.verify_ordering.words_per_s": "1/s",
        "trace.overhead_s": "s",
        "trace.uncovered_s": "s",
        "trace.spans": "count",
    })
    return units


PER_LAYER = _per_layer_units()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric of one traced pass; 0 where a layer is not used."""
    s = summarize(tracer)
    incl = lambda name: s["incl_s"].get(name, 0.0)  # noqa: E731
    calls = lambda name: s["calls"].get(name, 0)  # noqa: E731
    c = tracer.counters
    v = {}
    for layer in LAYERS:
        v[f"{layer}.self_s"] = s["layer_self_s"].get(layer, 0.0)
        v[f"{layer}.calls"] = s["layer_calls"].get(layer, 0)
    for exp in EXPERIMENTS:
        v[f"experiments.{exp}.s"] = incl(f"experiments.{exp}")
    for label in CLI_COMMANDS:
        v[f"cli.{label}.s"] = incl(f"cli.{label}")
    for op, span in BITARITH_OPS.items():
        v[f"bitarith.{op}.s"] = incl(span)
    v["bitarith.bits_per_s"] = _ratio(c["bitarith.bits"], s["layer_self_s"].get("bitarith", 0.0))
    v["bitarith.certified_ratio"] = _ratio(c["bitarith.certified"], c["bitarith.requested"])
    v["bitarith.stream_carry_add.flagged_ratio"] = _ratio(c["bitarith.stream.flagged"], c["bitarith.stream.digits"])
    v["seqcore.count.s"] = incl("seqcore.count")
    v["seqcore.count.anchors_per_s"] = _ratio(c["seqcore.count.anchors"], incl("seqcore.count"))
    v["seqcore.count.repeat_ratio"] = _ratio(c["seqcore.count.repeats"], calls("seqcore.count"))
    v["seqcore.nseq_write.s"] = incl("seqcore.write_nseq")
    v["seqcore.nseq_read.s"] = incl("seqcore.read_nseq")
    v["seqcore.nseq.bytes_per_s"] = _ratio(
        c["seqcore.nseq.bytes"], incl("seqcore.write_nseq") + incl("seqcore.read_nseq"))
    v["generators.bulk.digits_per_s"] = _ratio(c["generators.bulk.digits"], incl("generators.bulk"))
    v["generators.random_access.probes_per_s"] = _ratio(
        calls("generators.random_access"), incl("generators.random_access"))
    for op in ANALYSIS_OPS:
        v[f"analysis.{op}.s"] = incl(f"analysis.{op}")
    v["algsys.toral_orbit.steps_per_s"] = _ratio(c["algsys.toral_orbit.steps"], incl("algsys.toral_orbit"))
    v["pnormal.carry_digit_prob.calls_per_s"] = _ratio(
        calls("pnormal.carry_digit_prob"), incl("pnormal.carry_digit_prob"))
    v["pnormal.monte_carlo_carry_sum.s"] = incl("pnormal.monte_carlo_carry_sum")
    v["grayorder.verify_ordering.words_per_s"] = _ratio(
        c["grayorder.verify_ordering.words"], incl("grayorder.verify_ordering"))
    v["trace.overhead_s"] = traced_wall - untraced_wall
    v["trace.uncovered_s"] = traced_wall - s["top_level_s"]
    v["trace.spans"] = s["spans"]
    return v
