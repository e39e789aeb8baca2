"""The benchmark's span tracer still finds the names it hooks in normlab."""

from pathlib import Path

from normlab import generators, seqcore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_counting_and_generator_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        measure = seqcore.empirical_measure(generators.kappa_sequence(), 4, 4096)
    finally:
        tracer.uninstall()
    assert measure.total == 4093
    calls = tracing.summarize(tracer)["calls"]
    assert calls["seqcore.count"] >= 1
    assert calls["generators.bulk"] >= 1
    assert seqcore.empirical_measure.__module__ == "normlab.seqcore"
    assert not hasattr(seqcore.empirical_measure, "__wrapped__")


def test_experiment_span_covers_its_checks(monkeypatch):
    # the registry entry runs the experiment's check generator to the end,
    # so the per-experiment span holds the experiment's work
    from normlab import experiments

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = experiments.run_experiment("z-switch-half")
    finally:
        tracer.uninstall()
    assert [c.name for c in report.checks] == ["01-frequency"]
    incl = tracing.summarize(tracer)["incl_s"]
    assert incl["experiments.z-switch-half"] >= incl["seqcore.prefix_frequency"] > 0
