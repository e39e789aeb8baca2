import json
import time

import pytest

from normlab import pnormal
from normlab.cli import main
from normlab.errors import DataQualityError, DomainError
from normlab.generators import GeneratorInstance
from normlab.seqcore import read_nseq


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "kappa.nseq"
    assert main(["generate", "--kind", "kappa", "--n", "200", "--out", str(out)]) == 0
    seq = read_nseq(out)
    assert seq.horizon == 200
    capsys.readouterr()
    assert main(["analyze", "--op", "switches", "--in", str(out), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["L"] == 200


def test_analyze_json_payload(tmp_path, capsys):
    out = tmp_path / "k.nseq"
    main(["generate", "--kind", "kappa", "--n", "256", "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", "--op", "goodness", "--in", str(out), "--format", "json",
                 "--n-min", "1", "--n-max", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["L"] == 256
    assert len(payload["rows"]) == 2


def test_analyze_csv(tmp_path, capsys):
    out = tmp_path / "k.nseq"
    main(["generate", "--kind", "v", "--n", "128", "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", "--op", "complexity", "--in", str(out), "--format", "csv",
                 "--eps", "0.25", "--n-min", "1", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["m", "C"]
    assert len(lines) == 4


def test_arith_mulq_sidecar(tmp_path, capsys):
    src = tmp_path / "y.nseq"
    main(["generate", "--kind", "y", "--n", "4160", "--out", str(src)])
    out = tmp_path / "z.nseq"
    code = main([
        "arith", "--op", "mulq", "--in", str(src), "--int-part", "1",
        "--p", "4", "--q", "3", "--frac-bits", "4096", "--out", str(out),
    ])
    assert code == 0
    digits = read_nseq(out)
    assert digits.prefix(10).tolist() == [1, 0, 1, 0, 1, 1, 0, 0, 0, 1]
    sidecar = json.loads((tmp_path / "z.nseq.json").read_text())
    assert sidecar["integer_part"] == 1
    assert sidecar["certified_digits"] > 4000


def test_gray_subcommand(capsys):
    assert main(["gray", "--n", "2", "--start", "01", "--variant", "alt"]) == 0
    assert capsys.readouterr().out.split() == ["01", "11", "10", "00"]


def test_pnormal_json(capsys):
    assert main(["pnormal", "--p", "1/5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["P"] == "1/17"
    assert payload["pprime"] == "29/85"
    assert payload["l"] is None


def test_algsys_orbit(capsys):
    code = main([
        "algsys", "orbit", "--matrix", "[[2,1],[1,1]]", "--x0", "1/5,2/5",
        "--steps", "10", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ergodic"] is True
    assert payload["first_points"][1] == ["4/5", "3/5"]


def test_verify_single_experiment(capsys):
    assert main(["verify", "--name", "figure1-kappa"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] figure1-kappa" in out
    assert "1/1 experiments passed" in out


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "--name", "does-not-exist"]) == 2


def test_experiment_failure_exit_code(capsys):
    # impossible tolerance override forces a failed check and exit code 1
    code = main([
        "experiment", "--name", "z-switch-half",
        "--config", json.dumps({"prefix_log2": 12, "tolerance": 0.0}),
    ])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "kappa"])  # missing --n
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["verify", "--name", "z-prefix-digits", "--threads", "2"], None, 2),
        (["verify", "--name", "z-prefix-digits", "--format", "csv"], None, 2),
        (["experiment", "--name", "z-prefix-digits", "--format", "csv"], None, 2),
        (["gray", "--n", "2", "--out", "f"], None, 2),
        (["generate", "--kind", "kappa", "--n", "8", "--format", "json"], None, 2),
        (["verify", "--name", "figure1-kappa", "--name", "z-prefix-digits"], "abc", 0),
    ],
    ids=["threads", "verify-csv", "experiment-csv", "gray-out", "generate-format", "threads-env"],
)
def test_only_read_flags_are_accepted(tmp_path, monkeypatch, capsys, argv, env, code):
    # a flag the command does not read is an argparse error; the
    # NORMLAB_THREADS environment variable is not read at all
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("NORMLAB_THREADS", env)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert list(tmp_path.iterdir()) == []
    if code == 0:
        assert "2/2 experiments passed" in capsys.readouterr().out


def test_each_command_has_only_the_flags_it_reads():
    from normlab.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()}
    assert not any("--threads" in f for f in flags.values())
    assert {n for n, f in flags.items() if "--format" in f} == {
        "analyze", "pnormal", "algsys", "verify", "experiment"
    }
    assert {n for n, f in flags.items() if "--out" not in f} == {"gray"}


def test_experiment_reports_reproduce():
    from normlab.experiments import run_experiment

    a = run_experiment("carry-monte-carlo").as_dict()
    b = run_experiment("carry-monte-carlo").as_dict()
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b
    assert a["parameters"]["seed"] == 7  # seeds live in the report


@pytest.mark.parametrize("op", ["add", "mul"])
def test_arith_binary_op_without_in2_is_usage_error(tmp_path, capsys, op):
    src = tmp_path / "y.nseq"
    main(["generate", "--kind", "y", "--n", "128", "--out", str(src)])
    capsys.readouterr()
    assert main(["arith", "--op", op, "--in", str(src), "--frac-bits", "64"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: arith --op {op} needs --in2"


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["--x0", "1/5,2/5"], "--matrix"),
        (["--matrix", "[[2,1],[1,1]]"], "--x0"),
    ],
    ids=["no-matrix", "no-x0"],
)
def test_algsys_orbit_missing_option_is_usage_error(capsys, argv, missing):
    assert main(["algsys", "orbit", *argv]) == 2
    assert capsys.readouterr().err.strip() == f"error: algsys orbit needs {missing}"


@pytest.mark.parametrize("matrix", ["5", "[[1.5]]", '{"a":1}'], ids=["scalar", "float", "dict"])
def test_algsys_orbit_rejects_malformed_matrix(capsys, matrix):
    assert main(["algsys", "orbit", "--matrix", matrix, "--x0", "1/5", "--steps", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: matrix must be a list of rows of integers")


def test_generate_periodic_sparse_is_not_a_kind(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "periodic-sparse", "--pattern", "01", "--n", "8",
              "--out", str(tmp_path / "p.nseq")])
    assert exc.value.code == 2
    assert not (tmp_path / "p.nseq").exists()
    with pytest.raises(DomainError):
        GeneratorInstance(kind="periodic-sparse", pattern="01").build()


@pytest.mark.parametrize("op", ["entropy", "goodness"])
def test_analyze_long_blocks_on_short_file(tmp_path, capsys, op):
    # block lengths far beyond log2 of the window: counting stays linear in
    # the window; lengths whose codes overflow 64 bits are a usage error
    src = tmp_path / "b.nseq"
    main(["generate", "--kind", "bernoulli", "--p", "1/2", "--seed", "3", "--n", "100", "--out", str(src)])
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["analyze", "--op", op, "--in", str(src), "--n-max", "40", "--format", "json"]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 40
    assert main(["analyze", "--op", op, "--in", str(src), "--n-max", "62"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_data_quality_error_is_usage_error(monkeypatch, capsys):
    def ambiguous(*args, **kwargs):
        raise DataQualityError("ambiguity rate 0.5000 exceeds 0.0100")

    monkeypatch.setattr(pnormal, "carry_sum_stats", ambiguous)
    assert main(["pnormal", "--p", "1/5"]) == 2
    assert capsys.readouterr().err.strip() == "error: ambiguity rate 0.5000 exceeds 0.0100"


def test_verify_format_json_prints_the_reports(tmp_path, capsys):
    out = tmp_path / "reports.json"
    assert main(["verify", "--name", "z-prefix-digits", "--format", "json", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in printed] == ["z-prefix-digits"]
    assert printed == json.loads(out.read_text())


def test_seed_only_where_it_is_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--name", "z-prefix-digits", "--seed", "5"])
    assert exc.value.code == 2
    assert main(["pnormal", "--p", "1/5", "--seed", "5"]) == 0


def test_pnormal_mc_budget(capsys):
    assert main(["pnormal", "--p", "1/5", "--mc", "100000000"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0] == "error: Monte-Carlo budget is N <= 2^22"


def test_gray_listing_beyond_budget_is_usage_error(capsys):
    assert main(["gray", "--n", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: exhaustive check budget is n <= 20"
    assert main(["gray", "--n", "70", "--l", "3"]) == 0  # random access needs no budget
    assert capsys.readouterr().out.strip() == "0" * 68 + "11"


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["modp-add", "--in2", "b.nseq"], "--in"),
        (["modp-add", "--in", "a.nseq"], "--in2"),
        (["ca"], "--in"),
    ],
    ids=["modp-add-no-in", "modp-add-no-in2", "ca-no-in"],
)
def test_algsys_stream_op_missing_input_is_usage_error(capsys, argv, missing):
    assert main(["algsys", *argv]) == 2
    op = argv[0]
    assert capsys.readouterr().err.strip() == f"error: algsys {op} needs {missing}"


@pytest.mark.parametrize(
    "name, config, message",
    [
        ("toral-discrepancy", {"steps": 1e12}, "parameter 'steps' must be int, got 1000000000000.0"),
        ("vy-identity", {"frac_bitz": 3}, "has no parameter 'frac_bitz'"),
        ("z-switch-half", {"tolerance": "0"}, "parameter 'tolerance' must be float, got '0'"),
        ("z-switch-half", {"prefix_log2": True}, "parameter 'prefix_log2' must be int, got True"),
        ("z-switch-half", [1], "config overrides must be a JSON object"),
    ],
    ids=["float-for-int", "unknown-key", "str-for-float", "bool-for-int", "not-an-object"],
)
def test_experiment_config_must_match_the_manifest(capsys, name, config, message):
    assert main(["experiment", "--name", name, "--config", json.dumps(config)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_experiment_config_int_for_float(capsys):
    # an integer stands where the manifest has a float
    code = main([
        "experiment", "--name", "z-switch-half",
        "--config", json.dumps({"prefix_log2": 12, "tolerance": 1}),
    ])
    assert code == 0
