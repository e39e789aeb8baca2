import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import normlab
from normlab import analysis, experiments, pnormal
from normlab.cli import _KINDS, build_parser, main
from normlab.errors import BUDGETS, DataQualityError
from normlab.generators import y_sequence
from normlab.seqcore import SymbolicSequence, read_nseq, write_nseq


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
    assert digits.digits(1, 10).tolist() == [1, 0, 1, 0, 1, 1, 0, 0, 0, 1]
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
    for argv in (["experiment", "--name", "does-not-exist"], ["verify", "--name", "does-not-exist"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: unknown experiment 'does-not-exist'; known: " + ", ".join(experiments.experiment_names())
        ]


def test_experiment_failure_exit_code(capsys):
    # impossible tolerance override forces a failed check and exit code 1
    code = main([
        "experiment", "--name", "z-switch-half",
        "--config", json.dumps({"prefix_log2": 12, "tolerance": 0.0}),
    ])
    assert code == 1


def usage_error(capsys, argv: list[str]) -> str:
    """Run argv, a usage error: exit code 2, nothing on stdout and one
    `error:` line on stderr, returned without its prefix."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0].removeprefix("error: ")


def test_usage_error_exit_code(capsys):
    # argparse's own errors take the one `error:` path, not its usage block and SystemExit
    message = usage_error(capsys, ["generate", "--kind", "kappa"])
    assert message == "normlab generate: the following arguments are required: --n"


@pytest.mark.parametrize(
    "argv, env, code",
    [
        (["verify", "--name", "z-prefix-digits", "--threads", "2"], None, 2),
        (["verify", "--name", "z-prefix-digits", "--format", "csv"], None, 2),
        (["experiment", "--name", "z-prefix-digits", "--format", "csv"], None, 2),
        (["gray", "--n", "2", "--out", "f"], None, 2),
        (["generate", "--kind", "kappa", "--n", "8", "--format", "json"], None, 2),
        (["verify", "--name", "figure1-kappa", "--name", "z-prefix-digits"], "abc", 0),
        (["algsys", "modp-add", "--in", "a.nseq", "--in2", "a.nseq", "--n", "8", "--format", "json",
          "--out", "m.nseq"], None, 2),
        (["algsys", "ca", "--matrix", "x"], None, 2),
    ],
    ids=["threads", "verify-csv", "experiment-csv", "gray-out", "generate-format", "threads-env",
         "algsys-modp-add-format", "algsys-ca-matrix"],
)
def test_only_read_flags_are_accepted(tmp_path, monkeypatch, capsys, argv, env, code):
    # a flag the command does not read is an argparse error; the
    # NORMLAB_THREADS environment variable is not read at all
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("NORMLAB_THREADS", env)
    if code == 0:
        assert main(argv) == 0
        assert "2/2 experiments passed" in capsys.readouterr().out
    else:
        usage_error(capsys, argv)
    assert list(tmp_path.iterdir()) == []


def test_calls_in_one_process_share_one_parser_and_nothing_else(tmp_path, monkeypatch, capsys):
    # the parser is built once; each call parses into a fresh namespace, so
    # no option, appended name or half-parsed usage error reaches a later call
    monkeypatch.chdir(tmp_path)
    build_parser.cache_clear()
    names = []
    monkeypatch.setattr(experiments, "verify", lambda chosen: names.append(chosen) or [])
    assert main(["verify", "--name", "a"]) == 0
    assert main(["verify", "--name", "b"]) == 0
    assert names == [["a"], ["b"]]
    assert main(["generate", "--kind", "kappa", "--n", "512", "--out", "k.nseq"]) == 0
    goodness = ["analyze", "--op", "goodness", "--in", "k.nseq", "--format", "json"]

    def block_lengths(*extra):
        capsys.readouterr()
        assert main([*goodness, *extra]) == 0
        return [row["m"] for row in json.loads(capsys.readouterr().out)["rows"]]

    assert block_lengths("--n-max", "3") == [1, 2, 3]
    assert block_lengths() == list(range(1, 9))
    usage_error(capsys, [*goodness, "--n-max", "5", "--n-min", "x"])  # --n-max is parsed before the error
    assert block_lengths("--n-max", "3") == [1, 2, 3]
    assert block_lengths() == list(range(1, 9))
    assert build_parser.cache_info().misses == 1 and build_parser() is build_parser()


def _commands(parser, path=(), inherited=frozenset()):
    """Each command path, e.g. ("algsys", "orbit"), with the options it
    accepts and its parser."""
    flags = inherited | {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, flags, parser
    for sub in subs:
        for name, p in sub.choices.items():
            yield from _commands(p, path + (name,), flags)


def test_each_command_has_only_the_flags_it_reads():
    flags = {path: f for path, f, _ in _commands(build_parser())}
    assert not any("--threads" in f for f in flags.values())
    assert {c for c, f in flags.items() if "--format" in f} == {
        ("analyze",), ("pnormal",), ("algsys", "orbit"), ("verify",), ("experiment",)
    }
    assert {c for c, f in flags.items() if "--out" not in f} == {("gray",)}
    algsys = {c[1]: f for c, f in flags.items() if c[0] == "algsys"}
    assert algsys == {
        "modp-add": {"--out", "--in", "--in2", "--n"},
        "ca": {"--out", "--in", "--n", "--p", "--coeffs"},
        "orbit": {"--out", "--format", "--matrix", "--x0", "--steps", "--precision-bits", "--grid-bits"},
    }
    assert sum(map(len, algsys.values())) == 16


COMMANDS = [pytest.param(path, parser, id=" ".join(path)) for path, _, parser in _commands(build_parser())]


@pytest.mark.parametrize("path, parser", COMMANDS)
def test_every_malformed_command_line_is_one_error_line(capsys, path, parser):
    # each case fails while parsing, so no command runs and nothing is written
    options = [a for a in parser._actions if a.option_strings]
    required = {a.option_strings[0]: a.choices[0] if a.choices else "1" for a in options if a.required}

    def argv(without=None):  # the path with a valid value for each required flag but `without`
        return [*path, *(w for f, v in required.items() if f != without for w in (f, v))]

    full = argv()
    prog = " ".join(("normlab", *path))
    assert usage_error(capsys, [*full, "--no-such-flag"]) == "normlab: unrecognized arguments: --no-such-flag"
    for flag in required:
        assert usage_error(capsys, argv(flag)) == f"{prog}: the following arguments are required: {flag}"
    for a in options:
        if a.type is int:
            flag = a.option_strings[0]
            assert usage_error(capsys, [*full, flag, "x"]) == f"{prog}: argument {flag}: invalid int value: 'x'"
    with pytest.raises(SystemExit) as exc:
        main([*path, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith(f"usage: {prog} ")


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
    message = usage_error(capsys, ["algsys", "orbit", *argv])
    assert message == f"normlab algsys orbit: the following arguments are required: {missing}"


@pytest.mark.parametrize("matrix", ["5", "[[1.5]]", '{"a":1}'], ids=["scalar", "float", "dict"])
def test_algsys_orbit_rejects_malformed_matrix(capsys, matrix):
    assert main(["algsys", "orbit", "--matrix", matrix, "--x0", "1/5", "--steps", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: matrix must be a list of rows of integers")


def test_generate_periodic_sparse_is_not_a_kind(tmp_path, capsys):
    message = usage_error(capsys, ["generate", "--kind", "periodic-sparse", "--pattern", "01", "--n", "8",
                                   "--out", str(tmp_path / "p.nseq")])
    assert "invalid choice: 'periodic-sparse'" in message
    assert not (tmp_path / "p.nseq").exists()
    assert "periodic-sparse" not in _KINDS


def test_generate_builds_each_kind_from_one_table(tmp_path, capsys):
    assert tuple(_KINDS) == ("kappa", "y", "v", "bernoulli", "uniform", "champernowne", "periodic")
    extra = {"bernoulli": ["--p", "1/2", "--seed", "5"], "uniform": ["--r", "3"], "periodic": ["--pattern", "011"]}
    for kind in _KINDS:
        out = tmp_path / f"{kind}.nseq"
        assert main(["generate", "--kind", kind, "--n", "100", "--out", str(out), *extra.get(kind, [])]) == 0
        assert read_nseq(out).digits(1, 100).shape == (100,)
    capsys.readouterr()
    for kind, message in (("bernoulli", "bernoulli needs p, seed, and n"), ("periodic", "periodic needs a pattern")):
        assert main(["generate", "--kind", kind, "--n", "8", "--out", str(tmp_path / "x.nseq")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "x.nseq").exists()


@pytest.mark.parametrize("op", ["entropy", "complexity", "goodness", "profile"])
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
    for bad, length in (
        (["--n-max", "62"], 62),
        (["--n-min", "-1", "--n-max", "2"], -1),
        (["--n-min", "0", "--n-max", "2"], 0),
    ):
        assert main(["analyze", "--op", op, "--in", str(src), *bad]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert re.search(rf"\b[mn]={length}\b", err[0]), err[0]  # names the block length


def test_analyze_refuses_a_broken_nseq_header(tmp_path, capsys):
    # a header cut anywhere in its 15 bytes, alphabet sizes write_nseq never
    # writes, one trailing byte, and a digit count beyond the digit budget
    src = tmp_path / "b.nseq"
    write_nseq(src, SymbolicSequence.from_array([0, 1] * 50))
    blob = src.read_bytes()
    broken = [blob[:cut] for cut in range(15)]
    broken += [blob[:5] + r.to_bytes(2, "little") + blob[7:] for r in (0, 1, 257, 300)]
    broken += [blob + b"\0", blob[:7] + (BUDGETS["digit"].limit + 1).to_bytes(8, "little") + blob[15:]]
    for data in broken:
        src.write_bytes(data)
        t0 = time.perf_counter()
        usage_error(capsys, ["analyze", "--op", "entropy", "--in", str(src), "--n-max", "2"])
        assert time.perf_counter() - t0 < 1.0


@pytest.fixture
def ternary_file(tmp_path, capsys):
    """4,000 uniform base-3 digits in an .nseq file, and the digits."""
    src = tmp_path / "u3.nseq"
    assert main(["generate", "--kind", "uniform", "--r", "3", "--seed", "1", "--n", "4000", "--out", str(src)]) == 0
    capsys.readouterr()
    return str(src), read_nseq(src).digits(1, 4000)


def test_analyze_complexity_reads_the_files_alphabet(ternary_file, capsys):
    src, digits = ternary_file
    argv = ["analyze", "--op", "complexity", "--in", src, "--eps", "0.1", "--n-max", "3", "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["C"] for row in rows] == [3, 9, 24]
    assert [row["C"] for row in rows] == [analysis.epsilon_complexity(digits, 0.1, m, r=3) for m in (1, 2, 3)]


def test_analyze_goodness_rejects_a_ternary_file(ternary_file, capsys):
    src, _ = ternary_file
    assert main(["analyze", "--op", "goodness", "--in", src]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: goodness is defined against the binary uniform weights"]


def test_analyze_entropy_and_profile_read_the_files_alphabet(ternary_file, capsys):
    src, digits = ternary_file
    assert main(["analyze", "--op", "entropy", "--in", src, "--n-max", "3", "--format", "json"]) == 0
    got = [row["H_bits_per_symbol"] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert got == [analysis.combinatorial_entropy(digits, n, r=3) for n in (1, 2, 3)]
    assert got[0] > 1.5  # near log2(3); read as binary it would be at most 1
    assert main(["analyze", "--op", "profile", "--in", src, "--windows", "1000,4000", "--n-max", "3",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    want = analysis.entropy_profile(digits, [1000, 4000], range(1, 4), r=3).rows
    assert [(row["window"], row["n"], row["H"]) for row in rows] == want


def test_analyze_eps_is_read_exactly_or_refused(tmp_path, capsys):
    # seven 1s and three 0s: 3/10 of the 10 anchors may go uncovered, so the
    # 1s alone cover them; 0.3 read as a float is below 3/10 and needed both
    src = tmp_path / "p.nseq"
    assert main(["generate", "--kind", "periodic", "--pattern", "1111111000", "--n", "10", "--out", str(src)]) == 0
    complexity = ["analyze", "--op", "complexity", "--in", str(src), "--n-max", "1", "--format", "json"]
    for eps in ("0.3", "3/10"):
        capsys.readouterr()
        assert main([*complexity, "--eps", eps]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["C"] == 1
    for eps in ("inf", "1e400", "-inf", "1/0", "1e-99999999", "0", "1"):
        usage_error(capsys, [*complexity, "--eps", eps])


@pytest.mark.parametrize("windows", ["-5,4096", "0", "4096,-1"])
def test_analyze_profile_rejects_windows_below_one(tmp_path, capsys, windows):
    src = tmp_path / "k.nseq"
    main(["generate", "--kind", "kappa", "--n", "4096", "--out", str(src)])
    capsys.readouterr()
    assert main(["analyze", "--op", "profile", "--in", str(src), f"--windows={windows}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: window length ")


@pytest.mark.parametrize(
    "matrix, steps, bits",
    [
        ("[[2,1],[1,1]]", "20", "99999999999"),
        ("[[2,1],[1,1]]", "20", "-1"),
        # a large induced norm lifts the error powers to about precision_bits
        ("[[99999999999999999999,1],[1,1]]", "1048576", "67108864"),
    ],
)
def test_algsys_orbit_precision_bits_are_bounded(capsys, matrix, steps, bits):
    argv = ["algsys", "orbit", "--matrix", matrix, "--x0", "1/5,2/5", "--steps", steps, "--precision-bits", bits]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0  # rejected before the orbit is iterated
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "precision" in err[0]


def test_toral_experiment_bounds_precision_before_building_x0(capsys):
    config = json.dumps({"precision_bits": 100000000000})
    assert main(["experiment", "--name", "toral-discrepancy", "--config", config]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: orbit precision budget")


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
    assert usage_error(capsys, ["verify", "--name", "z-prefix-digits", "--seed", "5"]).endswith("--seed 5")
    assert main(["pnormal", "--p", "1/5", "--seed", "5"]) == 0


def test_pnormal_mc_budget(budget_dir, capsys):
    assert_beyond_budget(capsys, "Monte-Carlo", ["pnormal", "--p", "1/5", "--mc", "100000000"])


def test_gray_listing_beyond_budget_is_usage_error(budget_dir, capsys):
    assert_beyond_budget(capsys, "exhaustive check", ["gray", "--n", "21"])
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
    message = usage_error(capsys, ["algsys", *argv])
    assert message == f"normlab algsys {argv[0]}: the following arguments are required: {missing}"


def test_algsys_ca_negative_n_is_usage_error(tmp_path, capsys):
    stream = tmp_path / "b.nseq"
    assert main(["generate", "--kind", "bernoulli", "--p", "1/2", "--n", "16", "--out", str(stream)]) == 0
    capsys.readouterr()
    assert main(["algsys", "ca", "--in", str(stream), "--n", "-1", "--out", str(tmp_path / "ca.nseq")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == "error: n must be >= 0, got -1"
    assert not (tmp_path / "ca.nseq").exists()


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


def _experiment(name: str, **config) -> list[str]:
    return ["experiment", "--name", name, "--config", json.dumps(config)]


def _misshapen_overrides():
    """For each object parameter of the manifest and each list parameter
    whose entries are objects: per key of the object, a copy without the key
    and one with a value of another JSON type; for a list, also a non-object
    entry."""
    rows = []
    for name, cfg in experiments.load_manifest()["experiments"].items():
        for key, value in cfg.items():
            if isinstance(value, dict):
                obj, wrap = value, lambda entry: entry
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                obj, wrap = value[0], lambda entry: [entry]
                rows.append(pytest.param(name, {key: [5]}, id=f"{name}-{key}-non-object"))
            else:
                continue
            for k, v in obj.items():
                missing = {j: w for j, w in obj.items() if j != k}
                retyped = {**obj, k: 1 if isinstance(v, str) else "1"}
                rows.append(pytest.param(name, {key: wrap(missing)}, id=f"{name}-{key}-no-{k}"))
                rows.append(pytest.param(name, {key: wrap(retyped)}, id=f"{name}-{key}-{k}-retyped"))
    return rows


@pytest.mark.parametrize("name, config", _misshapen_overrides())
def test_experiment_config_entries_must_be_shaped_like_the_manifest(capsys, name, config):
    # these once reached the experiment and ended in a KeyError or
    # TypeError traceback, or failed a check (exit 1)
    t0 = time.perf_counter()
    assert main(["experiment", "--name", name, "--config", json.dumps(config)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} parameter ")


def test_every_floor_is_held_by_a_manifest_integer():
    manifest = experiments.load_manifest()["experiments"]
    assert experiments._FLOORS.keys() == manifest.keys()
    for name, floors in experiments._FLOORS.items():
        for key, low in floors.items():
            assert type(manifest[name][key]) is int and manifest[name][key] >= low, (name, key)


def test_every_manifest_value_is_shaped_like_itself():
    for name, cfg in experiments.load_manifest()["experiments"].items():
        experiments._check_overrides(name, cfg, cfg)
    census = experiments.load_manifest()["experiments"]["low-entropy-census"]["cases"][0]
    experiments._check_overrides("low-entropy-census", {"cases": [census]}, {"cases": [{**census, "c": 1}]})


@pytest.mark.parametrize(
    "name, config, key",
    [
        ("low-entropy-census", {"cases": []}, "cases"),
        ("xy-switch-decay", {"prefix_log2s": []}, "prefix_log2s"),
        ("toral-discrepancy", {"matrix": []}, "matrix"),
        ("toral-discrepancy", {"matrix": [[], []]}, "matrix[0]"),
    ],
    ids=["census-cases", "xy-prefix-log2s", "toral-matrix", "toral-matrix-row"],
)
def test_experiment_empty_list_is_usage_error(capsys, name, config, key):
    # an empty list of census cases ran no check and reported PASS
    t0 = time.perf_counter()
    assert main(_experiment(name, **config)) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {name} parameter {key!r} must be a non-empty list, got []"]


@pytest.mark.parametrize(
    "name, m_max",
    [("kappa-goodness", 0), ("kappa-goodness", -2), ("rational-multiple-goodness", 0)],
    ids=["kappa-0", "kappa-negative", "rational-multiple-0"],
)
def test_experiment_that_runs_no_check_is_usage_error(capsys, name, m_max):
    # one check per m <= m_max: with none, there is nothing to pass
    assert main(_experiment(name, m_max=m_max)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {name} ran no check: its parameters leave nothing to check"]


def test_recorded_curve_is_not_an_override(capsys):
    # no experiment reads recorded_curve, so an override of it changed nothing and exited 0
    t0 = time.perf_counter()
    assert main(_experiment("xy-switch-decay", recorded_curve=[1])) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: xy-switch-decay has no parameter 'recorded_curve'; known: ")


ORBIT = ["algsys", "orbit", "--matrix", "[[2,1],[1,1]]", "--x0", "1/5,2/5"]
ARITH = ["arith", "--in", "y.nseq", "--frac-bits", "100000000000", "--out", "out.nseq"]

# Command lines that go beyond each budget in errors.BUDGETS, by budget name
# and row id.  Each runs in a directory that holds only y.nseq, 4,160 digits
# of y.
BEYOND_BUDGET = {
    "digit": {
        "generate-kappa-1e14": ["generate", "--kind", "kappa", "--n", "99999999999999"],
        "kappa-goodness-prefix-2^40": _experiment("kappa-goodness", prefix_log2=40),
    },
    "fixed-point": {
        "mulq": [*ARITH, "--op", "mulq", "--int-part", "1", "--p", "4", "--q", "3"],
        "neg": [*ARITH, "--op", "neg"],
        "shiftsum": [*ARITH, "--op", "shiftsum", "--shifts", "0,2"],
    },
    "obstruction": {"spr-obstruction-near-half": _experiment("spr-obstruction", p="500001/1000000")},
    "p-denominator": {"carry-monte-carlo-long-p": _experiment("carry-monte-carlo", p="1/" + "7" * 1000)},
    "decimal exponent": {
        "x0-3e+100000000": ["algsys", "orbit", "--matrix", "[[2,1],[1,1]]", "--x0", "3e+100000000,1/5"],
    },
    "Monte-Carlo": {"carry-monte-carlo-n": _experiment("carry-monte-carlo", n=10**9)},
    "enumeration": {"census-m-40": _experiment("low-entropy-census", cases=[{"m": 40, "n": 1, "c": 0.5, "expected": 0}])},
    "exhaustive check": {"n-max": _experiment("gray-invariants", n_max=40)},
    "orbit grid": {
        "grid-bits-20": [*ORBIT, "--grid-bits", "20"],
        "grid-bits-40": [*ORBIT, "--grid-bits", "40"],
    },
    "orbit steps": {"steps-1e11": _experiment("toral-discrepancy", steps=100000000000)},
    "orbit storage": {"steps-400000": _experiment("toral-discrepancy", steps=400000)},
    "orbit precision": {"precision-bits-2e6": [*ORBIT, "--precision-bits", "2000000"]},
    "closed-form points": {
        "grid-points": _experiment("carry-closed-forms", grid_points=10**10),
        "n-random": _experiment("carry-closed-forms", n_random=10**10),
    },
    "gray words": {"starts-per-n": _experiment("gray-invariants", starts_per_n=10**9)},
    "roundtrip cases": {
        "pairs": _experiment("arithmetic-roundtrips", pairs=10**9),
        "roundtrip-cases": _experiment("arithmetic-roundtrips", roundtrip_cases=10**10),
    },
    "roundtrip stream digits": {"digits": _experiment("arithmetic-roundtrips", digits=10**10)},
}


def beyond_budget(*names: str) -> list:
    return [pytest.param(name, argv, id=i) for name in names for i, argv in BEYOND_BUDGET[name].items()]


@pytest.fixture
def budget_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_nseq("y.nseq", y_sequence(), count=4160)


def assert_beyond_budget(capsys, name: str, argv: list[str]) -> None:
    """The budget is checked before the work it bounds: exit 2 at once with
    one error line naming it, and nothing printed or written."""
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} budget is {BUDGETS[name].what} <= ")
    assert os.listdir() == ["y.nseq"]


def test_every_budget_has_rows():
    assert BEYOND_BUDGET.keys() == BUDGETS.keys()


# The rows of some budgets run under the names of the tests they came from.
ORBIT_BUDGETS = ("orbit grid", "orbit steps", "orbit storage")
LOOP_BUDGETS = ("closed-form points", "exhaustive check", "gray words", "roundtrip cases", "roundtrip stream digits")
OWN_TESTS = {*ORBIT_BUDGETS, *LOOP_BUDGETS, "digit", "fixed-point"}


@pytest.mark.parametrize("name, argv", beyond_budget(*(n for n in BEYOND_BUDGET if n not in OWN_TESTS)))
def test_budget_is_usage_error(budget_dir, capsys, name, argv):
    assert_beyond_budget(capsys, name, argv)


@pytest.mark.parametrize("name, argv", beyond_budget(*ORBIT_BUDGETS))
def test_orbit_budget_is_usage_error(budget_dir, capsys, name, argv):
    assert_beyond_budget(capsys, name, argv)


@pytest.mark.parametrize("name, argv", beyond_budget(*LOOP_BUDGETS))
def test_experiment_loop_budget_is_usage_error(budget_dir, capsys, name, argv):
    assert_beyond_budget(capsys, name, argv)


@pytest.mark.parametrize("name, argv", beyond_budget("digit"))
def test_digit_budget_is_usage_error(budget_dir, capsys, name, argv):
    assert_beyond_budget(capsys, name, argv)


@pytest.mark.parametrize("name, argv", beyond_budget("fixed-point"))
def test_arith_frac_bits_beyond_budget_is_usage_error(budget_dir, capsys, name, argv):
    assert_beyond_budget(capsys, name, argv)


DIGIT_BUDGET = "digit budget is digits read at once <= 67108864, got "


@pytest.mark.parametrize(
    "name, config, message",
    [
        ("z-switch-half", {"prefix_log2": 10**10}, DIGIT_BUDGET + "2^10000000000"),
        ("rational-multiple-goodness", {"prefix_log2": 10**10}, DIGIT_BUDGET + "2^10000000000"),
        ("ca-switch-identity", {"prefix_log2": 10**10}, DIGIT_BUDGET + "2^10000000000"),
        ("kappa-goodness", {"prefix_log2": -1},
         "kappa-goodness parameter 'prefix_log2' must be >= 0, got -1"),
        ("complexity-contrast", {"kappa_prefix_log2": 27}, DIGIT_BUDGET + "2^27"),
        ("xy-switch-decay", {"prefix_log2s": [12, 10**10]}, DIGIT_BUDGET + "2^10000000000"),
        ("xy-switch-decay", {"prefix_log2s": []},
         "xy-switch-decay parameter 'prefix_log2s' must be a non-empty list, got []"),
        ("vy-identity", {"tolerance_log2": 1}, "vy-identity parameter 'tolerance_log2' must be <= 0, got 1"),
        ("vy-identity", {"tolerance_log2": -(2**26) - 1}, DIGIT_BUDGET + "67108865"),
        ("vy-identity", {"tolerance_log2": -(10**10)}, DIGIT_BUDGET + "10000000000"),
    ],
    ids=["z-switch-half", "rational-multiple-goodness", "ca-switch-identity", "kappa-goodness-negative",
         "complexity-contrast", "xy-switch-decay", "xy-switch-decay-empty", "vy-identity-positive",
         "vy-identity-below-budget", "vy-identity-1e10"],
)
def test_experiment_exponent_beyond_budget_is_usage_error(capsys, name, config, message):
    # an exponent key is checked before any 1 << key is built
    t0 = time.perf_counter()
    assert main(["experiment", "--name", name, "--config", json.dumps(config)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("tolerance_log2, code", [(0, 0), (-(2**26), 1)])
def test_vy_identity_tolerance_ends_are_accepted(capsys, tolerance_log2, code):
    # 2^0 holds |v*y - 1|; 2^-(2^26) is far below it, so the check fails
    assert main(["experiment", "--name", "vy-identity", "--config", json.dumps({"tolerance_log2": tolerance_log2})]) == code
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p", ["500001/1000000", "0.5000000000000000000001", "50001/100000"])
def test_pnormal_near_half_ends_quickly(capsys, p):
    start = time.perf_counter()
    code = main(["pnormal", "--p", p, "--format", "json"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["l"] == 17329
    else:
        assert code == 2
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: obstruction budget is l * bits(n) <= 1048576, got ")


@pytest.mark.parametrize(
    "p", ["1e-100000", "1e-1000000", "1e-100000000", "1e-100_000_000", "3e+100000000", "1/" + "7" * 1000]
)
def test_pnormal_long_denominator_ends_quickly(capsys, p):
    start = time.perf_counter()
    assert main(["pnormal", "--p", p]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(("error: p-denominator budget", "error: decimal exponent budget"))


_TOO_WIDE = "a {k} sigma band over {n} trials is too wide to test: every outcome gets the same result"


@pytest.mark.parametrize(
    "argv, message",
    [
        (_experiment("carry-monte-carlo", lookahead_cap=-5), "lookahead_cap must be >= 0, got -5"),
        (_experiment("arithmetic-roundtrips", lookahead_cap=-1), "lookahead_cap must be >= 0, got -1"),
        (_experiment("base4-independence", n=0), "base4-independence needs n >= 2, got 0"),
        (_experiment("base4-independence", n=1), "base4-independence needs n >= 2, got 1"),
        (_experiment("arithmetic-roundtrips", max_pq=0), "arithmetic-roundtrips needs max_pq >= 1, got 0"),
        # each of these checked nothing and reported PASS
        (_experiment("gray-invariants", n_max=0), "gray-invariants needs n_max >= 1, got 0"),
        (_experiment("arithmetic-roundtrips", pairs=0), "arithmetic-roundtrips needs pairs >= 1, got 0"),
        (_experiment("arithmetic-roundtrips", roundtrip_cases=-1),
         "arithmetic-roundtrips needs roundtrip_cases >= 1, got -1"),
        (_experiment("gray-invariants", starts_per_n=0), "gray-invariants needs starts_per_n >= 1, got 0"),
        (_experiment("low-entropy-census", cases=[{"m": 0, "n": 0, "c": 0.5, "expected": 1}]),
         "block length n=0 must be >= 1"),
        (_experiment("low-entropy-census", cases=[{"m": 4, "n": 0, "c": 0.5, "expected": 16}]),
         "block length n=0 must be >= 1"),
        (_experiment("toral-discrepancy", grid_bits=-1), "grid_bits must be >= 0, got -1"),
        ([*ORBIT, "--grid-bits", "-1"], "grid_bits must be >= 0, got -1"),
        # each of these checked nothing and reported PASS
        (_experiment("carry-closed-forms", grid_points=-1), "carry-closed-forms needs grid_points >= 2, got -1"),
        (_experiment("carry-closed-forms", grid_points=1), "carry-closed-forms needs grid_points >= 2, got 1"),
        (_experiment("carry-closed-forms", n_random=0), "carry-closed-forms needs n_random >= 1, got 0"),
        (_experiment("spr-obstruction", sigma_count=-1), "spr-obstruction needs sigma_count >= 1, got -1"),
        (_experiment("complexity-contrast", kappa_c_min=0), "complexity-contrast needs kappa_c_min >= 1, got 0"),
        # counted over 0 anchors and reported obstruction-inequality BAD, exit 1
        (_experiment("spr-obstruction", n=1), "spr-obstruction needs n >= 2, got 1"),
        # a floor is held before the body's budgets
        (_experiment("carry-closed-forms", n_random=0, grid_points=10**10),
         "carry-closed-forms needs n_random >= 1, got 0"),
        # a band that holds every outcome: each reported PASS, or a BAD no count could mend
        (_experiment("zip-columns", n=1), _TOO_WIDE.format(k=3, n=1)),
        (_experiment("base4-independence", n=2), _TOO_WIDE.format(k=3, n=2)),
        (_experiment("modp-translation", n=2), _TOO_WIDE.format(k=3, n=1)),
        (_experiment("carry-monte-carlo", n=1000, sigma_count=1000), _TOO_WIDE.format(k=1000, n=1000)),
        (_experiment("spr-obstruction", n=2), _TOO_WIDE.format(k=3, n=1)),
        # 5 anchors: 3 sigma of the forced cap exceeds the product demand 0.49
        (_experiment("spr-obstruction", n=10), _TOO_WIDE.format(k=3, n=5)),
        # a band of 0 sigma: every cell reported BAD, exit 1
        (_experiment("base4-independence", sigma_count=0), "base4-independence needs sigma_count >= 1, got 0"),
        (_experiment("modp-translation", sigma_count=0), "modp-translation needs sigma_count >= 1, got 0"),
        (_experiment("zip-columns", sigma_count=0), "zip-columns needs sigma_count >= 1, got 0"),
        (_experiment("carry-monte-carlo", sigma_count=-1), "carry-monte-carlo needs sigma_count >= 1, got -1"),
        # each named no parameter the user set: "N must be >= 1", "block length m=2 exceeds the 0 digits"
        (_experiment("zip-columns", n=0), "zip-columns needs n >= 1, got 0"),
        (_experiment("modp-translation", n=0), "modp-translation needs n >= 2, got 0"),
    ],
    ids=["carry-monte-carlo-cap", "arithmetic-roundtrips-cap", "base4-n-0", "base4-n-1", "max-pq-0",
         "gray-n-max-0", "roundtrip-pairs-0", "roundtrip-cases-negative", "gray-starts-0", "census-m-0-n-0",
         "census-n-0", "toral-grid-bits", "orbit-grid-bits", "closed-forms-grid-negative", "closed-forms-grid-1",
         "closed-forms-random-0", "spr-sigma-negative", "complexity-kappa-min-0", "spr-n-1", "closed-forms-floor-first",
         "zip-n-1", "base4-n-2", "modp-n-2", "carry-monte-carlo-wide", "spr-n-2", "spr-n-10", "base4-sigma-0",
         "modp-sigma-0", "zip-sigma-0", "carry-monte-carlo-sigma-negative", "zip-n-0", "modp-n-0"],
)
def test_experiment_value_outside_its_domain_is_usage_error(capsys, argv, message):
    # the alarm turns a hang, such as an endless carry-scan loop, into a failure of this row
    def hung(signum, frame):
        raise TimeoutError(" ".join(argv))

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_spr_obstruction_without_a_certified_anchor_is_usage_error(monkeypatch, capsys):
    # every carry-sum digit ambiguous: no anchor is left to tally
    carry_sum = experiments.stream_carry_add

    def all_ambiguous(*args):
        digits, ambiguous = carry_sum(*args)
        return digits, np.ones_like(ambiguous)

    monkeypatch.setattr(experiments, "stream_carry_add", all_ambiguous)
    assert main(_experiment("spr-obstruction", n=2)) == 2
    assert capsys.readouterr().err.splitlines() == ["error: no certified anchor to tally"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pnormal", "--p", "1/0"],
        ["generate", "--kind", "bernoulli", "--p", "1/0", "--n", "10"],
        ["generate", "--kind", "bernoulli", "--p", "1e-99999999", "--n", "10"],
        ["algsys", "orbit", "--matrix", "[[2,1],[1,1]]", "--x0", "1/0,1/5"],
        ["algsys", "orbit", "--matrix", "[[2,1],[1,1]]", "--x0", "1e-99999999,1/5"],
        *(_experiment(name, p=p) for name in ("carry-monte-carlo", "spr-obstruction") for p in ("1/0", "1e-99999999")),
        _experiment("kappa-goodness", bound_factor=float("inf")),
        _experiment("complexity-contrast", eps=float("inf")),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_outside_rationals_are_read_exactly_or_refused(tmp_path, monkeypatch, capsys, argv):
    # a zero denominator or a decimal exponent far beyond its digits is
    # refused before any power of ten is built
    monkeypatch.chdir(tmp_path)
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, codes",
    [
        # 245,760 bytes, more than a pipe holds: a write after the reader
        # has gone must fail
        (["gray", "--n", "14"], {141}),
        # 379 bytes, which may all be written before the reader goes
        (["verify", "--name", "arithmetic-roundtrips"], {0, 141}),
    ],
    ids=["gray-n-14", "verify-roundtrips"],
)
def test_stdout_closed_by_its_reader_exits_141_silently(argv, codes, unbuffered):
    # a fresh interpreter, as `normlab ... | head -1` runs it: its final
    # flush of stdout must not print either
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(normlab.__file__)),
           "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "normlab", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) in codes
    assert err == b""
