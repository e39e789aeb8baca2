"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks that
  1. every workload, traced and untraced, prints exactly the metrics that
     BENCHMARK.json names, each with its unit, and passes its pins;
  2. the benchmark refuses to run without a normlab source tree;
  3. flipping one output digit, or one digit inside the program, counts as a
     failed operation (failed_ops_ratio > 0);
  4. self times on a synthetic nested span tree are exact.
Exits 1 at the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} matches metrics.py ({len(listed)} metrics)")
    for workload in workloads.WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run_bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result has exactly its four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} --trace {trace} passes its pins")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == table, f"{workload} --trace {trace} prints every metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values), "every value is a number")


def check_refuses_bare_directory() -> None:
    bare = workloads.workdir_for(ROOT) / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "cli-session", 0)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "no result and a non-zero exit without src/normlab")


def failed_after(workload: str, corrupt) -> tuple[int, int]:
    """(attempted, failed) of one tiny pass whose outputs `corrupt` altered."""
    pins = workloads.load_pins(HERE / "pins.json")["tiny"][workload]
    w = workloads.make(workload, "tiny", 3, workloads.workdir_for(ROOT))
    w.run()
    corrupt(w)
    attempted, failed, _ = workloads.check(w.outputs(), pins[workloads.pins_key(workload, 3)])
    return attempted, failed


def flip_file_digit(w) -> None:
    path = w.dir / "mulq.nseq"
    data = bytearray(path.read_bytes())
    data[20] ^= 1  # one payload bit = one fraction digit
    path.write_bytes(bytes(data))


def flip_probe_digit(w) -> None:
    w.results["kappa/probes"][0] ^= 1


def flip_check_digit(w) -> None:
    check = w.reports[0].checks[0]
    check.measured = ("1" if check.measured[0] == "0" else "0") + check.measured[1:]


def check_digest_gate() -> None:
    for workload, corrupt in (("verify-suite", lambda w: None), ("cli-session", lambda w: None),
                              ("block-stats", lambda w: None)):
        expect(failed_after(workload, corrupt)[1] == 0, f"{workload}: clean tiny pass has no failed op")
    for workload, corrupt in (("verify-suite", flip_check_digit), ("cli-session", flip_file_digit),
                              ("block-stats", flip_probe_digit)):
        attempted, failed = failed_after(workload, corrupt)
        expect(failed >= 1 and failed / attempted > 0, f"{workload}: one flipped output digit fails an op")

    from normlab import bitarith

    original = bitarith.FixedPointNumber.fraction_digits

    def flipped(self, count, certified_only=True):
        digits = original(self, count, certified_only).copy()
        digits[-1] ^= 1
        return digits

    bitarith.FixedPointNumber.fraction_digits = flipped
    try:
        attempted, failed = failed_after("cli-session", lambda w: None)
    finally:
        bitarith.FixedPointNumber.fraction_digits = original
    expect(failed >= 1, f"cli-session: one digit flipped inside bitarith fails {failed}/{attempted} ops")


def check_self_time() -> None:
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 20.0, 21.0, 22.0, 25.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("a.root", "x"):          # [0, 10]
        with t.span("b.child", "y"):     # [1, 4]
            with t.span("c.leaf", "x"):  # [2, 3]
                pass
        with t.span("d.child", "y"):     # [5, 9]
            pass

    def rec(n):
        return rec_traced(n - 1) if n else 0

    rec_traced = t.wrap("g.rec", rec)
    rec_traced(1)                        # outer [20, 25], inner [21, 22]
    s = summarize(t)
    expect(s["layer_self_s"] == {"x": 4.0, "y": 6.0, "g": 5.0, "trace": 0.0}, "self time = duration - child coverage, per layer")
    expect(s["incl_s"]["a.root"] == 10.0 and s["incl_s"]["g.rec"] == 5.0, "inclusive time counts outermost calls only")
    expect(s["calls"]["g.rec"] == 2 and s["top_level_s"] == 15.0 and s["spans"] == 6, "calls, top-level cover, span count")


if __name__ == "__main__":
    check_self_time()
    check_digest_gate()
    check_refuses_bare_directory()
    check_printed_metrics()
    print("selftest passed")
