"""normlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {verify-suite|cli-session|block-stats}
                             --seed N --seconds S --trace {0|1}

Run from anywhere inside a checkout that holds ``src/normlab``; the program
is imported from that source tree.  Every workload runs in fresh child
processes (child.py) with NORMLAB_THREADS unset and one BLAS thread.

--trace 0 prints the end-to-end metrics: wall_s (median untraced pass),
setup_s (median of five fresh-process set-ups), peak_rss_mib and
ok_ops_ratio.  --trace 1 prints the per-layer metrics of one traced pass and
writes its spans to .perfbench_out/.  The line before the result holds the
provenance (versions, machine, git sha, size of src/normlab).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "normlab"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NORMLAB_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class ChildError(RuntimeError):
    pass


def run_child(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise ChildError(f"{mode} child exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy

    files = sorted(SRC.glob("*.py")) + [SRC / "tolerances.json"]
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        if f.suffix == ".py":
            lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": h.hexdigest()[:16],
        "src_lines": lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="tiny: seconds-long inputs for the self-test")
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no normlab source tree at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = run_child("trace", args, deadline)
            metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            run_child("setup", args, deadline)  # warm-up: bytecode and page cache, not measured
            setups = [run_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            res = run_child("measure", args, deadline)
            setups.append(res["setup_s"])
            values = {
                "wall_s": statistics.median(res["walls"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": res["peak_rss_mib"],
                "ok_ops_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
            res["setup_samples"] = setups
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "input_seed": workloads.input_seed(args.seed),
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "passes_s": res["walls"], "setup_samples_s": res.get("setup_samples"),
        "failed_ops": res["failed_ops"], **provenance(),
    }
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    out = workloads.workdir_for(ROOT) / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": info, **result}, indent=1) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
