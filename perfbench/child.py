"""One workload in one fresh process; started by run.py, one mode per process.

  setup    time the set-up only
  measure  set up, then repeat untraced passes for --seconds
  trace    set up, one untraced pass, then one traced pass

Prints one JSON object as its last line.  numpy is imported by normlab
inside the timed set-up, so nothing here imports it earlier.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup() -> float:
    """Import of normlab, the manifest load and the lazy caches' warm-up."""
    t0 = time.perf_counter()
    from normlab import cli, experiments, generators  # noqa: F401  (imports every module)

    experiments.load_manifest()
    generators._kappa_prefix_2048()
    generators._v_pattern_4096()
    return time.perf_counter() - t0


def one_pass(w, pinned: dict, span=workloads.no_span) -> tuple[float, int, int, list]:
    gc.collect()
    t0 = time.perf_counter()
    w.run(span)
    wall = time.perf_counter() - t0
    attempted, failed, bad = workloads.check(w.outputs(), pinned)
    return wall, attempted, failed, bad


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = ap.parse_args()

    setup_s = setup()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    pins = workloads.load_pins(HERE / "pins.json")
    pinned = pins[args.size][args.workload].get(workloads.pins_key(args.workload, args.seed), {})
    w = workloads.make(args.workload, args.size, args.seed, workloads.workdir_for(ROOT))
    out = {"setup_s": setup_s, "attempted": 0, "failed": 0, "failed_ops": []}

    def record(result):
        wall, attempted, failed, bad = result
        out["attempted"] += attempted
        out["failed"] += failed
        out["failed_ops"] = sorted(set(out["failed_ops"]) | set(bad))[:20]
        return wall

    if args.mode == "measure":
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(record(one_pass(w, pinned)))
            elapsed = time.perf_counter() - start
            # start another pass only if one more of the same length still fits
            if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
        out["walls"] = walls
    else:
        from metrics import per_layer
        from tracing import Tracer

        untraced = record(one_pass(w, pinned))
        tracer = Tracer()
        tracer.install()
        try:
            traced = record(one_pass(w, pinned, tracer.span))
        finally:
            tracer.uninstall()
        out["walls"] = [untraced, traced]
        out["metrics"] = per_layer(tracer, traced, untraced)
        tracer.write_spans(workloads.workdir_for(ROOT) / f"spans-{args.workload}.npz")
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
