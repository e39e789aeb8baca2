"""Record the output digests every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/pin.py [--size full|tiny ...]

Runs one pass of each workload for every pinned input seed (0..15 and the
held-out seed) and rewrites perfbench/pins.json.  Run it only on a commit
whose outputs are known to be right: a later commit's outputs are correct
exactly when they match these digests.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=tuple(workloads.SIZES), action="append")
    args = ap.parse_args()
    path = HERE / "pins.json"
    pins = workloads.load_pins(path) if path.is_file() else {}
    workdir = workloads.workdir_for(HERE.parent)
    seeds = list(range(workloads.DEV_SEEDS)) + [workloads.HELD_OUT_SEED]
    for size in args.size or list(workloads.SIZES):
        pins[size] = {}
        for name in workloads.WORKLOADS:
            pins[size][name] = {}
            for seed in seeds if name != "verify-suite" else [0]:
                w = workloads.make(name, size, seed, workdir)
                w.run()
                pins[size][name][workloads.pins_key(name, seed)] = {
                    op: workloads.digest(v) for op, v in w.outputs()
                }
                print(size, name, seed, len(pins[size][name][workloads.pins_key(name, seed)]), "ops", flush=True)
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
