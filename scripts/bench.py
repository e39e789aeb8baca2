#!/usr/bin/env python3
"""Record the benchmark trajectory: one BENCH_<n>.json per change.

Runs perfbench/run.py on each workload at the pinned seed SEED, once with
--trace 0 (end-to-end metrics) and once with --trace 1 (per-layer metrics),
reads the result files it leaves in .perfbench_out/, and writes

    {"env", "git_sha", "dirty", "src_lines", "seed", "size", "seconds",
     "end_to_end": {workload: {"correct", "attempted", "failed", metric: value}},
     "layers": {workload: {"correct", metric: value}}}

With --base REV it also extracts REV with `git archive REV | tar -x` into a
new directory of the temporary directory whose path is as long as this
checkout's (perfbench's peak RSS moves with the path length), runs PAIRS
alternated pairs of untraced base and change runs of each workload, the
side that runs first alternating, removes the copy, and adds

     "pairs": {"base_rev", "base_sha", "workloads": {workload: {"correct",
               metric: {"n", "base_median", "change_median", "base_iqr",
                        "change_wins"}}}}

where change_wins counts the pairs the change won (ties count for
neither) and base_iqr is the distance between the quartiles of the base
runs.  Set TMPDIR to a shorter directory when the temporary directory's
path is not shorter than the checkout's.

Then it prints a field-by-field diff against the newest BENCH file numbered
below n, skipping metrics that read 0 on both sides (layers a workload does
not use).  "dirty" says whether the tree held changes besides BENCH files
when the runs started, so that git_sha names the measured code only when it
is false.  trace.overhead_s is a traced wall minus an untraced wall from
another run, so its diff is printed in seconds, not as a percentage.  Exits
1 when a field is missing or a run reports "correct": false.
perfbench does all the timing; this script only drives it and collects.

Usage: python3 scripts/bench.py (--number N | --out PATH) [--seconds 30] [--size full|tiny]
                                [--base REV]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import random
import re
import shutil
import statistics
import string
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-suite", "cli-session", "block-stats")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib", "ok_ops_ratio")
HIGHER_IS_BETTER = ("ok_ops_ratio",)  # lower is better for the other end-to-end metrics
ENV_FIELDS = ("python", "numpy", "platform", "nproc", "cpu_model", "src_sha256")
SEED = 3  # every BENCH file is measured at this seed, so any two of them compare
PAIRS = 10  # alternated pairs per workload with --base: a claimed gain must win at least nine of ten
OVERHEAD_NOISE_S = 0.2  # trace.overhead_s moves by about this much between runs of the same code


def run(workload: str, trace: int, args, root: Path = ROOT) -> dict:
    """The result of perfbench/run.py on the checkout at `root`."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(args.seconds), "--size", args.size,
           "--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / ".perfbench_out" / f"result-{workload}-trace{trace}.json"
    return json.loads(path.read_text())


def equal_length_dir() -> Path:
    """A new empty directory in the temporary directory whose path has as
    many characters as ROOT's."""
    tmp = Path(tempfile.gettempdir()).resolve()
    room = len(str(ROOT)) - len(str(tmp)) - 1
    if room < 1:
        raise SystemExit(f"error: the temporary directory {tmp} is too long for a checkout as long as "
                         f"{ROOT}; set TMPDIR to a shorter directory")
    for _ in range(100):
        path = tmp / "".join(random.choices(string.ascii_lowercase, k=room))
        with contextlib.suppress(FileExistsError):
            path.mkdir()
            return path
    raise SystemExit(f"error: no free directory name of {room} characters in {tmp}")


@contextlib.contextmanager
def checkout(rev: str):
    """The committed files of `rev`, extracted by `git archive | tar -x`
    into an `equal_length_dir()` and removed on exit.  Nothing is written
    under .git."""
    path = equal_length_dir()
    try:
        with subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE) as archive:
            subprocess.run(["tar", "-x", "-C", str(path)], stdin=archive.stdout, check=True)
        if archive.returncode:
            raise SystemExit(f"error: git archive {rev} exited {archive.returncode}")
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def pair_stats(name: str, base: list[float], change: list[float]) -> dict:
    """Both medians, the base IQR and the change's wins over pairs
    (base[i], change[i]) of end-to-end metric `name`; ties win nothing."""
    better = operator.gt if name in HIGHER_IS_BETTER else operator.lt
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    return {"n": len(base), "base_median": statistics.median(base), "change_median": statistics.median(change),
            "base_iqr": q3 - q1, "change_wins": sum(map(better, change, base))}


def alternated_pairs(args) -> dict:
    """The "pairs" section: PAIRS alternated untraced runs of REV and
    of this checkout per workload."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    section = {"base_rev": args.base, "base_sha": sha, "workloads": {}}
    with checkout(sha) as base:
        for workload in WORKLOADS:
            runs = {base: [], ROOT: []}
            for i in range(PAIRS):
                for root in ((base, ROOT) if i % 2 == 0 else (ROOT, base)):
                    runs[root].append(run(workload, 0, args, root))
            row = {"correct": all(res["correct"] for side in runs.values() for res in side)}
            for name in END_TO_END:
                values = {root: [res["metrics"][name]["value"] for res in side] for root, side in runs.items()}
                row[name] = pair_stats(name, values[base], values[ROOT])
            section["workloads"][workload] = row
    return section


def dirty() -> bool | None:
    """Whether `git status --porcelain` lists a change outside BENCH_*.json
    (None outside a git checkout)."""
    try:
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return any(not re.fullmatch(r'"?BENCH_\d+\.json"?', line[3:]) for line in status.splitlines())


def collect(args) -> dict:
    tree_dirty = dirty()
    bench = {"end_to_end": {}, "layers": {}}
    if args.base is not None:
        bench["pairs"] = alternated_pairs(args)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "layers")):
            res = run(workload, trace, args)
            row = {"correct": res["correct"]}
            if trace == 0:
                row.update(attempted=res["attempted"], failed=res["failed"])
            row.update({name: m["value"] for name, m in res["metrics"].items()})
            bench[section][workload] = row
            prov = res["provenance"]
    return {
        "env": {k: prov.get(k) for k in ENV_FIELDS},
        "git_sha": prov.get("git_sha"),
        "dirty": tree_dirty,
        "src_lines": prov.get("src_lines"),
        "seed": SEED,
        "size": args.size,
        "seconds": args.seconds,
        **bench,
    }


def problems(bench: dict) -> list[str]:
    """Missing fields and incorrect runs."""
    out = [f"missing field {f}" for f in ("env", "git_sha", "src_lines", "end_to_end", "layers")
           if bench.get(f) is None]
    for section, need in (("end_to_end", ("correct",) + END_TO_END), ("layers", ("correct",))):
        for workload in WORKLOADS:
            row = bench.get(section, {}).get(workload)
            if row is None:
                out.append(f"missing {section}.{workload}")
                continue
            out += [f"missing {section}.{workload}.{f}" for f in need if f not in row]
            if row.get("correct") is False:
                out.append(f"{section}.{workload}: correct is false")
    for workload, row in bench.get("pairs", {}).get("workloads", {}).items():
        if not row["correct"]:
            out.append(f"pairs.{workload}: a run reports correct false")
    return out


def pairs_table(section: dict) -> list[str]:
    lines = [f"{'pairs against ' + section['base_sha'][:12]:38} {'base':>12} {'change':>12} {'base IQR':>10}  wins"]
    for workload, row in section["workloads"].items():
        for name in END_TO_END:
            st = row[name]
            lines.append(f"{workload + '.' + name:38} {_fmt(st['base_median']):>12} {_fmt(st['change_median']):>12} "
                         f"{_fmt(st['base_iqr']):>10}  {st['change_wins']}/{st['n']}")
    return lines


def earlier(number: int | None, out: Path) -> Path | None:
    """The BENCH file with the largest number below `number` (any, if None)."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and path.resolve() != out.resolve() and (number is None or int(m[1]) < number):
            found.append((int(m[1]), path))
    return max(found)[1] if found else None


def diff(old: dict, new: dict) -> list[str]:
    lines = [f"{f:58} {old.get(f)!s:>14} -> {new.get(f)!s:>14}" for f in ("git_sha", "dirty", "src_lines")]
    for section in ("end_to_end", "layers"):
        for workload in WORKLOADS:
            a, b = old.get(section, {}).get(workload, {}), new.get(section, {}).get(workload, {})
            for name in sorted(set(a) | set(b)):
                x, y = a.get(name), b.get(name)
                if x or y:
                    key = f"{section}.{workload}.{name}"
                    lines.append(f"{key:58} {_fmt(x):>14} -> {_fmt(y):>14} {_change(name, x, y):>8}")
    return lines


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return "-" if v is None else str(v)


def _change(name: str, x, y) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
    if numbers and name == "trace.overhead_s":
        return f"{y - x:+.3f} s (noise below ~{OVERHEAD_NOISE_S} s)"
    return f"{(y - x) / abs(x):+.1%}" if numbers and x else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--number", type=int, help="number n of the change: writes BENCH_<n>.json at the repository root")
    ap.add_argument("--out", type=Path, help="write here instead of BENCH_<n>.json")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--base", metavar="REV", help="also run alternated pairs against this revision")
    args = ap.parse_args()
    if args.number is None and args.out is None:
        ap.error("give --number or --out")
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    bench = collect(args)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    if "pairs" in bench:
        print("\n".join(pairs_table(bench["pairs"])))
    base = earlier(args.number, out)
    if base is not None:
        old = json.loads(base.read_text())
        if old.get("size") != bench["size"]:
            print(f"{base.name} ran at size {old.get('size')}: no diff")
        else:
            print(f"diff against {base.name}:")
            print("\n".join(diff(old, bench)))
    bad = problems(bench)
    for p in bad:
        print(f"error: {p}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
