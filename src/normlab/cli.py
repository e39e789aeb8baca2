"""Command-line front end.

Subcommands: generate, analyze, arith, pnormal, algsys, gray, verify,
experiment.  Each accepts only the flags it reads.  Exit codes: 0 pass,
1 failed check, 2 usage error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import algsys, analysis, experiments, generators, grayorder, pnormal
from .bitarith import (
    DEFAULT_GUARD_BITS,
    FixedPointNumber,
    carry_add,
    mul,
    mul_rational,
    neg,
    shifted_sum,
)
from .errors import DomainError
from .seqcore import Block, SymbolicSequence, read_nseq, write_nseq


def _emit(args, payload: dict, csv_rows: list[dict] | None = None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        rows = csv_rows if csv_rows is not None else [payload]
        cols = list(rows[0].keys()) if rows else []
        lines = [",".join(cols)]
        lines += [",".join(str(r[c]) for c in cols) for r in rows]
        text = "\n".join(lines)
    else:
        text = "\n".join(f"{k}: {v}" for k, v in payload.items())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _bernoulli(args) -> SymbolicSequence:
    if args.p is None:
        raise DomainError("bernoulli needs p, seed, and n")
    return generators.bernoulli_stream(args.p, args.seed, args.n)


def _periodic(args) -> SymbolicSequence:
    if not args.pattern:
        raise DomainError("periodic needs a pattern")
    return SymbolicSequence.periodic(Block.from_string(args.pattern, args.r))


# generate's kinds (--kind's choices), each built from the parsed arguments
_KINDS = {
    "kappa": lambda args: generators.kappa_sequence(),
    "y": lambda args: generators.y_sequence(),
    "v": lambda args: generators.v_sequence(),
    "bernoulli": _bernoulli,
    "uniform": lambda args: generators.uniform_stream(args.r, args.seed, args.n),
    "champernowne": lambda args: generators.champernowne_digits(args.r, args.n),
    "periodic": _periodic,
}


def _cmd_generate(args) -> int:
    seq = _KINDS[args.kind](args)
    out = args.out or f"{args.kind}.nseq"
    write_nseq(out, seq, count=args.n)
    print(f"wrote {args.n} base-{seq.r} digits to {out}")
    return 0


def _load_prefix(path: str, L: int | None) -> tuple[np.ndarray, int]:
    seq = read_nseq(path)
    n = seq.horizon if L is None else min(L, seq.horizon)
    return seq.digits(1, n), seq.r


def _cmd_analyze(args) -> int:
    digits, r = _load_prefix(args.infile, args.L)
    L = len(digits)
    if args.op == "entropy":
        rows = [
            {"n": n, "H_bits_per_symbol": analysis.combinatorial_entropy(digits, n, r)}
            for n in range(args.n_min, args.n_max + 1)
        ]
        _emit(args, {"op": "entropy", "L": L, "rows": rows}, rows)
    elif args.op == "complexity":
        rep = analysis.complexity_curve(digits, args.eps, range(args.n_min, args.n_max + 1), r)
        rows = [{"m": m, "C": c, "threshold": t, "below": c < t} for m, c, t in rep.rows]
        _emit(args, rep.as_dict(), rows)
    elif args.op == "goodness":
        rows = [
            {
                "m": m,
                "max_deviation": float(analysis.eps_m_goodness(digits, m, r)),
                "uniform_target": 2.0**-m,
            }
            for m in range(args.n_min, args.n_max + 1)
        ]
        _emit(args, {"op": "goodness", "L": L, "rows": rows}, rows)
    elif args.op == "switches":
        d = analysis.switch_density(digits)
        row = {"L": L, "switch_density": float(d), "exact": str(d)}
        _emit(args, row, [row])
    elif args.op == "profile":
        windows = [int(w) for w in args.windows.split(",")] if args.windows else [L]
        prof = analysis.entropy_profile(digits, windows, range(args.n_min, args.n_max + 1), r)
        rows = [{"window": w, "n": n, "H": h} for w, n, h in prof.rows]
        _emit(args, prof.as_dict(), rows)
    return 0


def _fixed_from_file(path: str, N: int, G: int, int_part: int = 0) -> FixedPointNumber:
    seq = read_nseq(path)
    return FixedPointNumber.from_sequence(seq, N, G, integer_part=int_part)


def _cmd_arith(args) -> int:
    N, G = args.frac_bits, args.guard
    if args.op == "shiftsum":
        seq = read_nseq(args.infile)
        shifts = [int(s) for s in args.shifts.split(",")]
        result = shifted_sum(seq, shifts, N, G)
    else:
        if args.op in ("add", "mul") and args.infile2 is None:
            raise DomainError(f"arith --op {args.op} needs --in2")
        x = _fixed_from_file(args.infile, N, G, args.int_part)
        if args.op == "add":
            y = _fixed_from_file(args.infile2, N, G, args.int_part2)
            result = carry_add(x, y)
        elif args.op == "mul":
            y = _fixed_from_file(args.infile2, N, G, args.int_part2)
            result = mul(x, y, N, G)
        elif args.op == "mulq":
            result = mul_rational(x, args.p, args.q, N, G)
        elif args.op == "neg":
            result = neg(x)
    out = args.out or f"{args.op}.nseq"
    certified = result.certified_digit_count()
    digits = result.fraction_digits(min(N, result.frac_bits), certified_only=False)
    write_nseq(out, SymbolicSequence.from_array(digits))
    sidecar = {
        "certified_digits": certified,
        "error_bound_log2": result.error_bound_log2(),
        "integer_part": result.integer_part(),
        "sign": result.sign,
        "frac_bits": result.frac_bits,
        "guard_bits": result.guard_bits,
    }
    with open(out + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"wrote {len(digits)} fraction digits to {out} (+ sidecar {out}.json)")
    return 0


def _cmd_pnormal(args) -> int:
    stats = pnormal.carry_sum_stats(args.p, mc_n=args.mc, seed=args.seed)
    _emit(args, stats.as_dict())
    return 0


def _write_stream(args, seq: SymbolicSequence) -> int:
    path = args.out or f"{args.op}.nseq"
    write_nseq(path, seq, count=args.n)
    print(f"wrote {args.n} digits to {path}")
    return 0


def _cmd_modp_add(args) -> int:
    return _write_stream(args, algsys.modp_add(read_nseq(args.infile), read_nseq(args.infile2), args.n))


def _cmd_ca(args) -> int:
    ca = algsys.LinearCA(args.p, tuple(int(c) for c in args.coeffs.split(",")))
    return _write_stream(args, algsys.apply_ca(ca, read_nseq(args.infile), args.n))


def _cmd_orbit(args) -> int:
    tmap = algsys.ToralMap.from_rows(json.loads(args.matrix))
    result = algsys.toral_orbit(
        tmap,
        args.x0.split(","),
        args.steps,
        precision_bits=args.precision_bits,
        grid_bits=args.grid_bits,
    )
    _emit(args, result.as_dict())
    return 0


def _cmd_gray(args) -> int:
    start = Block.from_string(args.start, 2) if args.start else None
    n = args.n if start is None else len(start)
    variant = "alternated" if args.variant == "alt" else args.variant
    ordering = grayorder.GrayOrdering(n, start, variant)
    for block in ordering if args.l is None else [ordering.block(args.l)]:
        print(block)
    return 0


def _cmd_verify(args) -> int:
    names = args.names or None
    if args.all:
        names = None
    reports = experiments.verify(names)
    payload = [r.as_dict() for r in reports]
    n_fail = sum(not r.passed for r in reports)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            print("\n".join(rep.summary_lines()))
        print(f"verify: {len(reports) - n_fail}/{len(reports)} experiments passed")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 1 if n_fail else 0


def _cmd_experiment(args) -> int:
    overrides = json.loads(args.config) if args.config else None
    rep = experiments.run_experiment(args.name, overrides)
    if args.format == "json":
        _emit(args, rep.as_dict())
    else:
        print("\n".join(rep.summary_lines()))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(rep.as_dict(), fh, indent=2)
    return 0 if rep.passed else 1


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a usage error, one `error:` line
    from `main`, not argparse's usage block; subparsers share the class."""

    def error(self, message: str):
        raise DomainError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The normlab argument parser, built on first use and shared by every
    later call in the process: callers must not mutate it.  Sharing it is
    safe because `parse_args` fills a fresh Namespace on every call."""
    parser = _Parser(
        prog="normlab",
        description="Exact-arithmetic workbench for digit expansions of real numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a generated digit sequence as .nseq")
    p.add_argument("--out", help="output path (default: KIND.nseq)")
    p.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p.add_argument("--n", type=int, required=True, help="number of digits")
    p.add_argument("--p", help="ones probability for bernoulli, e.g. 0.2 or 1/5")
    p.add_argument("--r", type=int, default=2, help="alphabet size")
    p.add_argument("--pattern", help="digit pattern for the periodic kind")
    p.add_argument("--seed", type=int, default=0, help="stream seed for bernoulli and uniform")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("analyze", help="block statistics of an .nseq prefix")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.add_argument("--op", required=True, choices=("entropy", "complexity", "goodness", "switches", "profile"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--L", type=int, help="prefix length (default: whole file)")
    p.add_argument("--eps", default="0.1", help="share complexity may leave uncovered, e.g. 0.1 or 1/10")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--windows", help="comma-separated window lengths for profile")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("arith", help="fixed-point arithmetic on .nseq fraction digits")
    p.add_argument("--out", help="output path (default: OP.nseq, plus OP.nseq.json)")
    p.add_argument("--op", dest="op", required=True, choices=("add", "mul", "mulq", "neg", "shiftsum"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in2", dest="infile2")
    p.add_argument("--int-part", type=int, default=0)
    p.add_argument("--int-part2", type=int, default=0)
    p.add_argument("--frac-bits", type=int, default=4096)
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD_BITS)
    p.add_argument("--p", type=int, default=1, help="numerator for mulq")
    p.add_argument("--q", type=int, default=1, help="denominator for mulq")
    p.add_argument("--shifts", default="0", help="comma-separated shifts for shiftsum")
    p.set_defaults(fn=_cmd_arith)

    p = sub.add_parser("pnormal", help="carry-sum closed forms and Monte-Carlo check")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.add_argument("--p", required=True, help="ones probability, e.g. 0.2 or 1/5")
    p.add_argument("--mc", type=int, help="Monte-Carlo sample length")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p.set_defaults(fn=_cmd_pnormal)

    p = sub.add_parser("algsys", help="mod-p streams, cellular automata, toral orbits")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("modp-add", help="digit-wise sum mod p of two .nseq streams")
    q.add_argument("--out", help="output path (default: modp-add.nseq)")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--in2", dest="infile2", required=True)
    q.add_argument("--n", type=int, default=1000)
    q.set_defaults(fn=_cmd_modp_add)
    q = ops.add_parser("ca", help="apply a linear cellular automaton to an .nseq stream")
    q.add_argument("--out", help="output path (default: ca.nseq)")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--p", type=int, default=2, help="prime modulus")
    q.add_argument("--coeffs", default="1,1")
    q.set_defaults(fn=_cmd_ca)
    q = ops.add_parser("orbit", help="exact toral-endomorphism orbit and its grid discrepancy")
    q.add_argument("--out", help="output path (default: stdout)")
    q.add_argument("--format", choices=("csv", "json", "text"), default="text")
    q.add_argument("--matrix", required=True, help="integer matrix as JSON, e.g. [[2,1],[1,1]]")
    q.add_argument("--x0", required=True, help="comma-separated rationals, e.g. 1/5,2/5")
    q.add_argument("--steps", type=int, default=1000)
    q.add_argument("--precision-bits", type=int)
    q.add_argument("--grid-bits", type=int, default=4)
    q.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("gray", help="emit Gray-code orderings as text")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--start", help="start block, e.g. 01111000")
    p.add_argument("--variant", choices=("gray", "alt", "alternated"), default="gray")
    p.add_argument("--l", type=int, help="emit only the l-th block")
    p.set_defaults(fn=_cmd_gray)

    p = sub.add_parser("verify", help="run the acceptance experiment suite")
    p.add_argument("--out", help="also write the reports as JSON to this path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--all", action="store_true", help="run every registered experiment")
    p.add_argument("--name", dest="names", action="append", help="run one experiment (repeatable)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("experiment", help="run a single named experiment")
    p.add_argument("--out", help="also write the report as JSON to this path")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--name", required=True)
    p.add_argument("--config", help="JSON overrides for the manifest parameters")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`normlab ... | head`): not a usage
        # error.  stdout goes to devnull so that the interpreter's final
        # flush of what is still buffered prints nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a process the pipe killed
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
