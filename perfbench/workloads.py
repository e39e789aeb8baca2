"""The three benchmark workloads and the digest gate on their outputs.

Each workload is one serial caller in one process.  `run()` is the timed
work; `outputs()` (untimed) yields ``(op name, JSON-able value or bytes)``
for every operation, one at a time, so that checking adds little to the
process's peak memory.  `check()` compares the digest of each output with
the digests pinned in ``pins.json``; a missing, extra or different output
counts as one failed operation.

Only this module knows the workload definitions; ``run.py`` measures them,
``tracing.py`` attributes their time to the layers of ``normlab``.  normlab
is imported inside the methods, so importing this module does not do any of
the set-up that ``setup_s`` times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify-suite", "cli-session", "block-stats")

# The 19 registered experiments, in registry order; one traced metric each.
EXPERIMENTS = (
    "arithmetic-roundtrips", "base4-independence", "ca-switch-identity",
    "carry-closed-forms", "carry-monte-carlo", "complexity-contrast",
    "figure1-kappa", "gray-invariants", "kappa-goodness", "low-entropy-census",
    "modp-translation", "rational-multiple-goodness", "spr-obstruction",
    "toral-discrepancy", "vy-identity", "xy-switch-decay", "z-prefix-digits",
    "z-switch-half", "zip-columns",
)

# Checks whose measured value is a wall-clock time: neither the value nor its
# pass flag is an output of the program.
TIMING_CHECKS = {("figure1-kappa", "digit-access-runtime")}

SIZES = {
    # cli-session: the PAPER.md example session at 2^20 fractional bits.
    # block-stats: 2^20-digit prefixes (the 2^22 of the first prototype took
    # 22 s a pass, too long to repeat inside one run); m = 28 stays above the
    # 2^24 dense-counting budget, so the sparse np.unique path is measured.
    "full": {
        "cli_bits": 1 << 20,
        "mc": 1_000_000,
        "prefix": 1 << 20,
        "ladder": (1, 2, 4, 8, 12, 16),
        "sparse_m": 28,
        "probes": 100_000,
        "verify_names": None,
    },
    # Used by the self-test: seconds for all three workloads together.
    "tiny": {
        "cli_bits": 1 << 12,
        "mc": 10_000,
        "prefix": 1 << 12,
        "ladder": (1, 2, 4),
        "sparse_m": 28,
        "probes": 200,
        "verify_names": ["figure1-kappa", "vy-identity", "z-prefix-digits", "low-entropy-census"],
    },
}

PROBE_MAX_BITS = 2058  # random-access probes reach positions up to 2^2058
DEV_SEEDS = 16  # input seeds 0..15 are pinned; --seed n selects n mod 16
HELD_OUT_SEED = 90001  # pinned too, but never selected by n mod 16


def input_seed(seed: int) -> int:
    """The workload input seed behind the benchmark's --seed argument."""
    return seed if seed == HELD_OUT_SEED else seed % DEV_SEEDS


def digest(value) -> str:
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def no_span(label):
    return contextlib.nullcontext()


class VerifySuite:
    """`experiments.verify(threads=1)` over every registered experiment.

    What `normlab verify --all` users and CI pay; the only workload that
    drives `toral_orbit`, the `pnormal` closed forms, `verify_ordering` and
    the base-4 joint counting.  Seeds are the manifest's, so --seed is not used.
    """

    name = "verify-suite"

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.names = size["verify_names"]
        self.reports = []

    def run(self, span=no_span) -> None:
        from normlab import experiments

        with span("verify-suite"):
            self.reports = experiments.verify(self.names, threads=1)

    def outputs(self):
        reports, self.reports = self.reports, []  # freed here, not inside the next timed pass
        for rep in reports:
            for c in rep.checks:
                if (rep.name, c.name) not in TIMING_CHECKS:
                    yield f"{rep.name}/{c.name}", [c.measured, c.passed]


class CliSession:
    """The PAPER.md example session, scaled up, through `normlab.cli.main`.

    Generates y, kappa and bernoulli(1/2) as .nseq files, multiplies y by 4/3,
    adds, multiplies, negates and shift-sums, analyzes every result and
    evaluates the carry-sum closed forms.  Bitarith-heavy, statistics-light,
    and the only workload that writes and reads .nseq files.
    """

    name = "cli-session"

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.workdir = workdir
        self.bits = size["cli_bits"]
        self.mc = size["mc"]
        self.seed = seed
        self.dir = None
        self.rcs = {}
        self.outfiles = {}

    def commands(self, d: Path) -> list:
        N = self.bits
        n = str(N + 64)  # certified bits plus the default 64 guard bits
        f = lambda name: str(d / name)  # noqa: E731
        arith = ["--frac-bits", str(N)]
        cmds = [
            ("generate-y", ["generate", "--kind", "y", "--n", n, "--out", f("y.nseq")], ["y.nseq"]),
            ("generate-kappa", ["generate", "--kind", "kappa", "--n", n, "--out", f("kappa.nseq")], ["kappa.nseq"]),
            ("generate-bernoulli",
             ["generate", "--kind", "bernoulli", "--p", "1/2", "--seed", str(self.seed), "--n", n, "--out", f("b.nseq")],
             ["b.nseq"]),
            ("arith-mulq",
             ["arith", "--op", "mulq", "--in", f("y.nseq"), "--int-part", "1", "--p", "4", "--q", "3", *arith,
              "--out", f("mulq.nseq")],
             ["mulq.nseq", "mulq.nseq.json"]),
            ("arith-add", ["arith", "--op", "add", "--in", f("mulq.nseq"), "--in2", f("b.nseq"), *arith,
                           "--out", f("add.nseq")], ["add.nseq", "add.nseq.json"]),
            ("arith-mul", ["arith", "--op", "mul", "--in", f("kappa.nseq"), "--in2", f("b.nseq"), *arith,
                           "--out", f("mul.nseq")], ["mul.nseq", "mul.nseq.json"]),
            ("arith-neg", ["arith", "--op", "neg", "--in", f("b.nseq"), *arith, "--out", f("neg.nseq")],
             ["neg.nseq", "neg.nseq.json"]),
            ("arith-shiftsum", ["arith", "--op", "shiftsum", "--in", f("kappa.nseq"), "--shifts", "0,2,8,10,2048",
                                *arith, "--out", f("shiftsum.nseq")], ["shiftsum.nseq", "shiftsum.nseq.json"]),
        ]
        for r in ("mulq", "add", "mul", "neg", "shiftsum"):
            out = f"{r}.switches.json"
            cmds.append((f"analyze-switches-{r}",
                         ["analyze", "--op", "switches", "--in", f(f"{r}.nseq"), "--format", "json", "--out", f(out)],
                         [out]))
        cmds.append(("analyze-goodness-mulq",
                     ["analyze", "--op", "goodness", "--in", f("mulq.nseq"), "--n-max", "8", "--format", "json",
                      "--out", f("mulq.goodness.json")],
                     ["mulq.goodness.json"]))
        cmds.append(("pnormal",
                     ["pnormal", "--p", "1/5", "--mc", str(self.mc), "--seed", str(self.seed), "--format", "json",
                      "--out", f("pnormal.json")],
                     ["pnormal.json"]))
        return cmds

    def run(self, span=no_span) -> None:
        from normlab import cli

        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        self.rcs = {}
        for label, argv, files in self.commands(self.dir):
            self.outfiles[label] = files
            with span(f"cli.{label}"), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    self.rcs[label] = cli.main(argv)
                except Exception as exc:  # a crash is a failed command, not a dead run
                    self.rcs[label] = f"{type(exc).__name__}: {exc}"

    def outputs(self):
        out = {}
        for label, rc in self.rcs.items():
            files = {}
            for name in self.outfiles[label]:
                path = self.dir / name
                files[name] = digest(path.read_bytes()) if path.is_file() else None
            out[label] = {"rc": rc, "files": files}
        shutil.rmtree(self.dir, ignore_errors=True)
        return out.items()


class BlockStats:
    """Block statistics of 2^20-digit prefixes, plus random-access probes.

    kappa is structured and normal, bernoulli(1/2) random, y sparse.  The
    counting kernel and the bulk generators, with no bitarith at all; the
    bulk and the per-digit generator paths sit side by side.
    """

    name = "block-stats"

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        rng = random.Random(seed)
        self.positions = []
        for _ in range(size["probes"]):
            bits = rng.randint(1, PROBE_MAX_BITS)
            self.positions.append(rng.getrandbits(bits) | (1 << (bits - 1)))
        self.results = {}

    def _do(self, op, fn, *args):
        try:
            self.results[op] = fn(*args)
        except Exception as exc:  # a crash is a failed result, not a dead run
            self.results[op] = f"{type(exc).__name__}: {exc}"

    def run(self, span=no_span) -> None:
        from normlab import analysis, generators, seqcore

        N = self.size["prefix"]
        eps = Fraction(1, 10)
        seqs = {
            "kappa": generators.kappa_sequence(),
            "bernoulli": generators.bernoulli_stream(Fraction(1, 2), self.seed, N),
            "y": generators.y_sequence(),
        }
        self.results = {}
        do = self._do
        for name, seq in seqs.items():
            with span(f"block-stats.ladder.{name}"):
                digits = seq.digits(1, N)
                for m in self.size["ladder"]:
                    do(f"{name}/measure/{m}", seqcore.empirical_measure, seq, m, N)
                    do(f"{name}/goodness/{m}", analysis.eps_m_goodness, digits, m)
                    do(f"{name}/entropy/{m}", analysis.combinatorial_entropy, digits, m)
                    do(f"{name}/complexity/{m}", analysis.epsilon_complexity, digits, eps, m)
            # bernoulli has ~N distinct 28-blocks, each materialised as a
            # Block: 17 s at 2^20, so the sparse path runs on kappa and y only
            if name != "bernoulli":
                with span(f"block-stats.sparse.{name}"):
                    m = self.size["sparse_m"]
                    do(f"{name}/measure/{m}", seqcore.empirical_measure, seq, m, N)
            with span(f"block-stats.profile.{name}"):
                do(f"{name}/switches", analysis.switch_density, digits)
                do(f"{name}/profile", analysis.entropy_profile, digits, [N >> 4, N >> 2, N], range(1, 9))
        for name, make in (("kappa", generators.kappa_sequence), ("y", generators.y_sequence),
                           ("v", generators.v_sequence)):
            with span(f"block-stats.probes.{name}"):
                seq = make()
                do(f"{name}/probes", lambda: [seq.digit(p) for p in self.positions])

    def outputs(self):
        results, self.results = self.results, {}  # freed here, not inside the next timed pass
        for op, v in results.items():
            yield op, _plain(v)


def _plain(v):
    """JSON-able form of a block-stats result, exact where the result is."""
    from normlab.analysis import EntropyProfile
    from normlab.seqcore import EmpiricalMeasure

    if isinstance(v, EmpiricalMeasure):
        return {"total": v.total, "counts": sorted(["".join(map(str, k)), c] for k, c in v.counts.items())}
    if isinstance(v, EntropyProfile):
        return [[w, n, round(h, 12)] for w, n, h in v.rows]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return round(v, 12)
    if isinstance(v, list):
        return "".join(map(str, v))
    return v


CLASSES = {cls.name: cls for cls in (VerifySuite, CliSession, BlockStats)}


def make(name: str, size: str, seed: int, workdir: Path):
    return CLASSES[name](SIZES[size], input_seed(seed), workdir)


def pins_key(workload: str, seed: int) -> str:
    return "manifest" if workload == "verify-suite" else str(input_seed(seed))


def check(outputs, pinned: dict) -> tuple[int, int, list]:
    """(attempted, failed, names of failed ops) of one pass against its pins."""
    seen = set()
    bad = []
    for op, value in outputs:
        seen.add(op)
        if digest(value) != pinned.get(op):
            bad.append(op)
    bad += [op for op in pinned if op not in seen]
    return len(seen | set(pinned)), len(bad), sorted(bad)


def load_pins(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def workdir_for(root: Path) -> Path:
    d = root / ".perfbench_out"
    os.makedirs(d, exist_ok=True)
    return d
