"""Span tracing of the calls into each `normlab` module, from outside it.

`install()` replaces the public functions of the nine modules, the names
other modules bind to them through ``from ... import``, the methods of
`FixedPointNumber` and `SymbolicSequence`, the experiment registry entries
and the counting kernel `_anchor_codes` with wrappers that record one span
per call: name, parent, start and end.  Spans stay in memory, in one flat
array, until `write_spans()` saves them at the end of the run.  Nothing in
``src/`` changes; `uninstall()` puts every original back.

A span's self time is its duration minus the time covered by its child
spans.  Work a hook does for the trace itself (digests, byte counts) is
recorded as a ``trace.hook`` child span, so it is not charged to a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
import zlib
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "seqcore", "grayorder", "generators", "bitarith", "analysis",
    "pnormal", "algsys", "experiments", "cli",
)
TRACED_CLASSES = (("bitarith", "FixedPointNumber"), ("seqcore", "SymbolicSequence"))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.buf = array("d")  # per span: name id (~id when nested in itself), parent, start, end
        self.stack = [-1]
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.count_keys: set = set()
        self._patches: list = []

    def name_id(self, name: str, layer: str | None = None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer or name.split(".", 1)[0])
        return nid

    def _open(self, sid: int) -> int:
        idx = len(self.buf) >> 2
        self.buf.extend((sid, self.stack[-1], 0.0, 0.0))
        self.stack.append(idx)
        self.buf[4 * idx + 2] = self.clock()
        return idx

    def _close(self, idx: int) -> None:
        self.buf[4 * idx + 3] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        idx = self._open(self.name_id(name, layer))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, post=None, layer: str | None = None):
        """`fn` recording one span per call; `post(tracer, args, kwargs, result)`
        runs after the span ends, inside a ``trace.hook`` span."""
        nid = self.name_id(name, layer)
        hook_id = self.name_id("trace.hook")
        buf, stack, clock = self.buf, self.stack, self.clock
        depth = 0

        def traced(*args, **kwargs):  # _open/_close inlined: this runs on every call
            nonlocal depth
            idx = len(buf) >> 2
            buf.extend((nid if depth == 0 else ~nid, stack[-1], 0.0, 0.0))
            stack.append(idx)
            depth += 1
            buf[4 * idx + 2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[4 * idx + 3] = clock()
                depth -= 1
                stack.pop()
            if post is not None:
                h = self._open(hook_id)
                try:
                    post(self, args, kwargs, result)
                finally:
                    self._close(h)
            return result

        return functools.wraps(fn)(traced)

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"normlab.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

        def add(name, fn, layer=None):
            wrapped[id(fn)] = (fn, self.wrap(name, fn, HOOKS.get(name), layer))

        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    add(f"{layer}.{attr}", obj)
        add("seqcore.count", mods["seqcore"]._anchor_codes)
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._set(mod, attr, wrapped[id(obj)][1])
        registry = mods["experiments"]._REGISTRY
        for exp, fn in list(registry.items()):
            self._set(registry, exp, self.wrap(f"experiments.{exp}", fn))
        for layer, clsname in TRACED_CLASSES:
            cls = getattr(mods[layer], clsname)
            for attr, raw in list(vars(cls).items()):
                name = f"{layer}.{clsname}.{attr}"
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, HOOKS.get(name))))
                elif inspect.isfunction(raw):
                    self._set(cls, attr, self.wrap(name, raw, HOOKS.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results ----------------------------------------------------------------

    def spans(self) -> np.ndarray:
        return np.array(self.buf, dtype=np.float64).reshape(-1, 4)

    def write_spans(self, path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names), layers=np.array(self.layers))


def summarize(tracer: Tracer) -> dict:
    """Per-name and per-layer sums over the recorded spans."""
    a = tracer.spans()
    sid = a[:, 0].astype(np.int64)
    outer = sid >= 0
    nid = np.where(outer, sid, ~sid)
    parent = a[:, 1].astype(np.int64)
    dur = a[:, 3] - a[:, 2]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(a))
    self_time = dur - covered
    n_names = len(tracer.names)
    layer_ids = {layer: i for i, layer in enumerate(sorted(set(tracer.layers)))}
    lid = np.array([layer_ids[layer] for layer in tracer.layers], dtype=np.int64)[nid]
    self_by_layer = np.bincount(lid, weights=self_time, minlength=len(layer_ids))
    calls_by_layer = np.bincount(lid, minlength=len(layer_ids))
    incl = np.bincount(nid[outer], weights=dur[outer], minlength=n_names)
    calls = np.bincount(nid, minlength=n_names)
    return {
        "layer_self_s": {layer: float(self_by_layer[i]) for layer, i in layer_ids.items()},
        "layer_calls": {layer: int(calls_by_layer[i]) for layer, i in layer_ids.items()},
        "incl_s": {name: float(incl[i]) for i, name in enumerate(tracer.names)},
        "calls": {name: int(calls[i]) for i, name in enumerate(tracer.names)},
        "top_level_s": float(dur[~child].sum()),
        "spans": len(a),
    }


# -- hooks: counts taken where the work happens ----------------------------------


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _bits_of_result(t, args, kwargs, result):
    t.counters["bitarith.bits"] += result.frac_bits


def _fraction_digits(t, args, kwargs, result):
    t.counters["bitarith.bits"] += len(result)


def _certified(t, args, kwargs, result):
    t.counters["bitarith.certified"] += result
    t.counters["bitarith.requested"] += args[0].certified_bits


def _stream_carry_add(t, args, kwargs, result):
    n = len(result[0])
    t.counters["bitarith.bits"] += n
    t.counters["bitarith.stream.digits"] += n
    t.counters["bitarith.stream.flagged"] += int(result[1].sum())


def _count(t, args, kwargs, result):
    digits = np.ascontiguousarray(_arg(args, kwargs, 0, "digits"))
    key = (zlib.crc32(digits.data), len(digits), digits.dtype.str,
           _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "r"))
    t.counters["seqcore.count.anchors"] += len(result)
    if key in t.count_keys:
        t.counters["seqcore.count.repeats"] += 1
    t.count_keys.add(key)


def _nseq_bytes(t, args, kwargs, result):
    t.counters["seqcore.nseq.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bulk(t, args, kwargs, result):
    t.counters["generators.bulk.digits"] += len(result)


def _generated(t, args, kwargs, seq):
    """Trace the bulk and per-digit paths of every generated sequence."""
    if seq._bulk_fn is not None:
        seq._bulk_fn = t.wrap("generators.bulk", seq._bulk_fn, _bulk)
    seq._digit_fn = t.wrap("generators.random_access", seq._digit_fn)


def _orbit(t, args, kwargs, result):
    t.counters["algsys.toral_orbit.steps"] += len(result.points) - 1


def _ordering(t, args, kwargs, result):
    t.counters["grayorder.verify_ordering.words"] += 1 << _arg(args, kwargs, 0, "n")


HOOKS = {
    "bitarith.mul_rational": _bits_of_result,
    "bitarith.mul": _bits_of_result,
    "bitarith.carry_add": _bits_of_result,
    "bitarith.shifted_sum": _bits_of_result,
    "bitarith.FixedPointNumber.from_sequence": _bits_of_result,
    "bitarith.FixedPointNumber.fraction_digits": _fraction_digits,
    "bitarith.FixedPointNumber.certified_digit_count": _certified,
    "bitarith.stream_carry_add": _stream_carry_add,
    "seqcore.count": _count,
    "seqcore.write_nseq": _nseq_bytes,
    "seqcore.read_nseq": _nseq_bytes,
    "generators.kappa_sequence": _generated,
    "generators.y_sequence": _generated,
    "generators.v_sequence": _generated,
    "generators.bernoulli_stream": _generated,
    "generators.uniform_stream": _generated,
    "generators.champernowne_digits": _generated,
    "generators.periodic_sparse": _generated,
    "algsys.toral_orbit": _orbit,
    "grayorder.verify_ordering": _ordering,
}
