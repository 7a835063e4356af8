"""Span tracer that wraps bidrn's public functions from outside the package.

Each span records (name, start, end, parent, iteration) in flat arrays kept in
memory; ``summarize`` turns them into per-layer self times at the end of a
run. A function is patched in every ``bidrn`` module that holds a reference to
it, because callers look names up in their own module: ``binary`` binds
``im2col`` through ``from .tensor import``, while ``ops`` calls
``binary.ste_grad`` through the module. Everything is restored on ``remove``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("binary", "tensor", "ops", "autograd", "layers", "train", "boxnet", "stats")

# Work counters taken from a traced call's arguments and result.
COUNTERS = {
    "binary.pack_signs": lambda args, out: {"bytes": out.footprint_bytes},
    "binary.xnor_popcount_matmul":
        lambda args, out: {"macs": args[0].rows * args[1].rows * args[0].valid_len},
    "tensor.im2col": lambda args, out: {"bytes": out.nbytes},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.iteration = array("q")
        self.counts: dict[str, float] = {}
        self.current_iteration = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(self.current_iteration)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str | None = None):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if name is not None:
            self.name[idx] = self._name_id(name)

    def count(self, key: str, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for stat, n in counter(args, out).items():
                    self.count(f"{name}.{stat}", n)
            return out
        return traced

    def op_span(self, fn):
        """Forward span of an ``ops`` function, keyed by the ``Var.op`` it returns."""
        fallback = f"ops.{fn.__name__}.fwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(fallback)
            name = None
            try:
                out = fn(*args, **kwargs)
                if hasattr(out, "op"):
                    name = f"ops.{out.op}.fwd"
            finally:
                self.close(idx, name)
            return out
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _patch_item(self, table: dict, key, value):
        self._patches.append((table, key, table[key]))
        table[key] = value

    def install(self, network=None):
        """Wrap every public function of ``MODULES`` wherever it is referenced,
        plus the tape, optimizer, sampler and per-block forwards."""
        holders = [m for n, m in sys.modules.items()
                   if n == "bidrn" or n.startswith("bidrn.")]
        for short in MODULES:
            mod = sys.modules[f"bidrn.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                traced = self.op_span(fn) if short == "ops" else self.span(f"{short}.{attr}", fn)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if hattr.startswith("__"):
                            continue
                        if value is fn:
                            self._patch(holder, hattr, traced)
                        elif isinstance(value, dict):
                            # lookup tables such as ops.PREACT
                            for key, entry in list(value.items()):
                                if entry is fn:
                                    self._patch_item(value, key, traced)

        autograd = sys.modules["bidrn.autograd"]
        train = sys.modules["bidrn.train"]
        layers = sys.modules["bidrn.layers"]
        var = autograd.Var
        self._patch(var, "__init__", self._counting_init(var.__init__))
        self._patch(var, "backward", self._traced_backward(var.backward))
        self._patch(train.Adam, "step", self.span("train.Adam.step", train.Adam.step))
        self._patch(train.SyntheticTask, "sample",
                    self.span("train.SyntheticTask.sample", train.SyntheticTask.sample))
        self._patch(layers.Network, "forward",
                    self.span("layers.Network.forward", layers.Network.forward))
        if network is not None:
            for i, block in enumerate(network.blocks):
                self._patch(block, "forward", self.span(f"layers.block{i}.fwd", block.forward))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _counting_init(self, init):
        @functools.wraps(init)
        def counted(var, data, requires_grad=False, parents=(), backward=None, op="leaf"):
            init(var, data, requires_grad, parents, backward, op)
            if parents:
                self.count("autograd.tape.nodes", 1)
        return counted

    def _traced_backward(self, backward):
        """Wraps each reachable node's ``_backward`` in an ``ops.<op>.bwd``
        span, then runs the original reverse pass inside an
        ``autograd.backward`` span; the wrapping walk is outside that span."""

        @functools.wraps(backward)
        def traced(root):
            seen, stack = set(), [root]
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if node._backward is not None:
                    node._backward = self.span(f"ops.{node.op}.bwd", node._backward)
                stack.extend(p for p in node._parents if p.requires_grad)
            self.count("autograd.backward.nodes", len(seen))
            idx = self.open("autograd.backward")
            try:
                backward(root)
            finally:
                self.close(idx)
        return traced

    def save(self, path: str):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int64),
            iteration=np.frombuffer(self.iteration, np.int64))


_MISSING = object()


def _metric(span: str, stat: str) -> str:
    """``ops.add.fwd`` + ``ms`` -> ``ops.add.fwd_ms``; ``binary.pack_signs`` ->
    ``binary.pack_signs.ms``."""
    base, _, last = span.rpartition(".")
    if last in ("fwd", "bwd"):
        return f"{base}.{last}_{stat}"
    return f"{span}.{stat}"


def summarize(tracer: Tracer, iterations: int, scale: float = 1.0) -> dict:
    """Per-iteration self time, inclusive time and call count for every span
    name, plus the work counters, as ``{metric: (value, unit)}``.

    Self time is a span's duration minus the durations of its direct
    children. Inclusive time skips spans nested directly in a span of the
    same name, so recursion is not counted twice. Times are multiplied by
    ``scale``, the phase's calibration factor.
    """
    name = np.frombuffer(tracer.name, np.int64)
    parent = np.frombuffer(tracer.parent, np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    n_names = len(tracer.names)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    ms = 1e3 * scale / iterations
    self_ms = np.bincount(name, weights=dur - child, minlength=n_names) * ms
    outer = ~nested | (name[np.maximum(parent, 0)] != name)
    incl_ms = np.bincount(name[outer], weights=dur[outer], minlength=n_names) * ms
    calls = np.bincount(name, minlength=n_names) / iterations
    out = {}
    for i, span in enumerate(tracer.names):
        if not calls[i]:
            continue  # an ops fallback name that every call renamed
        out[_metric(span, "ms")] = (float(self_ms[i]), "ms")
        out[_metric(span, "incl_ms")] = (float(incl_ms[i]), "ms")
        out[_metric(span, "calls")] = (float(calls[i]), "count")
    for key, total in tracer.counts.items():
        stat = key.rpartition(".")[2]
        out[key] = (total / iterations, "count" if stat in ("macs", "nodes") else stat)
    return out
