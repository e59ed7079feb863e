"""Per-layer tracing of fabme from outside the program.

`Tracer.install` replaces every public function of the seven layer
modules (tensor, scan, blocks, graph, metrics, train, data) with a timing
wrapper, in every module that binds it by name: scan and train import
functions by name, so patching the defining module alone would miss
their calls.  It also wraps `Tensor.backward`, the forward methods of the
network blocks, and the `_backward` closure of every tensor that a
wrapped tensor or scan function creates.

Each wrapper opens a span on a stack.  A span's inclusive time is its
wall time; its self time is that minus the time of the spans nested in
it.  Spans are summed per key ("tensor.conv2d", "tensor.conv2d.bwd", ...)
in memory.  `uninstall` puts the program's own functions back.  While
`active` is false the wrappers call straight through, so the benchmark's
own checks are not traced.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

from reference import expit

LAYERS = ("tensor", "scan", "blocks", "graph", "metrics", "train", "data")
BLOCK_CLASSES = ("C2FVMamba", "VSS", "C2F", "SPPF", "EMCA")
SKIP = {"no_grad", "finite_checks"}  # context managers, not work


class Tracer:
    def __init__(self):
        self.active = False
        self._stack = [0.0]  # per open span: time of the spans nested in it
        self.incl = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._originals = []  # (owner, attribute, original value)

    def span(self, key, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            nested = stack.pop()
            stack[-1] += dt
            self.incl[key] += dt
            self.self[key] += dt - nested
            self.calls[key] += 1

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, key, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            out = self.span(key, fn, args, kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def install(self, modules: dict):
        """modules maps "tensor", "scan", ... to the fabme layer modules,
        plus any other fabme module that imports from them."""
        tensor_cls = modules["tensor"].Tensor
        self._decode_sig = inspect.signature(modules["graph"].decode)
        hooks = {
            "scan.selective_scan": self._count_scan,
            "graph.decode": self._count_decode,
            "metrics.map50": self._count_map50,
            "data.read_png": self._count_read_png,
        }
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                after = hooks.get(key)
                if layer in ("tensor", "scan"):
                    after = self._tape_hook(key, tensor_cls, layer == "tensor", after)
                replaced[id(fn)] = self.wrap(key, fn, after)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._replace(mod, name, replaced[id(obj)])
        self._replace(tensor_cls, "backward", self.wrap("tensor.backward", tensor_cls.backward))
        for cls_name in BLOCK_CLASSES:
            cls = getattr(modules["blocks"], cls_name)
            self._replace(cls, "forward", self.wrap(f"blocks.{cls_name}", cls.forward))
        model_cls = modules["graph"].FabMEModel
        self._replace(model_cls, "forward", self.wrap("graph.forward", model_cls.forward))

    def uninstall(self):
        while self._originals:
            setattr(*self._originals.pop())

    def _replace(self, owner, name, value):
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _tape_hook(self, key, tensor_cls, count_bytes, then):
        """After a tape-building call: time the backward closure of each
        tensor it created, and count its output bytes.  A tensor passed up
        through an enclosing wrapped call is claimed by the innermost one."""
        def after(out, args, kwargs):
            for t in (out if isinstance(out, list) else (out,)):
                if not isinstance(t, tensor_cls):
                    continue
                bw = t._backward
                if bw is not None and not getattr(bw, "traced", False):
                    t._backward = self._traced_backward(key + ".bwd", bw)
                if count_bytes:
                    self.counts["tensor.out_bytes"] += t.data.nbytes
            if then is not None:
                then(out, args, kwargs)

        return after

    def _traced_backward(self, key, bw):
        def traced(g):
            return self.span(key, bw, (g,), {})

        traced.traced = True
        return traced

    # -- counts taken where the work happens ---------------------------------

    def _count_scan(self, out, args, kwargs):
        x, A = args[0].data, args[2].data
        n, L, d = x.shape
        self.counts["scan.recurrence_steps"] += L
        # dA, dBx and the states hs: three (n, L, d, N) arrays
        self.counts["scan.state_bytes"] += 3 * n * L * d * A.shape[1] * x.itemsize

    def _count_decode(self, out, args, kwargs):
        p = self._decode_sig.bind(*args, **kwargs)
        p.apply_defaults()
        for arr in p.arguments["outputs"]:
            a = getattr(arr, "data", arr)
            scores = expit(np.ascontiguousarray(a[:, 4]))[:, None] * expit(np.ascontiguousarray(a[:, 5:]))
            self.counts["graph.decode.candidates"] += int(np.count_nonzero(scores > p.arguments["conf_thresh"]))
        self.counts["graph.decode.kept"] += sum(len(d) for d in out)

    def _count_map50(self, out, args, kwargs):
        self.counts["metrics.map50.detections"] += len(args[0])

    def _count_read_png(self, out, args, kwargs):
        self.counts["data.read_png.bytes"] += out.nbytes
