"""In-memory span tracer around the package's public functions.

``Tracer.install`` wraps every public module-level function of the seven
layer modules and rebinds the wrapper in every ``bergersphere`` namespace
that holds the original (``oracle`` imports ``berger_inner`` and friends by
name, for instance), so calls are caught whichever module makes them.  It
also counts reads of ``BergerParam.one_minus``.  ``uninstall`` puts every
original back.

A span is recorded at each layer boundary: a wrapped call whose caller is
in another layer (or in the benchmark itself).  Calls inside one layer are
counted but open no span, which keeps the span arrays small in the
per-sample geometry loops.  Spans hold name, layer, start, end, parent span
and op id; busy and self time are computed from the span tree after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

import numpy as np

LAYERS = ("cli", "stability", "models", "spectra", "oracle", "geometry", "exactlinalg")

# Same-layer calls that still get a span of their own, for a per-function time.
TIMED_INSIDE_LAYER = {"cli.build_parser"}

_MODES_FUNCS = {
    "models.modes": ("tg_berger_modes", "circle_modes", "veronese_modes",
                     "totally_real_sphere_modes", "clifford_jacobi_modes"),
    "spectra.modes": ("berger_modes", "clifford_modes", "clifford_low_modes"),
    "stability.rows": ("phase_rows", "moduli_curve"),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.op_id = -1
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self.name_id: dict[str, int] = {}
        # span arrays, one entry per span
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_outer = array("b")
        self._open: list[int] = []
        self._depth = [0] * len(LAYERS)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_cells = 0
        self.enumerate_inputs: set = set()
        self._restore: list = []
        self._hooks = self._build_hooks()

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("bergersphere")
        modules = [package] + [importlib.import_module(f"bergersphere.{m}") for m in LAYERS]
        wrappers = {}
        for layer_id, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"bergersphere.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", layer_id, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        param_cls = importlib.import_module("bergersphere.geometry").BergerParam
        original = param_cls.__dict__["one_minus"]

        def one_minus(obj):
            if self.on:
                self.counts["geometry.one_minus.calls"] += 1
            return original.fget(obj)

        self._restore.append((param_cls, "one_minus", original))
        param_cls.one_minus = property(one_minus, doc=original.__doc__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, layer: int, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        self.names.append(name)
        self.layer_of_name.append(layer)
        hook = self._hooks.get(name)
        if hook is None and name.startswith("oracle."):
            hook = self._reports_hook
        always = name in TIMED_INSIDE_LAYER
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            stack = tracer._open
            boundary = always or not stack or tracer.layer_of_name[tracer.s_name[stack[-1]]] != layer
            if boundary:
                idx = len(tracer.s_name)
                tracer.s_name.append(nid)
                tracer.s_parent.append(stack[-1] if stack else -1)
                tracer.s_op.append(tracer.op_id)
                tracer.s_outer.append(tracer._depth[layer] == 0)
                tracer.s_end.append(0.0)
                stack.append(idx)
                tracer._depth[layer] += 1
                tracer.s_start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.s_end[idx] = perf_counter()
                    tracer._depth[layer] -= 1
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result, boundary)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _build_hooks(self) -> dict:
        hooks = {}

        def add_len(metric):
            def hook(args, kwargs, result, boundary):
                self.counts[metric] += len(result)
            return hook

        for metric, funcs in _MODES_FUNCS.items():
            layer = metric.split(".")[0]
            for fn in funcs:
                hooks[f"{layer}.{fn}"] = add_len(metric)

        def cells(rows, ncols):
            n = len(rows) * ncols
            self.counts["exactlinalg.cells"] += n
            self.max_cells = max(self.max_cells, n)

        hooks["exactlinalg.integer_rank"] = (
            lambda a, kw, r, b: cells(a[0], len(a[0][0]) if a[0] else 0))
        hooks["exactlinalg.fraction_rref"] = lambda a, kw, r, b: cells(a[0], a[1])

        def kernel(args, kwargs, result, boundary):
            self.counts["exactlinalg.kernel_calls"] += 1
            self.counts["exactlinalg.kernel_hits"] += bool(result)
        hooks["exactlinalg.kernel_basis"] = kernel

        def enumerate_index(args, kwargs, result, boundary):
            tau = args[1] if len(args) > 1 else kwargs["tau"]
            self.enumerate_inputs.add((args[0], Fraction(getattr(tau, "tau_sq", tau))))
        hooks["models.enumerate_index"] = enumerate_index

        def main(args, kwargs, result, boundary):
            out = args[1] if len(args) > 1 else kwargs.get("out")
            self.counts["cli.bytes_out"] += len(out.getvalue().encode())
        hooks["cli.main"] = main

        return hooks

    def _reports_hook(self, args, kwargs, result, boundary) -> None:
        # Only reports handed across the layer boundary, so that a suite and
        # the checks inside it are not counted twice.
        if not boundary:
            return
        for rep in (result if isinstance(result, list) else [result]):
            if hasattr(rep, "samples") and hasattr(rep, "passed"):
                self.counts["oracle.samples"] += rep.samples
                self.counts["oracle.checks_failed"] += not rep.passed

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        name = np.frombuffer(self.s_name, dtype=np.int32)
        parent = np.frombuffer(self.s_parent, dtype=np.int32)
        start = np.frombuffer(self.s_start, dtype=np.float64)
        end = np.frombuffer(self.s_end, dtype=np.float64)
        outer = np.frombuffer(self.s_outer, dtype=np.int8).astype(bool)
        layer = np.asarray(self.layer_of_name, dtype=np.int64)[name]
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        nl = len(LAYERS)
        busy = np.bincount(layer[outer], weights=dur[outer], minlength=nl)
        own = np.bincount(layer, weights=self_time, minlength=nl)
        out: dict[str, float] = {}
        for i, lay in enumerate(LAYERS):
            out[f"{lay}.calls"] = sum(c for n, c in self.calls.items() if n.startswith(lay + "."))
            out[f"{lay}.busy_s"] = float(busy[i])
            out[f"{lay}.self_s"] = float(own[i])
        for fn in ("berger_inner", "curvature_tensor"):
            out[f"geometry.{fn}.calls"] = self.calls[f"geometry.{fn}"]
        out["geometry.one_minus.calls"] = self.counts["geometry.one_minus.calls"]
        samples = self.counts["oracle.samples"]
        out["oracle.samples"] = samples
        out["oracle.checks_failed"] = self.counts["oracle.checks_failed"]
        out["oracle.us_per_sample"] = 1e6 * float(busy[LAYERS.index("oracle")]) / samples \
            if samples else 0.0
        out["exactlinalg.cells"] = self.counts["exactlinalg.cells"]
        out["exactlinalg.max_cells"] = self.max_cells
        kernel_calls = self.counts["exactlinalg.kernel_calls"]
        out["exactlinalg.kernel_hit_ratio"] = (self.counts["exactlinalg.kernel_hits"] / kernel_calls
                                               if kernel_calls else 0.0)
        out["models.modes"] = self.counts["models.modes"]
        enum_calls = self.calls["models.enumerate_index"]
        out["models.distinct_input_ratio"] = (len(self.enumerate_inputs) / enum_calls
                                              if enum_calls else 0.0)
        out["spectra.modes"] = self.counts["spectra.modes"]
        out["stability.rows"] = self.counts["stability.rows"]
        parser = name == self.name_id.get("cli.build_parser", -1)
        out["cli.parser_s"] = float(dur[parser].sum())
        out["cli.bytes_out"] = self.counts["cli.bytes_out"]
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(LAYERS),
                            layer_of_name=np.asarray(self.layer_of_name, dtype=np.int8),
                            name=np.frombuffer(self.s_name, dtype=np.int32),
                            parent=np.frombuffer(self.s_parent, dtype=np.int32),
                            op=np.frombuffer(self.s_op, dtype=np.int32),
                            start=np.frombuffer(self.s_start, dtype=np.float64),
                            end=np.frombuffer(self.s_end, dtype=np.float64))
