"""Span tracing of the xdeficit layers, installed from outside the package.

:func:`install` replaces functions in the namespaces of the package's modules
by wrappers that record one span per call: a name, a start, an end, the span
that was open when the call began, and the benchmark operation it belongs to.
It wraps

* every public function a module defines, in its own namespace, so that calls
  inside the module (``shape.classify_shape`` -> ``golden_minimize``) are seen;
* every function a module imports from another module of the package, in the
  importing namespace (``shape.post_entropy``, ``boundaries.interior_minimum``).

``core`` is the leaf layer; its own namespace is left alone, so calls inside
it (``post_entropy`` -> ``post_spectrum``) stay inside its spans instead of
tripling the tracing cost of the hottest calls.

Installing again, for a new tracer, replaces the earlier wrappers instead of
wrapping them, so that each call records into the newest tracer only.

Spans live in compact arrays in memory and are written out once, at the end.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("core", "shape", "deficit", "boundaries", "diagram", "oracle", "cli")

# Span names that fold into one per-layer metric.
ENDPOINT = (
    "core.endpoint_entropy_zero",
    "core.endpoint_entropy_halfpi",
    "core.s2_halfpi",
    "core.s2_zero_axis",
)
ORACLE_STATE = (
    "oracle.oracle_post_entropy",
    "oracle.build_density",
    "oracle.projectors",
    "oracle.post_measured_state",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        return self._record(self.name_id(name), fn, args, kwargs)

    def _record(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        wrapper = self._wrapper(fn, name)
        wrapper.__traced__ = fn
        return wrapper

    def _wrapper(self, fn, name: str):
        if name == "core.post_entropy":
            scalar, vector = self.name_id(name + "_scalar"), self.name_id(name + "_vector")

            @functools.wraps(fn)
            def post_entropy(p, theta):
                if np.ndim(theta) == 0:
                    return self._record(scalar, fn, (p, theta), {})
                self.counters["core.post_entropy_vector.points"] += np.size(theta)
                return self._record(vector, fn, (p, theta), {})

            return post_entropy

        nid = self.name_id(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._record(nid, fn, args, kwargs)
            if hook is not None:
                hook(self.counters, fn, args, kwargs, out)
            return out

        return wrapper

    def merge(self, other: dict) -> None:
        """Append spans written by another process (see :meth:`dump`)."""
        ids = np.array([self.name_id(n) for n in other["names"]], dtype=np.int32)
        base = len(self.start)
        parent = other["parent"]
        self.name.extend(ids[other["name"]].tolist())
        self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
        self.op.extend(other["op"].tolist())
        self.start.extend(other["start"].tolist())
        self.end.extend(other["end"].tolist())
        for key, value in zip(other["counter_keys"], other["counter_values"]):
            self.counters[str(key)] += int(value)

    def arrays(self) -> dict:
        keys = sorted(self.counters)
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "counter_keys": np.array(keys),
            "counter_values": np.array([self.counters[k] for k in keys], dtype=np.int64),
        }

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, summed self time in s) per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        n = len(dur)
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=self_time, minlength=k)
        return {nm: (int(calls[i]), float(selfs[i])) for i, nm in enumerate(self.names)}


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _requested_grid(fn, args, kwargs) -> int:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["grid_n"]


def _classify_hook(counters, fn, args, kwargs, report) -> None:
    counters["shape.extrema_kept"] += len(report.extrema)
    counters["shape.reports_with_extrema"] += bool(report.extrema)
    if report.grid_n > _requested_grid(fn, args, kwargs):
        counters["shape.grid_doublings"] += 1


def _sweep_hook(counters, fn, args, kwargs, grid) -> None:
    counters["diagram.cells"] += len(grid.cells)


_HOOKS = {"shape.classify_shape": _classify_hook, "diagram.sweep": _sweep_hook}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and cross-module imports of each layer."""
    # import every layer before patching any, so that no module imports a wrapper
    modules = {site: importlib.import_module(f"xdeficit.{site}") for site in LAYERS}
    for site, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or attr.startswith("_"):
                continue
            obj = getattr(obj, "__traced__", obj)  # undo an earlier install
            home = obj.__module__.rpartition(".")[2]
            if home not in LAYERS or (home == site == "core"):
                continue
            setattr(mod, attr, tracer.wrap(obj, f"{home}.{attr}"))


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round: {name: (value, unit)}."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def by_layer(layer):
        return [n for n in totals if n.split(".")[0] == layer]

    # interior_minimum calls made from boundaries code: their parent span is
    # a boundaries function, since every public boundaries function is wrapped
    a = tracer.arrays()
    im = tracer.name_id("shape.interior_minimum")
    bnd = [tracer.name_id(n) for n in by_layer("boundaries")]
    is_im = a["name"] == im
    parents = a["parent"][is_im]
    from_boundaries = int(np.isin(a["name"][parents[parents >= 0]], bnd).sum())

    golden = calls("shape.golden_minimize")
    c = tracer.counters
    raw = {
        "core.post_entropy_scalar.calls": (calls("core.post_entropy_scalar"), "count"),
        "core.post_entropy_scalar.self_s": (self_s("core.post_entropy_scalar"), "s"),
        "core.post_entropy_vector.points": (c["core.post_entropy_vector.points"], "count"),
        "core.post_entropy_vector.self_s": (self_s("core.post_entropy_vector"), "s"),
        "core.endpoint.calls": (sum(calls(n) for n in ENDPOINT), "count"),
        "core.endpoint.self_s": (self_s(*ENDPOINT), "s"),
        "shape.classify.calls": (calls("shape.classify_shape"), "count"),
        "shape.classify.self_s": (self_s("shape.classify_shape", "shape.interior_minimum"), "s"),
        "shape.grid_doublings": (c["shape.grid_doublings"], "count"),
        "shape.golden.calls": (golden, "count"),
        "shape.golden.self_s": (self_s("shape.golden_minimize"), "s"),
        "deficit.one_way.calls": (calls("deficit.one_way_deficit"), "count"),
        "deficit.one_way.self_s": (self_s(*by_layer("deficit")), "s"),
        "boundaries.equal_endpoints.calls": (calls("boundaries.solve_equal_endpoints"), "count"),
        "boundaries.equal_endpoints.self_s": (self_s("boundaries.solve_equal_endpoints"), "s"),
        "boundaries.halfpi.calls": (calls("boundaries.solve_halfpi_boundary"), "count"),
        "boundaries.halfpi.self_s": (self_s("boundaries.solve_halfpi_boundary"), "s"),
        "boundaries.jump.calls": (calls("boundaries.solve_jump_boundary"), "count"),
        "boundaries.jump.self_s": (self_s("boundaries.solve_jump_boundary"), "s"),
        "boundaries.interior_minimum.calls": (from_boundaries, "count"),
        "boundaries.intersection.self_s": (self_s("boundaries.curves_intersection"), "s"),
        "diagram.sweep.self_s": (self_s("diagram.sweep"), "s"),
        "diagram.cells": (c["diagram.cells"], "count"),
        "diagram.trace.self_s": (self_s("diagram.trace_boundaries"), "s"),
        "oracle.calls": (calls("oracle.oracle_post_entropy"), "count"),
        "oracle.eigen.self_s": (self_s("oracle.hermitian_eigenvalues"), "s"),
        "oracle.state.self_s": (self_s(*ORACLE_STATE), "s"),
    }
    out = {}
    for name, (value, unit) in raw.items():
        if unit == "count":
            out[name] = (value // rounds, unit)
        else:
            out[name] = (value / rounds, unit)
    kept = c["shape.extrema_kept"]
    out["shape.refine_yield"] = (kept / golden if golden else 0.0, "ratio")
    return out
