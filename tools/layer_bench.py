"""Per-layer timings of the boundary solves, with a machine-speed probe.

usage: python tools/layer_bench.py [-k K]

Times each layer call K times (default 7) in this one process, in K
rounds that each time every layer and both probes once, and prints
one JSON object on stdout: per layer the smallest and the median time in
ms, and the median as a ratio to each of two probes that do not use
xdeficit, a fixed pure-Python loop and a fixed loop of numpy calls on
100-element arrays, timed in the same run.  The layers are the
equal-endpoint and half-pi fans (both kinds together), per path and as
array solves, on the totals k/100 and k/1000; their two axis roots, which
both fans solve per path; ``jump_curve`` on k/100; ``jump_angle_table()``;
and ``trace_boundaries`` at 100 and 1000.  ``ratios_of_medians`` compares
the fans, whole and without their axis roots (the diagonal fans).  The
per-path fans are taken as ``trace_boundaries`` took them before the array
fans: the axis root, then the non-degenerate root of each diagonal, from the
per-path solvers of ``boundaries._FANS``.

The untimed first call of each layer also counts, under the key
``evaluations``, the calls of the scalar closed forms
``post_entropy_slope``, ``post_entropy_curvature`` and ``_jump_gap``, of
the array S'' ``curvature_curve`` (the only function the array root solver
evaluates), and the evaluations that ``shape.find_root`` makes between its
two given ends.  These counts are deterministic: they repeat exactly from
run to run, and compare two checkouts free of the box's noise.

Every call's result is checked against values pinned below, so that a
timing never reports a wrong run: the point counts exactly, and the sums
of q1 and of the jump angles to 1e-7.  A mismatch exits with status 1
after printing.  xdeficit is imported from the ``src`` directory next to
this file.  The box's speed may swing between runs; compare numbers only
within one run, or through the probe ratios.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xdeficit.boundaries import (  # noqa: E402
    _FANS,
    TrajectorySpec,
    boundary_fan,
    jump_angle_table,
    jump_curve,
)
from xdeficit.diagram import trace_boundaries  # noqa: E402

# the functions whose calls are counted, under every module name that calls them
COUNTED = ("post_entropy_slope", "post_entropy_curvature", "_jump_gap", "curvature_curve")

# (point counts, sum of q1, sum of jump angles) of each layer's result
PINS = {
    "fans.per_path.k100": ((39, 33), 57.0732547794, 0.0),
    "fans.array.k100": ((39, 33), 57.0732547794, 0.0),
    "fans.per_path.k1000": ((385, 325), 567.4431543375, 0.0),
    "fans.array.k1000": ((385, 325), 567.4431543375, 0.0),
    "fans.axis_roots": ((1, 1), 1.2906927741, 0.0),
    "jump_curve.k100": ((28,), 17.3373660886, 12.7263732759),
    "jump_angle_table": ((7,), 4.4014863613, 4.0123137737),
    "trace_boundaries.100": ((10, 40, 40, 34, 34, 28, 28, 1, 1, 1, 1), 79.8797883176, 0.0),
    "trace_boundaries.1000": ((10, 386, 386, 326, 326, 271, 271, 1, 1, 1, 1), 758.3047883176, 0.0),
}


def _python_probe() -> int:
    return sum(i * i % 7 for i in range(100_000))


_X = np.linspace(0.0, 1.0, 100)


def _numpy_probe() -> float:
    y = _X
    for _ in range(2000):
        y = np.sqrt(y * y + 1.0) - 1.0
    return float(y[-1])


def _fans(totals, array: bool):
    if array:
        return [boundary_fan(kind, totals) for kind in _FANS]
    fans = []
    for solver, _ in _FANS.values():
        roots = [solver(TrajectorySpec.on_axis())] + [solver(TrajectorySpec(t)) for t in totals]
        fans.append([bp for bp in roots if bp is not None and not bp.degenerate])
    return fans


def _summary(result) -> tuple[tuple[int, ...], float, float]:
    """(point counts, sum of q1, sum of jump angles) of a layer's result."""
    if isinstance(result[0], list):  # fans: one point list per kind
        points = [bp for fan in result for bp in fan]
        return tuple(map(len, result)), sum(bp.p.q1 for bp in points), 0.0
    if hasattr(result[0], "jump_angle"):  # jump records
        return ((len(result),), sum(r.boundary.p.q1 for r in result),
                sum(r.jump_angle for r in result))
    counts = (len(result),) + tuple(len(c.points) for c in result)  # boundary curves
    return counts, sum(bp.p.q1 for c in result for bp in c.points), 0.0


def _layers():
    k100 = [k / 100 for k in range(1, 100)]
    k1000 = [k / 1000 for k in range(1, 1000)]
    return {
        "fans.per_path.k100": lambda: _fans(k100, array=False),
        "fans.array.k100": lambda: _fans(k100, array=True),
        "fans.per_path.k1000": lambda: _fans(k1000, array=False),
        "fans.array.k1000": lambda: _fans(k1000, array=True),
        "fans.axis_roots": lambda: [[s(TrajectorySpec.on_axis())] for s, _ in _FANS.values()],
        "jump_curve.k100": lambda: jump_curve(k100),
        "jump_angle_table": jump_angle_table,
        "trace_boundaries.100": lambda: trace_boundaries(100),
        "trace_boundaries.1000": lambda: trace_boundaries(1000),
    }


@contextlib.contextmanager
def _counting():
    """Count the calls of ``COUNTED`` and the evaluations inside ``find_root``
    while the block runs, under every xdeficit module's name for them."""
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def solver(fn):
        return lambda f, *args: fn(counted("find_root.evaluations", f), *args)

    saved = []
    for module in [m for name, m in sys.modules.items() if name.startswith("xdeficit.")]:
        for name in (*COUNTED, "find_root"):
            if hasattr(module, name):
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, solver(fn) if name == "find_root" else counted(name, fn))
    try:
        yield counts
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=7, help="timed calls per layer (default 7)")
    k = parser.parse_args(argv).k
    if k < 1:
        parser.error("-k must be at least 1")
    fns = _layers()
    layers, evaluations, failures = {}, {}, []
    # one untimed call per layer warms it up, gives the checked result and
    # counts the evaluations
    for name, fn in fns.items():
        with _counting() as calls:
            result = fn()
        evaluations[name] = {key: calls[key] for key in (*COUNTED, "find_root.evaluations")}
        counts, q1_sum, angle_sum = _summary(result)
        pin = PINS[name]
        ok = counts == pin[0] and abs(q1_sum - pin[1]) <= 1e-7 and abs(angle_sum - pin[2]) <= 1e-7
        if not ok:
            failures.append(f"{name}: got {counts}, {q1_sum!r}, {angle_sum!r}; pinned {pin}")
        layers[name] = {"correct": ok}
    # then k rounds, each timing the two probes and every layer once, so
    # that a swing of the box's speed falls on all of them alike
    probe_fns = {"python_loop": _python_probe, "numpy_calls": _numpy_probe}
    times = {name: [] for name in [*probe_fns, *fns]}
    for _ in range(k):
        for name, fn in [*probe_fns.items(), *fns.items()]:
            times[name].append(_timed(fn))
    for name in fns:
        layers[name].update(min_ms=1e3 * min(times[name]),
                            median_ms=1e3 * statistics.median(times[name]))
    probes = {name: {"min_ms": 1e3 * min(times[name]),
                     "median_ms": 1e3 * statistics.median(times[name])} for name in probe_fns}
    for layer in layers.values():
        for name, probe in probes.items():
            layer[f"over_{name}"] = layer["median_ms"] / probe["median_ms"]
    med = {name: layer["median_ms"] for name, layer in layers.items()}
    axis = med["fans.axis_roots"]
    ratios = {}
    for res in ("k100", "k1000"):
        array, per_path = med[f"fans.array.{res}"], med[f"fans.per_path.{res}"]
        ratios[f"fans.array_over_per_path.{res}"] = array / per_path
        ratios[f"diagonal_fans.array_over_per_path.{res}"] = (array - axis) / (per_path - axis)
    out = {
        "machine": {"cpu_count": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "k": k,
        "probes": probes,
        "layers": layers,
        "ratios_of_medians": ratios,
        "evaluations": evaluations,
        "failures": failures,
    }
    print(json.dumps(out, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
