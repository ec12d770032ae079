#!/usr/bin/env python3
"""Benchmark of xdeficit: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of phase_diagram, boundary_landmarks, window_queries, cli_session,
or ``all`` to run every workload in turn from this one process.  A run sets
the workload up from the seed, repeats whole rounds of its operations for at
least S seconds, checks every output against the independent reference route
in ``reference.py`` outside the timed sections, and prints one JSON result as
the last line of stdout (one line per workload for ``all``).  With ``--trace
0`` the result carries the end-to-end metrics; with ``--trace 1`` the layer
tracer of ``tracing.py`` is installed and the result carries the per-layer
metrics instead.  The line before each result holds the workload's detail
figures.  Results and span files go to ``perfbench/out/``.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
FAULT_ULPS = 1e-15  # size of the known negative deficit on the diagonal, in bit
PROC_TIMEOUT_S = 120

X = None  # the xdeficit package, once loaded
ref = None  # reference.py, once loaded


def load_package() -> None:
    global X, ref
    if not (SRC / "xdeficit" / "__init__.py").is_file():
        raise SystemExit(f"xdeficit source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import xdeficit

    if Path(xdeficit.__file__).resolve().parent != SRC / "xdeficit":
        raise SystemExit(f"imported xdeficit from {xdeficit.__file__}, not from {SRC}")
    import reference

    X, ref = xdeficit, reference


def printed_tol(x: float, digits: int = 6) -> float:
    """Half a unit in the last place of x printed with ``digits`` significant digits."""
    if x == 0.0:
        return 0.0
    # the slack absorbs the rounding of the decimal-to-binary conversion
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - digits + 1) * (1.0 + 1e-9)


class Workload:
    """A seeded set of inputs and the operations one round applies to them.

    Subclasses set ``primary``, the operation whose median is ``call_ms_p50``,
    and implement ``setup``, ``run_round`` and ``check``.  A call may carry
    several operations (a sweep labels many cells); ``attempted`` and
    ``failed`` count operations.
    """

    name = ""
    primary = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # set once set-up is done, for a traced run
        self.ops: list[tuple[str, float]] = []  # (kind, seconds) of operations that succeeded
        self.errors: list[str] = []
        self.attempted = self.failed = self.calls = 0
        self.setup()

    def call(self, kind: str, fn, *args, weight: int = 1):
        """Time one call of ``weight`` operations; a raised error fails them all."""
        self.attempted += weight
        self.calls += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.current_op = self.calls
                out = self.tracer.span(f"bench.{kind}", fn, *args)
            else:
                out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{kind}: {exc!r}")
            self.failed += weight
            return None
        self.ops.append((kind, time.perf_counter() - t0))
        return out

    def times(self, kind: str) -> list[float]:
        return [dt for k, dt in self.ops if k == kind]

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self):
        """Run one round; return its outputs (compared across rounds)."""
        raise NotImplementedError

    def check(self, outputs) -> tuple[list[str], list[str]]:
        """Check one round's outputs.

        Returns the failed checks, which make the run incorrect, and the
        operations whose output shows a known fault of the program; those
        count as failed operations instead, in every round.
        """
        raise NotImplementedError

    def details(self) -> dict:
        """Named figures for the detail line: {name: (value, unit)}."""
        return {}


class PhaseDiagram(Workload):
    """``diagram.sweep`` of the triangle, as ``xdeficit phase-diagram`` runs it."""

    name = "phase_diagram"
    primary = "sweep"
    resolution = 100
    checked_cells = 12  # per stratum: any cell, and cells won by the interior branch

    def setup(self):
        import numpy as np

        rng = np.random.default_rng(self.seed)
        self.picks = rng.random((2, self.checked_cells))
        X.deficit.one_way_deficit(X.StateParams(0.6, 0.01))

    def run_round(self):
        # a traced sweep stays in one process so that its spans are recorded
        threads = None if self.tracer is None else 1
        cells = self.resolution * (self.resolution + 1) // 2
        return self.call(
            "sweep", lambda: X.diagram.sweep(self.resolution, threads=threads), weight=cells
        )

    def check(self, grid):
        fails, faulty = [], []
        if grid is None:
            return fails, faulty
        r = self.resolution
        n = len(grid.cells)
        if n != r * (r + 1) // 2:
            fails.append(f"{n} cells, expected {r * (r + 1) // 2}")
        if grid.unresolved_cells:
            fails.append(f"{grid.unresolved_cells} unresolved cells")
        if not 0.005 <= grid.area_fraction_interior <= 0.02:
            fails.append(f"interior fraction {grid.area_fraction_interior} outside [0.005, 0.02]")
        cells = {(round(c.q1 * r - 0.5), round(c.q2 * r - 0.5)): c for c in grid.cells}
        for (i, j), c in cells.items():
            if i == j and -FAULT_ULPS <= c.delta < 0.0:
                # the known fault: an exact 0 of the diagonal computed an ulp below 0
                faulty.append(f"negative deficit {c.delta} at ({c.q1}, {c.q2})")
            elif not c.delta >= 0.0:
                fails.append(f"negative deficit {c.delta} at ({c.q1}, {c.q2})")
            m = cells.get((j, i))
            if m is None or m.branch != c.branch or not abs(m.delta - c.delta) <= 1e-10:
                fails.append(f"cell ({c.q1}, {c.q2}) and its mirror disagree")
        interior = [c for c in grid.cells if c.branch == "Interior"]
        sample = [grid.cells[int(u * n)] for u in self.picks[0]]
        sample += [interior[int(u * len(interior))] for u in self.picks[1]] if interior else []
        for c in sample:
            d, _ = ref.brute_min(c.q1, c.q2)
            if not abs(d - c.delta) <= 1e-8:
                fails.append(f"deficit {c.delta} at ({c.q1}, {c.q2}) vs brute force {d}")
        self.fraction = grid.area_fraction_interior
        self.cells = n
        return fails, faulty

    def details(self):
        s = median(self.times("sweep"))
        return {
            "sweep_cells_per_s": (self.cells / s, "cells/s"),
            "interior_fraction": (self.fraction, "ratio"),
        }


class BoundaryLandmarks(Workload):
    """The jump-angle table, then every boundary polyline of the triangle."""

    name = "boundary_landmarks"
    primary = "jump_angle_table"
    resolution = 100
    bracket = 1e-6  # q1 half-width within which each residual must change sign

    def setup(self):
        # the paper fixes these jobs; the seed selects no inputs here
        X.boundaries.solve_equal_endpoints(X.TrajectorySpec(0.8))

    def run_round(self):
        table = self.call("jump_angle_table", lambda: X.boundaries.jump_angle_table())
        curves = self.call("trace_boundaries", lambda: X.diagram.trace_boundaries(self.resolution))
        return table, curves

    def _brackets(self, residual, q1: float, q2: float) -> bool:
        """Does residual change sign within +-bracket of q1 on the point's path?

        Axis points move along q2 = 0, all others along q1 + q2 = const.
        """
        total = q1 + q2
        vals = []
        for dq in (-self.bracket, self.bracket):
            a = q1 + dq
            vals.append(residual(a, 0.0 if q2 == 0.0 else total - a))
        return vals[0] * vals[1] <= 0.0

    def check(self, outputs):
        table, curves = outputs
        fails = []
        if table is not None:
            fails += self.check_table(table)
        if curves is not None:
            fails += self.check_curves(curves)
        return fails, []

    def check_table(self, table) -> list[str]:
        """Rows against the published positions and angles, confirmed by the reference."""
        fails = []
        half_pi = ref.HALF_PI
        if len(table) != len(ref.JUMP_TABLE):
            fails.append(f"{len(table)} table rows, expected {len(ref.JUMP_TABLE)}")
        for k, (rec, (rq1, _, rangle)) in enumerate(zip(table, ref.JUMP_TABLE)):
            q1, q2, angle = rec.boundary.p.q1, rec.boundary.p.q2, rec.jump_angle
            if not abs(q1 - rq1) <= 1e-4:
                fails.append(f"table row {k}: q1 {q1} vs published {rq1}")
            if not abs(angle - rangle) <= 5e-4:
                fails.append(f"table row {k}: angle {angle} vs reference {rangle}")
            s = lambda t: float(ref.post_entropy(q1, q2, t)[0])
            if k == 0:
                ok = s(1e-3) > s(0.0)
            elif angle == half_pi:
                # the intersection: both defining equalities hold, S''(pi/2) = 0
                ok = self._brackets(ref.endpoint_gap, q1, q2) and self._brackets(
                    lambda a, b: ref.curvature(a, b, half_pi), q1, q2
                )
            else:
                ok = abs(s(angle) - s(0.0)) <= 1e-8 and min(s(angle - 1e-3), s(angle + 1e-3)) > s(angle)
            if not ok:
                fails.append(f"table row {k}: reference does not confirm ({q1}, {q2}, {angle})")
        return fails

    def check_curves(self, curves) -> list[str]:
        """Exact mirrors, and every point brackets a root of its defining residual."""
        fails = []
        half_pi = ref.HALF_PI
        residuals = {
            "EqualEndpoints": ref.endpoint_gap,
            "HalfPiBifurcation": lambda a, b: ref.curvature(a, b, half_pi),
            "JumpBoundary": ref.jump_gap,
            "ZeroBifurcationAxis": lambda a, b: ref.curvature(a, b, 0.0),
        }
        self.points = 0
        for curve, mirror in zip(curves[0::2], curves[1::2]):
            pts = [(bp.p.q1, bp.p.q2) for bp in curve.points]
            if [(bp.p.q2, bp.p.q1) for bp in mirror.points] != pts or mirror.kind != curve.kind:
                fails.append(f"{curve.kind.value} curve and its mirror differ")
            for k, bp in enumerate(curve.points):
                if bp.degenerate:
                    continue  # analytic pure-state corner anchors
                kind = curve.kind.value
                if kind == "JumpBoundary" and k in (0, len(curve.points) - 1):
                    # anchors: the axis limit, where S''(0) = 0, and the intersection
                    kind = "ZeroBifurcationAxis" if k == 0 else "EqualEndpoints"
                residual = residuals[kind]
                self.points += 1
                if not self._brackets(residual, bp.p.q1, bp.p.q2):
                    fails.append(
                        f"{curve.kind.value} point ({bp.p.q1}, {bp.p.q2}): residual keeps its "
                        f"sign over +-{self.bracket} in q1"
                    )
        return fails

    def details(self):
        return {
            "jump_table_s": (median(self.times("jump_angle_table")), "s"),
            "boundary_trace_s": (median(self.times("trace_boundaries")), "s"),
            "checked_boundary_points": (self.points, "count"),
        }


class WindowQueries(Workload):
    """Single-state deficit queries in a thin band around the jump boundary."""

    name = "window_queries"
    primary = "one_way_deficit"
    states = 400
    band = 0.004  # half-width in q1 around the jump boundary
    totals = (0.5, 0.765)

    def setup(self):
        import numpy as np

        rng = np.random.default_rng(self.seed)
        t = rng.uniform(*self.totals, self.states)
        q2b = np.array([ref.jump_boundary_q2(x) for x in t])
        hi = np.minimum(self.band, q2b)  # keep q2 >= 0 near the axis
        u = -self.band + (hi + self.band) * rng.random(self.states)
        self.inputs = [(float(a - b + c), float(b - c)) for a, b, c in zip(t, q2b, u)]
        X.deficit.one_way_deficit(X.StateParams(*self.inputs[0]))

    def run_round(self):
        out = []
        for q1, q2 in self.inputs:
            res = self.call(
                "one_way_deficit", lambda: X.deficit.one_way_deficit(X.StateParams(q1, q2))
            )
            out.append(None if res is None else (res.delta, res.branch.value, res.optimal_theta))
        return out

    def check(self, outputs):
        fails = []
        self.interior = self.with_extremum = 0
        for (q1, q2), res in zip(self.inputs, outputs):
            if res is None:
                continue
            delta, branch, theta = res
            d, _ = ref.brute_min(q1, q2)
            if not abs(delta - d) <= 1e-8:
                fails.append(f"deficit {delta} at ({q1}, {q2}) vs brute force {d}")
            if not abs(ref.deficit_at(q1, q2, theta) - delta) <= 1e-8:
                fails.append(f"angle {theta} at ({q1}, {q2}) does not attain {delta}")
            self.interior += branch == "Interior"
            self.with_extremum += ref.has_interior_extremum(q1, q2)
        return fails, []

    def details(self):
        t = self.times("one_way_deficit")
        out = {"window_deficit_ms_p50": (1e3 * median(t), "ms")}
        if len(t) * 0.1 >= 10:
            out["window_deficit_ms_p90"] = (1e3 * quantiles(t, n=10, method="inclusive")[8], "ms")
        out["samples"] = (len(t), "count")
        out["share_with_interior_extremum"] = (self.with_extremum / self.states, "ratio")
        out["share_won_by_interior"] = (self.interior / self.states, "ratio")
        return out


class CliSession(Workload):
    """Sequential ``python -m xdeficit.cli`` processes, as an interactive user runs them."""

    name = "cli_session"
    primary = "deficit"
    deficit_states = 3
    oracle_args = ("--grid", "5", "--random", "50")

    def setup(self):
        import numpy as np

        rng = np.random.default_rng(self.seed)
        q = rng.random((self.deficit_states, 2))
        flip = q.sum(axis=1) > 1.0
        q[flip] = 1.0 - q[flip]
        self.inputs = [(float(a), float(b)) for a, b in q]
        self.oracle_seed = str(int(rng.integers(0, 2**31)))
        self.samples = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spans = OUT / f"cli-spans-{os.getpid()}.npz"
        self.run_proc(["-m", "xdeficit.cli", "--version"])

    def run_proc(self, argv: list[str]) -> str:
        proc = subprocess.run(
            [sys.executable, *argv], env=self.env, capture_output=True, text=True,
            timeout=PROC_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def cli(self, kind: str, args: list[str]) -> str | None:
        if self.tracer is None:
            return self.call(kind, self.run_proc, ["-m", "xdeficit.cli", *args])
        import numpy as np

        out = self.call(
            kind, self.run_proc,
            [str(HERE / "cli_shim.py"), str(self.spans), str(self.calls + 1), *args],
        )
        if out is not None:
            with np.load(self.spans) as spans:
                self.tracer.merge(dict(spans))
            self.spans.unlink()
        return out

    def run_round(self):
        out = [self.cli("deficit", ["deficit", repr(q1), repr(q2)]) for q1, q2 in self.inputs]
        oracle = self.cli("oracle-check", ["oracle-check", *self.oracle_args, "--seed", self.oracle_seed])
        if self.tracer is not None:
            self.call("interpreter", self.run_proc, ["-c", "pass"])
            self.call("import", self.run_proc, ["-c", "import xdeficit"])
        return out, oracle

    def expected_samples(self) -> int:
        grid = int(self.oracle_args[1])
        thetas, phis = 8, 4  # fixed by the oracle-check command
        return grid * (grid + 1) // 2 * thetas * phis + int(self.oracle_args[3])

    def check(self, outputs):
        deficits, oracle = outputs
        fails = []
        for (q1, q2), text in zip(self.inputs, deficits):
            if text is None:
                continue
            row = list(csv.DictReader(io.StringIO(text)))[0]
            delta, theta = float(row["delta_bits"]), float(row["theta_opt_rad"])
            d, _ = ref.brute_min(q1, q2)
            tol = printed_tol(d) + 1e-8
            if abs(float(row["q1"]) - q1) > printed_tol(q1) or abs(float(row["q2"]) - q2) > printed_tol(q2):
                fails.append(f"deficit row echoes ({row['q1']}, {row['q2']}) for ({q1}, {q2})")
            if abs(delta - d) > tol or abs(ref.deficit_at(q1, q2, theta) - d) > tol:
                fails.append(f"deficit row {row} vs brute force {d} at ({q1}, {q2})")
        if oracle is not None:
            row = list(csv.DictReader(io.StringIO(oracle)))[0]
            self.samples = int(row["samples"])
            if row["status"] != "pass" or self.samples != self.expected_samples():
                fails.append(f"oracle-check row {row}, expected {self.expected_samples()} samples")
        return fails, []

    def details(self):
        out = {
            "cli_deficit_ms": (1e3 * median(self.times("deficit")), "ms"),
            "oracle_checks_per_s": (self.samples / median(self.times("oracle-check")), "checks/s"),
        }
        if self.tracer is not None:
            bare = median(self.times("interpreter"))
            imported = median(self.times("import"))
            out["cli.interpreter_ms"] = (1e3 * bare, "ms")
            out["cli.import_ms"] = (1e3 * (imported - bare), "ms")
            out["cli.command_ms"] = (1e3 * (median(self.times("deficit")) - imported), "ms")
        return out


WORKLOADS = {w.name: w for w in (PhaseDiagram, BoundaryLandmarks, WindowQueries, CliSession)}


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter: import, inputs and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROC_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
    cls = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    workload = cls(seed)
    if traced:
        tracing.install(tracer)
        workload.tracer = tracer

    # The set-up probes are spread over the run, between rounds, so that their
    # median is taken over the same stretch of machine time as the rounds'.
    # Their time does not count towards the run's seconds.
    first, same, rounds, round_times = None, True, 0, []
    probes, probe_s = [], 0.0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start - probe_s < seconds:
        t0 = time.perf_counter()
        outputs = workload.run_round()
        round_times.append(time.perf_counter() - t0)
        if rounds == 0:
            first = outputs
        else:
            same = same and outputs == first
        rounds += 1
        share = min(1.0, (time.perf_counter() - start - probe_s) / seconds)
        while not traced and len(probes) < SETUP_PROBES * share:
            t0 = time.perf_counter()
            probes.append(setup_probe(name, seed))
            probe_s += time.perf_counter() - t0

    fails, faulty = workload.check(first)
    if not same:
        fails.append("a later round's outputs differ from the first round's")
    details = workload.details()
    details["round_s"] = (median(round_times), "s")
    details["rounds"] = (rounds, "count")

    if traced:
        metrics = tracing.layer_metrics(tracer, rounds)
        details["shape.reports_with_extrema"] = (
            tracer.counters["shape.reports_with_extrema"] // rounds, "count"
        )
        for key in ("cli.interpreter_ms", "cli.import_ms", "cli.command_ms"):
            metrics[key] = details.pop(key, (0.0, "ms"))
        tracer.dump(OUT / f"spans-{name}.npz")
    else:
        metrics = {
            "setup_s": (median(probes), "s"),
            "call_ms_p50": (1e3 * median(workload.times(cls.primary)), "ms"),
            "round_s": (median(round_times), "s"),
        }
    result = {
        "correct": not fails,
        "attempted": workload.attempted,
        "failed": workload.failed + len(faulty) * rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": name, "seed": seed, "trace": int(traced),
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
        "check_failures": fails[:20], "errors": workload.errors[:20],
        "faulty_per_round": faulty[:20],
        "round_times_s": round_times,
        "setup_probes_s": probes,
    }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump({**info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    return result


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up of the workload and print it")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        load_package()
        WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - t0)
        return 0

    load_package()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        line = {"workload": name, **result} if args.workload == "all" else result
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
