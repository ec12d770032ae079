"""Command-line surface: every capability as a subcommand with CSV/JSON output.

Exit codes: 0 success, 1 oracle mismatch, 2 domain error, an invalid
argument (such as an ``oracle-check`` with a negative or zero sample count,
a ``--tol`` that is negative or not finite, or a ``shape --curve-samples``
below 2) or an ``--output`` path that cannot be opened, 3 unresolved shape
classification, 4 solver non-convergence, 141 stdout closed by its reader
(as in ``xdeficit scan 0.75 5000 | head -1``; nothing is written to stderr).
Every other error is reported as a single JSON object on stderr.  All
floating output is printed with a configurable number of significant digits
(1 to 15, default 6) and is identical between the CSV and JSON formats.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Sequence

import numpy as np

from . import __version__
from .boundaries import (
    ConvergenceError,
    TrajectorySpec,
    jump_angle_table,
)
from .core import DomainError, StateParams, family_fidelity, post_entropy, pre_entropy
from .deficit import one_way_deficit
from .diagram import sweep, trace_boundaries, trajectory_profile
from .oracle import equivalence_sweep
from .shape import UnresolvedShape, classify_shape

SCHEMA_VERSION = "1"

# Exit code of each error a command may raise, first match wins: DomainError
# is a ValueError and must come before it.
_EXIT_CODES = {DomainError: 2, UnresolvedShape: 3, ConvergenceError: 4, ValueError: 2}

# Tabulated reference landmarks for the jump-boundary rows: (q1, q2, angle).
# The rows q1 = 0.676082 and 0.721590 carry the angles of a 40-digit solve at
# the printed boundary points; the published 0.6252 and 1.0409 are the interior
# minimizers about 1e-5 away in q1.
_REFERENCE_JUMP_TABLE = [
    (0.5, 0.0, 0.0),
    (0.544535, 0.55 - 0.544535, 0.1267),
    (0.588104, 0.60 - 0.588104, 0.2470),
    (0.631766, 0.65 - 0.631766, 0.4020),
    (0.676082, 0.70 - 0.676082, 0.6266),
    (0.721590, 0.75 - 0.721590, 1.0392),
    (0.739409, 0.029686, math.pi / 2.0),
]


def _fmt(value, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _json_safe(value, precision: int):
    """``value`` with every float, at any depth, rounded as ``_fmt`` prints it;
    NaN and infinities become the strings ``"nan"``, ``"inf"``, ``"-inf"``."""
    if isinstance(value, dict):
        return {k: _json_safe(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v, precision) for v in value]
    if isinstance(value, float):
        return float(f"{value:.{precision}g}") if math.isfinite(value) else str(value)
    return value


def _emit(args, command: str, params: dict, header: list[str], rows: list[tuple],
          comments: Sequence[str] = (), extra: dict | None = None) -> None:
    """Write ``rows``, tuples in ``header`` order, as CSV (after the ``#``
    ``comments``) or as JSON (with the ``extra`` top-level fields)."""
    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w")
    except OSError as exc:  # reported by main like any other bad input, exit 2
        raise ValueError(f"cannot open --output: {exc}") from exc
    try:
        if args.format == "json":
            body = {"rows": [dict(zip(header, row)) for row in rows], **(extra or {})}
            payload = {"schema_version": SCHEMA_VERSION, "command": command,
                       "params": params, **_json_safe(body, args.precision)}
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            for line in comments:
                out.write(f"# {line}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v, args.precision) for v in row])
    finally:
        if out is not sys.stdout:
            out.close()


def cmd_deficit(args) -> int:
    p = StateParams(args.q1, args.q2)
    res = one_way_deficit(p, grid_n=args.grid_n)
    _emit(args, "deficit", {"q1": p.q1, "q2": p.q2},
          ["q1", "q2", "delta_bits", "branch", "theta_opt_rad", "tie"],
          [(p.q1, p.q2, res.delta, res.branch.value, res.optimal_theta, res.tie)])
    return 0


def cmd_shape(args) -> int:
    if args.curve_samples < 2:
        raise ValueError(f"--curve-samples must be at least 2, got {args.curve_samples}")
    p = StateParams(args.q1, args.q2)
    report = classify_shape(p, grid_n=args.grid_n)
    s = pre_entropy(p)
    thetas = np.linspace(0.0, math.pi / 2.0, args.curve_samples)
    entropies = np.asarray(post_entropy(p, thetas))
    comments = [f"shape_class={report.shape_class.value}", f"grid_n={report.grid_n}"]
    comments += [f"extremum kind={e.kind} theta_rad={_fmt(e.theta, args.precision)} "
                 f"value_bits={_fmt(e.value, args.precision)}" for e in report.extrema]
    _emit(args, "shape", {"q1": p.q1, "q2": p.q2, "grid_n": args.grid_n},
          ["theta_rad", "post_entropy_bits", "deficit_bits"],
          [(float(t), float(e), float(e - s)) for t, e in zip(thetas, entropies)],
          comments=comments,
          extra={"shape_class": report.shape_class.value,
                 "extrema": [{"theta_rad": e.theta, "value_bits": e.value, "kind": e.kind}
                             for e in report.extrema]})
    return 0


def cmd_scan(args) -> int:
    profile = trajectory_profile(TrajectorySpec(args.total), samples=args.samples)
    comments = [f"total={_fmt(args.total, args.precision)}"]
    comments += [f"transition q1={_fmt(q1, args.precision)} {frm}->{to}"
                 for q1, frm, to in profile.transitions]
    _emit(args, "scan", {"total": args.total, "samples": args.samples},
          ["q1", "q2", "delta_bits", "branch", "theta_opt_rad"],
          [(c.q1, c.q2, c.delta, c.branch, c.theta_opt) for c in profile.rows],
          comments=comments,
          extra={"transitions": [{"q1": q1, "from": frm, "to": to}
                                 for q1, frm, to in profile.transitions]})
    return 0


def cmd_boundaries(args) -> int:
    curves = trace_boundaries(resolution=args.resolution)
    gaps = sum(len(c.gaps) for c in curves)
    _emit(args, "boundaries", {"resolution": args.resolution},
          ["kind", "q1", "q2", "residual"],
          [(bp.kind.value, bp.p.q1, bp.p.q2, bp.residual)
           for curve in curves for bp in curve.points],
          comments=[f"curves={len(curves)}", f"flagged_gaps={gaps}"],
          extra={"flagged_gaps": gaps})
    return 0


def cmd_table1(args) -> int:
    suffix = "deg" if args.degrees else "rad"
    unit = math.degrees if args.degrees else float
    rows = [
        (rec.boundary.p.q1, rec.boundary.p.q2, unit(rec.jump_angle),
         rq1, rq2, unit(rang),
         abs(rec.boundary.p.q1 - rq1), abs(unit(rec.jump_angle - rang)))
        for rec, (rq1, rq2, rang) in zip(jump_angle_table(), _REFERENCE_JUMP_TABLE)
    ]
    _emit(args, "table1", {"degrees": args.degrees},
          ["q1", "q2", f"jump_angle_{suffix}", "ref_q1", "ref_q2", f"ref_jump_angle_{suffix}",
           "dev_q1", f"dev_jump_angle_{suffix}"], rows)
    return 0


def cmd_phase_diagram(args) -> int:
    grid = sweep(resolution=args.resolution, theta_grid=args.theta_grid, threads=args.threads)
    _emit(args, "phase-diagram",
          {"resolution": args.resolution, "theta_grid": args.theta_grid},
          ["q1", "q2", "branch", "delta_bits", "theta_opt_rad"],
          [(c.q1, c.q2, c.branch, c.delta, c.theta_opt) for c in grid.cells],
          comments=[
              f"area_fraction_interior={_fmt(grid.area_fraction_interior, args.precision)}",
              f"unresolved_cells={grid.unresolved_cells}",
          ],
          extra={"area_fraction_interior": grid.area_fraction_interior,
                 "unresolved_cells": grid.unresolved_cells})
    return 0


def cmd_oracle_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    count, worst = equivalence_sweep(args.grid, args.random, args.seed)
    ok = worst <= args.tol
    _emit(args, "oracle-check",
          {"grid": args.grid, "random": args.random, "seed": args.seed, "tol": args.tol},
          ["check", "samples", "max_abs_deviation_bits", "tolerance_bits", "status"],
          [("closed_form_vs_oracle", count, worst, args.tol, "pass" if ok else "fail")])
    return 0 if ok else _error(f"oracle mismatch {worst} exceeds {args.tol}", 1)


def cmd_fidelity(args) -> int:
    p = StateParams(args.q1, args.q2)
    p2 = StateParams(args.q1b, args.q2b)
    _emit(args, "fidelity",
          {"q1": p.q1, "q2": p.q2, "q1b": p2.q1, "q2b": p2.q2},
          ["q1", "q2", "q1b", "q2b", "fidelity"],
          [(p.q1, p.q2, p2.q1, p2.q2, family_fidelity(p, p2))])
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--precision", type=int, default=6,
                        help="significant digits for floating output (up to 15)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdeficit",
        description="One-way quantum deficit toolkit for a two-parameter "
                    "two-qubit X-state family",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("deficit", help="minimized one-way deficit at a state")
    sp.add_argument("q1", type=float)
    sp.add_argument("q2", type=float)
    sp.add_argument("--grid-n", type=int, default=512)
    _add_common(sp)
    sp.set_defaults(func=cmd_deficit)

    sp = sub.add_parser("shape", help="classify the entropy curve and dump it")
    sp.add_argument("q1", type=float)
    sp.add_argument("q2", type=float)
    sp.add_argument("--grid-n", type=int, default=512)
    sp.add_argument("--curve-samples", type=int, default=257)
    _add_common(sp)
    sp.set_defaults(func=cmd_shape)

    sp = sub.add_parser("scan", help="deficit profile along q1 + q2 = total")
    sp.add_argument("total", type=float)
    sp.add_argument("samples", type=int, nargs="?", default=1000)
    _add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("boundaries", help="trace all phase-boundary polylines")
    sp.add_argument("--resolution", type=int, default=100)
    _add_common(sp)
    sp.set_defaults(func=cmd_boundaries)

    sp = sub.add_parser("table1", help="jump-angle landmarks vs reference values")
    sp.add_argument("--degrees", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("phase-diagram", help="label the whole triangle by branch")
    sp.add_argument("--resolution", type=int, default=400)
    sp.add_argument("--theta-grid", type=int, default=512)
    sp.add_argument(
        "--threads", type=int, default=None,
        help="accepted for compatibility and ignored; the sweep runs in one process",
    )
    _add_common(sp)
    sp.set_defaults(func=cmd_phase_diagram)

    sp = sub.add_parser("oracle-check", help="validate closed forms against the matrix oracle")
    sp.add_argument("--grid", type=int, default=30)
    sp.add_argument("--random", type=int, default=200)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp)
    sp.set_defaults(func=cmd_oracle_check)

    sp = sub.add_parser("fidelity", help="fidelity between two family members")
    sp.add_argument("q1", type=float)
    sp.add_argument("q2", type=float)
    sp.add_argument("q1b", type=float)
    sp.add_argument("q2b", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_fidelity)

    return parser


def _error(message: str, code: int) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.precision = min(max(args.precision, 1), 15)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest of stdout, and the flush at exit,
        # to the null device, and exit as a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        return _error(str(exc), code)


if __name__ == "__main__":
    sys.exit(main())
