"""Command-line surface: every capability as a subcommand with CSV/JSON output.

Exit codes: 0 success, 1 oracle mismatch, 2 domain error, an invalid
argument (such as an ``oracle-check`` with a negative or zero sample count,
or a ``--tol`` that is negative or not finite) or an ``--output`` path that
cannot be opened, 3 unresolved shape classification, 4 solver
non-convergence.  Errors are reported as a single JSON object on stderr.
All floating output is printed with a configurable number of significant
digits (default 6) and is identical between the CSV and JSON formats.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

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
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return str(value)
        return float(f"{value:.{precision}g}")
    return value


def _emit(args, command: str, params: dict, header: list[str], rows: list[dict],
          comments: list[str] | None = None, extra: dict | None = None) -> None:
    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w")
    except OSError as exc:  # reported by main like any other bad input, exit 2
        raise ValueError(f"cannot open --output: {exc}") from exc
    try:
        if args.format == "json":
            payload = {
                "schema_version": SCHEMA_VERSION,
                "command": command,
                "params": params,
                "rows": [
                    {k: _json_safe(row[k], args.precision) for k in header} for row in rows
                ],
            }
            if extra:
                payload.update(
                    {k: _json_safe(v, args.precision) if isinstance(v, float) else v
                     for k, v in extra.items()}
                )
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            for line in comments or []:
                out.write(f"# {line}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[k], args.precision) for k in header])
    finally:
        if out is not sys.stdout:
            out.close()


def _angle(value: float, degrees: bool) -> float:
    return math.degrees(value) if degrees else value


def cmd_deficit(args) -> int:
    p = StateParams(args.q1, args.q2)
    res = one_way_deficit(p, grid_n=args.grid_n)
    rows = [
        {
            "q1": p.q1,
            "q2": p.q2,
            "delta_bits": res.delta,
            "branch": res.branch.value,
            "theta_opt_rad": res.optimal_theta,
            "tie": res.tie,
        }
    ]
    _emit(args, "deficit", {"q1": p.q1, "q2": p.q2},
          ["q1", "q2", "delta_bits", "branch", "theta_opt_rad", "tie"], rows)
    return 0


def cmd_shape(args) -> int:
    p = StateParams(args.q1, args.q2)
    report = classify_shape(p, grid_n=args.grid_n)
    s = pre_entropy(p)
    thetas = np.linspace(0.0, math.pi / 2.0, args.curve_samples)
    entropies = np.asarray(post_entropy(p, thetas))
    rows = [
        {"theta_rad": float(t), "post_entropy_bits": float(e), "deficit_bits": float(e - s)}
        for t, e in zip(thetas, entropies)
    ]
    extrema = [
        {"theta_rad": e.theta, "value_bits": e.value, "kind": e.kind}
        for e in report.extrema
    ]
    comments = [f"shape_class={report.shape_class.value}", f"grid_n={report.grid_n}"]
    for e in report.extrema:
        comments.append(
            f"extremum kind={e.kind} theta_rad={_fmt(e.theta, args.precision)} "
            f"value_bits={_fmt(e.value, args.precision)}"
        )
    _emit(args, "shape", {"q1": p.q1, "q2": p.q2, "grid_n": args.grid_n},
          ["theta_rad", "post_entropy_bits", "deficit_bits"], rows,
          comments=comments,
          extra={"shape_class": report.shape_class.value,
                 "extrema": [{k: _json_safe(v, args.precision) for k, v in e.items()}
                             for e in extrema]})
    return 0


def cmd_scan(args) -> int:
    profile = trajectory_profile(TrajectorySpec(args.total), samples=args.samples)
    rows = [
        {
            "q1": c.q1,
            "q2": c.q2,
            "delta_bits": c.delta,
            "branch": c.branch,
            "theta_opt_rad": c.theta_opt,
        }
        for c in profile.rows
    ]
    comments = [f"total={_fmt(args.total, args.precision)}"]
    transitions = []
    for q1_mid, frm, to in profile.transitions:
        comments.append(f"transition q1={_fmt(q1_mid, args.precision)} {frm}->{to}")
        transitions.append({"q1": _json_safe(q1_mid, args.precision), "from": frm, "to": to})
    _emit(args, "scan", {"total": args.total, "samples": args.samples},
          ["q1", "q2", "delta_bits", "branch", "theta_opt_rad"], rows,
          comments=comments, extra={"transitions": transitions})
    return 0


def cmd_boundaries(args) -> int:
    curves = trace_boundaries(resolution=args.resolution)
    rows = []
    for curve in curves:
        for bp in curve.points:
            rows.append(
                {
                    "kind": bp.kind.value,
                    "q1": bp.p.q1,
                    "q2": bp.p.q2,
                    "residual": bp.residual,
                }
            )
    gaps = sum(len(c.gaps) for c in curves)
    _emit(args, "boundaries", {"resolution": args.resolution},
          ["kind", "q1", "q2", "residual"], rows,
          comments=[f"curves={len(curves)}", f"flagged_gaps={gaps}"],
          extra={"flagged_gaps": gaps})
    return 0


def cmd_table1(args) -> int:
    records = jump_angle_table()
    suffix = "deg" if args.degrees else "rad"
    header = [
        "q1", "q2", f"jump_angle_{suffix}",
        "ref_q1", "ref_q2", f"ref_jump_angle_{suffix}",
        "dev_q1", f"dev_jump_angle_{suffix}",
    ]
    rows = []
    for rec, (rq1, rq2, rang) in zip(records, _REFERENCE_JUMP_TABLE):
        rows.append(
            {
                "q1": rec.boundary.p.q1,
                "q2": rec.boundary.p.q2,
                f"jump_angle_{suffix}": _angle(rec.jump_angle, args.degrees),
                "ref_q1": rq1,
                "ref_q2": rq2,
                f"ref_jump_angle_{suffix}": _angle(rang, args.degrees),
                "dev_q1": abs(rec.boundary.p.q1 - rq1),
                f"dev_jump_angle_{suffix}": abs(_angle(rec.jump_angle - rang, args.degrees)),
            }
        )
    _emit(args, "table1", {"degrees": args.degrees}, header, rows)
    return 0


def cmd_phase_diagram(args) -> int:
    grid = sweep(resolution=args.resolution, theta_grid=args.theta_grid, threads=args.threads)
    rows = [
        {
            "q1": c.q1,
            "q2": c.q2,
            "branch": c.branch,
            "delta_bits": c.delta,
            "theta_opt_rad": c.theta_opt,
        }
        for c in grid.cells
    ]
    _emit(args, "phase-diagram",
          {"resolution": args.resolution, "theta_grid": args.theta_grid},
          ["q1", "q2", "branch", "delta_bits", "theta_opt_rad"], rows,
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
    rows = [
        {
            "check": "closed_form_vs_oracle",
            "samples": count,
            "max_abs_deviation_bits": worst,
            "tolerance_bits": args.tol,
            "status": "pass" if ok else "fail",
        }
    ]
    _emit(args, "oracle-check",
          {"grid": args.grid, "random": args.random, "seed": args.seed, "tol": args.tol},
          ["check", "samples", "max_abs_deviation_bits", "tolerance_bits", "status"], rows)
    if not ok:
        print(json.dumps({"error": f"oracle mismatch {worst} exceeds {args.tol}",
                          "exit_code": 1}), file=sys.stderr)
        return 1
    return 0


def cmd_fidelity(args) -> int:
    p = StateParams(args.q1, args.q2)
    p2 = StateParams(args.q1b, args.q2b)
    rows = [
        {
            "q1": p.q1,
            "q2": p.q2,
            "q1b": p2.q1,
            "q2b": p2.q2,
            "fidelity": family_fidelity(p, p2),
        }
    ]
    _emit(args, "fidelity",
          {"q1": p.q1, "q2": p.q2, "q1b": p2.q1, "q2b": p2.q2},
          ["q1", "q2", "q1b", "q2b", "fidelity"], rows)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.precision = min(max(args.precision, 1), 15)
    try:
        return args.func(args)
    except DomainError as exc:
        print(json.dumps({"error": str(exc), "exit_code": 2}), file=sys.stderr)
        return 2
    except UnresolvedShape as exc:
        print(json.dumps({"error": str(exc), "exit_code": 3}), file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(json.dumps({"error": str(exc), "exit_code": 4}), file=sys.stderr)
        return 4
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "exit_code": 2}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
