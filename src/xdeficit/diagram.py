"""Triangle sweeps, boundary polylines and trajectory profiles for plotting.

Produces plot-ready data only; rendering stays out of scope.  The sweep takes
the triangle one row of cells at a time.  It samples the entropy curves of the
whole row as one (cells x (theta_grid + 1)) grid and flags in array operations
the cells whose curve has a slope sign flip or a suspiciously flat slope
(``shape.needs_refinement``).  Only those, a few percent of the triangle, go
through the scalar ``one_way_deficit``; every other cell has no interior
extremum and takes the better closed-form endpoint (``endpoint_deficit``),
which is what ``one_way_deficit`` returns there.  Each cell thus gets the same
result as a per-cell ``one_way_deficit`` call, in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boundaries import (
    BoundaryKind,
    BoundaryPoint,
    TrajectorySpec,
    curves_intersection,
    solve_equal_endpoints,
    solve_halfpi_boundary,
    solve_jump_boundary,
    zero_boundary_axis,
)
from .core import StateParams, endpoint_entropy_halfpi, endpoint_entropy_zero
from .deficit import endpoint_deficit, one_way_deficit
from .shape import UnresolvedShape, needs_refinement

UNRESOLVED_LABEL = "Unresolved"


@dataclass(frozen=True)
class PhaseCell:
    q1: float
    q2: float
    branch: str
    delta: float
    theta_opt: float


@dataclass
class PhaseGrid:
    resolution: int
    cells: list[PhaseCell]
    area_fraction_interior: float
    unresolved_cells: int


@dataclass
class BoundaryCurve:
    kind: BoundaryKind
    points: list[BoundaryPoint]
    gaps: list[int] = field(default_factory=list)  # indices with oversized spacing


@dataclass
class TrajectoryProfile:
    rows: list[PhaseCell]
    transitions: list[tuple[float, str, str]]  # (q1 midpoint, from, to)


def _cell(p: StateParams, theta_grid: int, refine: bool = True) -> PhaseCell:
    """One labelled cell: the full deficit, or the endpoint branches alone."""
    try:
        if refine:
            res = one_way_deficit(p, grid_n=theta_grid, refine_tol=1e-8)
        else:
            res = endpoint_deficit(p)
    except UnresolvedShape:
        return PhaseCell(p.q1, p.q2, UNRESOLVED_LABEL, math.nan, math.nan)
    return PhaseCell(p.q1, p.q2, res.branch.value, res.delta, res.optimal_theta)


def sweep(resolution: int = 400, theta_grid: int = 512, threads: int | None = None) -> PhaseGrid:
    """Label every triangle cell with its winning deficit branch.

    Cells are unit-grid squares of side 1/resolution whose centers lie inside
    the triangle (center-point membership).  ``area_fraction_interior`` is the
    fraction of in-triangle cells won by the interior branch.  Cells whose
    shape classification fails are labeled separately and counted, never
    silently folded into a phase.  ``threads`` is accepted for compatibility
    and ignored: the sweep runs in the calling process.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    if theta_grid < 64:
        raise ValueError("theta_grid must be at least 64")
    cells = []
    for i in range(resolution):
        q1 = (i + 0.5) / resolution
        q2s = [q2 for q2 in ((j + 0.5) / resolution for j in range(resolution)) if q1 + q2 <= 1.0]
        refine = needs_refinement(np.full(len(q2s), q1), np.array(q2s), theta_grid)
        cells.extend(
            _cell(StateParams(q1, q2), theta_grid, bool(r)) for q2, r in zip(q2s, refine)
        )
    interior = sum(1 for c in cells if c.branch == "Interior")
    unresolved = sum(1 for c in cells if c.branch == UNRESOLVED_LABEL)
    return PhaseGrid(
        resolution=resolution,
        cells=cells,
        area_fraction_interior=interior / len(cells),
        unresolved_cells=unresolved,
    )


def _mirror(bp: BoundaryPoint) -> BoundaryPoint:
    return BoundaryPoint(
        p=bp.p.swapped(), kind=bp.kind, residual=bp.residual, degenerate=bp.degenerate
    )


def _chain(kind: BoundaryKind, points: list[BoundaryPoint], resolution: int) -> BoundaryCurve:
    bound = 2.0 / resolution
    gaps = []
    for i, (a, b) in enumerate(zip(points, points[1:])):
        if math.hypot(a.p.q1 - b.p.q1, a.p.q2 - b.p.q2) > bound:
            gaps.append(i)
    return BoundaryCurve(kind=kind, points=points, gaps=gaps)


def trace_boundaries(resolution: int = 100) -> list[BoundaryCurve]:
    """All phase-boundary polylines of the parameter triangle.

    Runs the one-dimensional solvers along a fan of diagonal trajectories
    (``resolution`` per unit of total), chains the roots into polylines per
    boundary kind, and anchors each curve with its exact axis landmarks.  The
    two mirror images of each curve are emitted separately so the output maps
    directly onto the phase-diagram figures.  The jump boundary is traced
    below the intersection point only, where the interior phase exists.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    totals = [k / resolution for k in range(1, resolution)]
    p_star = curves_intersection()
    t_star = p_star.q1 + p_star.q2

    curves: list[BoundaryCurve] = []

    axis_eq = solve_equal_endpoints(TrajectorySpec.on_axis())
    eq_points = [axis_eq] if axis_eq is not None else []
    for t in totals:
        bp = solve_equal_endpoints(TrajectorySpec(t))
        if bp is not None and not bp.degenerate:
            eq_points.append(bp)
    eq_points.append(
        BoundaryPoint(
            p=StateParams(1.0, 0.0),
            kind=BoundaryKind.EQUAL_ENDPOINTS,
            residual=0.0,
            degenerate=True,
        )
    )
    curves.append(_chain(BoundaryKind.EQUAL_ENDPOINTS, eq_points, resolution))
    curves.append(
        _chain(BoundaryKind.EQUAL_ENDPOINTS, [_mirror(bp) for bp in eq_points], resolution)
    )

    axis_hp = solve_halfpi_boundary(TrajectorySpec.on_axis())
    hp_points = [axis_hp] if axis_hp is not None else []
    for t in totals:
        bp = solve_halfpi_boundary(TrajectorySpec(t))
        if bp is not None and not bp.degenerate:
            hp_points.append(bp)
    hp_points.append(
        BoundaryPoint(
            p=StateParams(1.0, 0.0),
            kind=BoundaryKind.HALFPI_BIFURCATION,
            residual=0.0,  # analytic limit of the curvature along the axis
            degenerate=True,
        )
    )
    curves.append(_chain(BoundaryKind.HALFPI_BIFURCATION, hp_points, resolution))
    curves.append(
        _chain(BoundaryKind.HALFPI_BIFURCATION, [_mirror(bp) for bp in hp_points], resolution)
    )

    jump_points = [
        BoundaryPoint(
            p=StateParams(0.5, 0.0), kind=BoundaryKind.JUMP_BOUNDARY, residual=0.0
        )
    ]
    for t in totals:
        if not 0.5 < t < t_star:
            continue
        rec = solve_jump_boundary(TrajectorySpec(t))
        if rec is not None:
            jump_points.append(rec.boundary)
    jump_points.append(
        BoundaryPoint(
            p=p_star,
            kind=BoundaryKind.JUMP_BOUNDARY,
            residual=abs(endpoint_entropy_zero(p_star) - endpoint_entropy_halfpi(p_star)),
        )
    )
    curves.append(_chain(BoundaryKind.JUMP_BOUNDARY, jump_points, resolution))
    curves.append(
        _chain(BoundaryKind.JUMP_BOUNDARY, [_mirror(bp) for bp in jump_points], resolution)
    )

    for bp in zero_boundary_axis():
        curves.append(BoundaryCurve(kind=bp.kind, points=[bp]))

    return curves


def trajectory_profile(traj: TrajectorySpec, samples: int = 1000,
                       theta_grid: int = 512) -> TrajectoryProfile:
    """Deficit profile along a scan path with branch transitions marked."""
    if samples < 100:
        raise ValueError("samples must be at least 100")
    lo, hi = traj.q1_range()
    if traj.axis:
        lo, hi = 0.0, 1.0
    rows = []
    for k in range(samples):
        q1 = lo + (hi - lo) * k / (samples - 1)
        rows.append(_cell(traj.state(q1), theta_grid))
    transitions = []
    for a, b in zip(rows, rows[1:]):
        if a.branch != b.branch:
            transitions.append((0.5 * (a.q1 + b.q1), a.branch, b.branch))
    return TrajectoryProfile(rows=rows, transitions=transitions)
