"""Triangle sweeps, boundary polylines and trajectory profiles for plotting.

Produces plot-ready data only; rendering stays out of scope.  The sweep
labels each mirror pair of cells once.  The closed forms are bit-symmetric
under the q1 <-> q2 exchange, so the cell (q2, q1) gets exactly the result of
(q1, q2): the sweep labels the cells on and below the diagonal (q2 <= q1) and
emits each cell above it as the exact mirror of its twin.  One
``shape.needs_refinement`` call samples the entropy curves of all those
cells, a chunk of them at a time, and flags in array operations the cells
whose curve has a slope sign flip or a suspiciously flat slope.  Only those,
a few percent of the triangle, go through the scalar ``one_way_deficit``;
every other cell has no interior extremum and takes the better closed-form
endpoint from ``deficit.endpoint_branch``, the float-level arithmetic and tie
rule of ``endpoint_deficit``, which is what ``one_way_deficit`` returns
there.  Each cell thus gets the same result as a per-cell ``one_way_deficit``
call, in one process.  Trajectory profiles take the same two routes.
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
from .deficit import endpoint_branch, one_way_deficit
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


def _cell(p: StateParams, theta_grid: int) -> PhaseCell:
    """One labelled cell from the full deficit."""
    try:
        res = one_way_deficit(p, grid_n=theta_grid, refine_tol=1e-8)
    except UnresolvedShape:
        return PhaseCell(p.q1, p.q2, UNRESOLVED_LABEL, math.nan, math.nan)
    return PhaseCell(p.q1, p.q2, res.branch.value, res.delta, res.optimal_theta)


def _label(q1s: list[float], q2s: list[float], theta_grid: int) -> list[PhaseCell]:
    """Cells of the in-triangle states (q1s[k], q2s[k]), each as a per-cell
    :func:`_cell` would label it.

    One flag pass over all states picks those that take the full deficit;
    the rest take the endpoint branches at float level and build no
    ``StateParams``, so each (q1, q2) must be one that ``StateParams``
    keeps unchanged.
    """
    cells = []
    flags = needs_refinement(np.array(q1s), np.array(q2s), theta_grid)
    for q1, q2, refine in zip(q1s, q2s, flags.tolist()):
        if refine:
            cells.append(_cell(StateParams(q1, q2), theta_grid))
        else:
            delta, branch, theta, _ = endpoint_branch(q1, q2)
            cells.append(PhaseCell(q1, q2, branch.value, delta, theta))
    return cells


def sweep(resolution: int = 400, theta_grid: int = 512, threads: int | None = None) -> PhaseGrid:
    """Label every triangle cell with its winning deficit branch.

    Cells are unit-grid squares of side 1/resolution whose centers lie inside
    the triangle (center-point membership), listed row by row in q1, then
    q2.  ``area_fraction_interior`` is the fraction of in-triangle cells won
    by the interior branch.  Cells whose shape classification fails are
    labeled separately and counted, never silently folded into a phase.
    Only the cells with q2 <= q1 are labelled, all through one flag pass of
    ``shape.needs_refinement``; each cell above the diagonal is its twin
    with q1 and q2 swapped, which is exactly what labelling it would give.
    ``threads`` is accepted for compatibility and ignored: the sweep runs in
    the calling process.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    if theta_grid < 64:
        raise ValueError("theta_grid must be at least 64")
    centers = [(k + 0.5) / resolution for k in range(resolution)]
    inside = [
        (i, j) for i in range(resolution) for j in range(resolution)
        if centers[i] + centers[j] <= 1.0
    ]
    lower = [(i, j) for i, j in inside if j <= i]
    labelled = dict(zip(lower, _label([centers[i] for i, _ in lower],
                                      [centers[j] for _, j in lower], theta_grid)))
    cells = []
    for i, j in inside:
        if j <= i:
            cells.append(labelled[i, j])
        else:
            c = labelled[j, i]
            cells.append(PhaseCell(c.q2, c.q1, c.branch, c.delta, c.theta_opt))
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
    eq, hp, jump = (
        BoundaryKind.EQUAL_ENDPOINTS,
        BoundaryKind.HALFPI_BIFURCATION,
        BoundaryKind.JUMP_BOUNDARY,
    )

    def fan(solver) -> list[BoundaryPoint]:
        """The axis root, then the non-degenerate root of each diagonal path."""
        axis = solver(TrajectorySpec.on_axis())
        roots = (solver(TrajectorySpec(t)) for t in totals)
        points = [] if axis is None else [axis]
        return points + [bp for bp in roots if bp is not None and not bp.degenerate]

    def corner(kind: BoundaryKind) -> BoundaryPoint:
        # for the half-pi kind, residual 0 is the analytic limit of the
        # curvature along the axis
        return BoundaryPoint(p=StateParams(1.0, 0.0), kind=kind, residual=0.0, degenerate=True)

    jumps = (solve_jump_boundary(TrajectorySpec(t)) for t in totals if 0.5 < t < t_star)
    axis_jump = BoundaryPoint(p=StateParams(0.5, 0.0), kind=jump, residual=0.0)
    star = BoundaryPoint(
        p=p_star,
        kind=jump,
        residual=abs(endpoint_entropy_zero(p_star) - endpoint_entropy_halfpi(p_star)),
    )
    polylines = [
        (eq, fan(solve_equal_endpoints) + [corner(eq)]),
        (hp, fan(solve_halfpi_boundary) + [corner(hp)]),
        (jump, [axis_jump] + [rec.boundary for rec in jumps if rec is not None] + [star]),
    ]
    curves = []
    for kind, points in polylines:
        curves.append(_chain(kind, points, resolution))
        curves.append(_chain(kind, [_mirror(bp) for bp in points], resolution))
    curves.extend(BoundaryCurve(kind=bp.kind, points=[bp]) for bp in zero_boundary_axis())
    return curves


def trajectory_profile(traj: TrajectorySpec, samples: int = 1000,
                       theta_grid: int = 512) -> TrajectoryProfile:
    """Deficit profile along a scan path with branch transitions marked.

    The samples take the two routes of :func:`sweep`: one flag pass over the
    whole path, the full deficit on the flagged samples and the endpoint
    branches on the rest, each equal to a per-sample ``one_way_deficit``.
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    lo, hi = traj.q1_range()
    if traj.axis:
        lo, hi = 0.0, 1.0
    q1s = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    # the q2 of traj.state(q1); StateParams keeps both fields as they are on the path
    q2s = [0.0 if traj.axis else traj.total - q1 for q1 in q1s]
    rows = _label(q1s, q2s, theta_grid)
    transitions = []
    for a, b in zip(rows, rows[1:]):
        if a.branch != b.branch:
            transitions.append((0.5 * (a.q1 + b.q1), a.branch, b.branch))
    return TrajectoryProfile(rows=rows, transitions=transitions)
