"""Triangle sweeps, boundary polylines and trajectory profiles for plotting.

Produces plot-ready data only; rendering stays out of scope.  The sweep
runs on numpy columns, one row per cell, and builds its ``PhaseCell``
objects once at the end.  The closed forms are bit-symmetric under the
q1 <-> q2 exchange, so the cell (q2, q1) gets exactly the result of
(q1, q2): the sweep labels the cells on and below the diagonal (q2 <= q1),
and each cell above it takes its twin's labels by one fancy index into
that half.

Labelling (:func:`_label`) reads the window of the interior minima from
one slope sample per cell, the outermost one ``shape.classify_shape``
reads, at pi/2 - ``ENDPOINT_MARGIN``.  Where that sample is signed
negative, the last extremum classify_shape brackets is a maximum; off the
axes the curve rises from theta = 0 and carries at most two extrema, so no
minimum comes before it.  Where it is unsigned, |S''(pi/2)| is below
~1e-8: such a curve brackets a minimum only at totals 0.813-0.815, above
t* ~ 0.769, where the minimum never wins.  So the candidates are the cells
whose sample is signed positive.  On each diagonal q1 + q2 = const the
minima fill one run of cells, from the window's upper end down to the
bimodality birth, so a walk from the candidate nearest the axis stops at
the first one whose slope samples never change sign.  Every labelled cell
takes the better closed-form endpoint from ``deficit.endpoint_columns``,
``==`` to ``endpoint_deficit``, and the flagged walked cells then take
the deficit that ``one_way_deficit`` reads from the slope row the walk
sampled.  Each cell thus gets the same result as a per-cell
``one_way_deficit`` call, in one process, and no row is computed twice.
A trajectory profile is labelled by the same walk, with its whole path as
one diagonal.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .boundaries import (
    BoundaryKind,
    BoundaryPoint,
    TrajectorySpec,
    boundary_fan,
    jump_curve,
    zero_boundary_axis,
)
from .core import StateParams, slope_curve
from .deficit import Branch, _row_deficit, endpoint_columns
from .shape import GRID_N, SLOPE_FLOOR, UnresolvedShape, _angle_table, _flag_rows

UNRESOLVED_LABEL = "Unresolved"


@dataclass(frozen=True)
class PhaseCell:
    """One labelled state of a sweep or a profile: its (q1, q2), the
    winning branch's label, its deficit and its angle.

    The sweep and the profiles build one per row, so the dataclass
    decorator keeps this ``__init__``, which stores each field as given,
    with no coercion, through the instance dict, as the class is frozen.
    ``==``, ``hash``, ``repr``, ``dataclasses.replace`` and the
    ``FrozenInstanceError`` on assignment are the generated ones.
    """

    q1: float
    q2: float
    branch: str
    delta: float
    theta_opt: float

    def __init__(self, q1: float, q2: float, branch: str, delta: float, theta_opt: float):
        fields = self.__dict__
        fields["q1"], fields["q2"], fields["branch"] = q1, q2, branch
        fields["delta"], fields["theta_opt"] = delta, theta_opt


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


def _label(diagonal: np.ndarray, q1: np.ndarray, q2: np.ndarray,
           theta_grid: int) -> tuple[np.ndarray, ...]:
    """(branch, delta, theta) columns of the in-triangle states
    (q1[k], q2[k]): each row the winning branch of ``one_way_deficit`` on
    ``theta_grid``, or ``Unresolved`` with NaN where its shape
    classification fails.  ``branch`` holds the label strings as objects.

    ``diagonal`` groups the states into runs.  The candidates of a run are
    its states whose outermost slope sample, at pi/2 - ``ENDPOINT_MARGIN``,
    is signed positive, walked in descending state order; with the states
    listed by ascending q1 in each run, that is from the largest q1 down,
    the one nearest the axis first, one state per run per round through
    one ``shape._flag_rows`` call.  A run's walk stops at its first
    candidate that call leaves unflagged.  The flagged
    states take the full deficit, read from the slope rows the walk
    sampled, in state order; every other state takes
    ``deficit.endpoint_columns``.  The states must be ones that
    ``StateParams`` keeps as given, as the rows were sampled there.
    """
    _, ct, st = _angle_table(theta_grid)
    candidates = np.flatnonzero(slope_curve(q1, q2, ct[-1], st[-1]) >= SLOPE_FLOOR)[::-1]
    # the runs one after another, each in descending state order
    candidates = candidates[np.argsort(diagonal[candidates], kind="stable")]
    edges = np.flatnonzero(np.diff(diagonal[candidates])) + 1
    # each walking run's next state and its end, as positions in candidates
    nxt, end = np.r_[0, edges], np.r_[edges, len(candidates)]
    rows = {}  # the walked slope row of each flagged state, by state index
    while (walking := nxt < end).any():
        nxt, end = nxt[walking], end[walking]
        ks = candidates[nxt]
        hits, hit_rows = _flag_rows(q1[ks], q2[ks], theta_grid)
        rows.update(zip(ks[hits].tolist(), hit_rows))
        nxt, end = nxt[hits] + 1, end[hits]
    delta, at_zero, theta = endpoint_columns(q1, q2)
    branch = np.where(at_zero, Branch.AT_ZERO.value, Branch.AT_HALF_PI.value).astype(object)
    for k in sorted(rows):
        try:
            res = _row_deficit(StateParams(q1[k], q2[k]), rows[k])
        except UnresolvedShape:
            branch[k], delta[k], theta[k] = UNRESOLVED_LABEL, math.nan, math.nan
        else:
            branch[k], delta[k], theta[k] = res.branch.value, res.delta, res.optimal_theta
    return branch, delta, theta


def sweep(resolution: int = 400, theta_grid: int = GRID_N, threads: int | None = None) -> PhaseGrid:
    """Label every triangle cell with its winning deficit branch.

    Cells are unit-grid squares of side 1/resolution whose centers lie inside
    the triangle (center-point membership), listed row by row in q1, then
    q2.  ``area_fraction_interior`` is the fraction of in-triangle cells won
    by the interior branch.  Cells whose shape classification fails are
    labeled separately and counted, never silently folded into a phase.
    The sweep runs on numpy columns (see the module docstring): the cells
    with q2 <= q1 are labelled, and each cell above the diagonal copies
    the row of its twin, which is exactly what labelling it would give.
    Of the labelled cells, only the run each diagonal walk flags, over the
    cells whose outermost slope sample is signed positive, is classified;
    every other cell takes the endpoint branches, so only a cell in a
    walked run can be labelled Unresolved.
    ``resolution`` and ``theta_grid`` must be integers (TypeError
    otherwise).  ``threads`` is deprecated and ignored, and passing it warns
    (DeprecationWarning): the sweep runs in the calling process.
    """
    if threads is not None:
        warnings.warn("sweep(threads=) is ignored and will be removed", DeprecationWarning, 2)
    resolution, theta_grid = operator.index(resolution), operator.index(theta_grid)
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    centers = (np.arange(resolution) + 0.5) / resolution
    i, j = np.nonzero(centers[:, None] + centers <= 1.0)  # row-major: row by row
    lower = j <= i
    li, lj = i[lower], j[lower]
    q1, q2 = centers[li], centers[lj]
    labels = _label(li + lj, q1, q2, theta_grid)
    # the labelled row of each cell's twin (max(i, j), min(i, j)): the
    # labelled cells of row i are j = 0, 1, ..., listed from the row's
    # first entry on
    twin = np.searchsorted(li, np.maximum(i, j)) + np.minimum(i, j)
    branch, delta, theta = (column[twin].tolist() for column in labels)
    cells = list(map(PhaseCell, centers[i].tolist(), centers[j].tolist(), branch, delta, theta))
    return PhaseGrid(
        resolution=resolution,
        cells=cells,
        area_fraction_interior=branch.count(Branch.INTERIOR.value) / len(cells),
        unresolved_cells=branch.count(UNRESOLVED_LABEL),
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

    Solves each boundary along a fan of diagonal trajectories
    (``resolution`` per unit of total), chains the roots into polylines per
    boundary kind, and anchors each curve with its exact axis landmarks.  The
    two mirror images of each curve are emitted separately so the output maps
    directly onto the phase-diagram figures.  The equal-endpoint and half-pi
    curves are ``boundaries.boundary_fan`` on the fan's totals: the axis
    root, then the non-degenerate root of every diagonal from one array
    solve per curve, each within ``Q1_TOL`` of the per-path solve, and the
    corner (1, 0).  The jump boundary is
    ``boundaries.jump_curve`` on the fan's totals, one root on each total
    between its two analytic ends, continued by a Newton corrector in
    (q1, theta) from the last two: it is traced below the intersection
    point only, where the interior phase exists, and from 1/2 + 4.4e-11
    up, the bottom of the per-path jump solve
    (``boundaries._window_tol``), below which the axis end stands in.  A
    total there that it cannot solve raises ConvergenceError.
    ``resolution`` must be an integer (TypeError otherwise).
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100")
    # one allocation, so an oversized resolution raises MemoryError at once
    totals = (np.arange(1, operator.index(resolution)) / resolution).tolist()
    # each fan ends at the corner (1, 0), where for the half-pi kind the
    # residual 0 is the analytic limit of the curvature along the axis
    polylines = [(kind, boundary_fan(kind, totals) + [
        BoundaryPoint(p=StateParams(1.0, 0.0), kind=kind, residual=0.0, degenerate=True)])
        for kind in (BoundaryKind.EQUAL_ENDPOINTS, BoundaryKind.HALFPI_BIFURCATION)]
    polylines.append((BoundaryKind.JUMP_BOUNDARY, [rec.boundary for rec in jump_curve(totals)]))
    curves = []
    for kind, points in polylines:
        curves.append(_chain(kind, points, resolution))
        mirror = [BoundaryPoint(p=bp.p.swapped(), kind=bp.kind, residual=bp.residual,
                                degenerate=bp.degenerate) for bp in points]
        curves.append(_chain(kind, mirror, resolution))
    curves.extend(BoundaryCurve(kind=bp.kind, points=[bp]) for bp in zero_boundary_axis())
    return curves


def trajectory_profile(traj: TrajectorySpec, samples: int = 1000) -> TrajectoryProfile:
    """Deficit profile along a scan path with branch transitions marked.

    The samples are labelled as the cells of :func:`sweep` are, on its
    default angle grid, with the whole path as one diagonal: one walk from
    the path's end nearest the axis (q1 = 1 on the axis) flags the run of
    samples that take the full deficit, read from the walked slope rows,
    and the rest take the endpoint columns, each equal to a per-sample
    ``one_way_deficit``.  So only a sample in the walked run can be
    labelled Unresolved.  ``samples`` must be an integer (TypeError
    otherwise).
    """
    samples = operator.index(samples)
    if samples < 100:
        raise ValueError("samples must be at least 100")
    lo, hi = traj.q1_range()
    if traj.axis:
        lo, hi = 0.0, 1.0
    q1 = lo + (hi - lo) * np.arange(samples) / (samples - 1)
    q1[-1] = hi  # the formula can round one ulp past hi, and q2 below 0
    # the q2 of traj.state(q1); StateParams keeps both fields as they are on the path
    q2 = np.zeros(samples) if traj.axis else traj.total - q1
    columns = (q1, q2, *_label(np.zeros(samples, dtype=int), q1, q2, GRID_N))
    rows = list(map(PhaseCell, *(c.tolist() for c in columns)))
    transitions = []
    for a, b in zip(rows, rows[1:]):
        if a.branch != b.branch:
            transitions.append((0.5 * (a.q1 + b.q1), a.branch, b.branch))
    return TrajectoryProfile(rows=rows, transitions=transitions)
