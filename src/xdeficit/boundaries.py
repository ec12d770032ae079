"""Phase-boundary location by one-dimensional root finding.

All boundaries are found along straight scan paths: either the Cartesian axis
q2 = 0 or diagonal trajectories q1 + q2 = const, mirroring how the parameter
triangle is naturally swept.  Every solve is a bracketing scan followed by
``shape.find_root``, a bracketed superlinear (Brent) root solver that never
needs more than a few evaluations beyond bisection.  No residual it solves
uses the entropy curvature at theta = 0, which diverges off the axes: the
interior minimum the jump gap needs is a root of dS/dtheta at interior
theta.  The equal-endpoint and half-pi scans sample the whole path as one
array through the broadcast endpoint forms of ``core``
(``TrajectorySpec.states``); only the root solve in the last bracket
evaluates the scalar forms point by point.

Boundary kinds:

* ``EqualEndpoints``: both endpoint deficits agree.
* ``HalfPiBifurcation``: the entropy curvature at theta = pi/2 vanishes, where
  an interior extremum is born from or dies into that endpoint.
* ``ZeroBifurcationAxis``: the analogous theta = 0 condition, which exists
  only on the Cartesian axes.
* ``JumpBoundary``: the endpoint deficit ties the interior-minimum deficit,
  where the optimal angle hops by a finite step.
* ``BimodalityBirth``: an extremum pair appears out of an inflection point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    StateParams,
    endpoint_entropy_halfpi,
    endpoint_entropy_halfpi_grid,
    endpoint_entropy_zero,
    endpoint_entropy_zero_grid,
    s2_halfpi,
    s2_halfpi_grid,
    s2_zero_axis,
)
from .shape import ShapeClass, classify_shape, find_root, interior_minimum

SCAN_SAMPLES = 2048
Q1_TOL = 1e-7
BIRTH_Q1_TOL = 1e-5
CORNER_TOL = 1e-9

# Probe offsets used when hunting for a point inside the (narrow) window where
# the interior minimum exists; stepped downward from the window's upper end.
_PROBE_OFFSETS = (0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


class ConvergenceError(RuntimeError):
    """A boundary solve failed to converge."""


class BoundaryKind(enum.Enum):
    EQUAL_ENDPOINTS = "EqualEndpoints"
    HALFPI_BIFURCATION = "HalfPiBifurcation"
    ZERO_BIFURCATION_AXIS = "ZeroBifurcationAxis"
    JUMP_BOUNDARY = "JumpBoundary"
    BIMODALITY_BIRTH = "BimodalityBirth"


@dataclass(frozen=True)
class TrajectorySpec:
    """Straight scan path, either q1 + q2 = total or the axis q2 = 0.

    Diagonal paths scan q1 upward from the symmetric midpoint total/2; the
    axis path scans q1 over (0, 1).
    """

    total: float
    axis: bool = False

    def __post_init__(self):
        if not self.axis and not 0.0 < self.total <= 1.0:
            raise ValueError(f"trajectory total must lie in (0, 1], got {self.total}")

    @classmethod
    def on_axis(cls) -> "TrajectorySpec":
        return cls(total=1.0, axis=True)

    def state(self, q1: float) -> StateParams:
        if self.axis:
            return StateParams(q1, 0.0)
        return StateParams(q1, self.total - q1)

    def states(self, q1s) -> tuple[np.ndarray, np.ndarray]:
        """Array form of :meth:`state`: the (q1, q2) arrays of the path points.

        For q1s inside :meth:`q1_range`, where ``StateParams`` neither rejects
        nor clamps, ``q1[i]`` and ``q2[i]`` equal the fields of ``state(q1s[i])``.
        """
        q1 = np.asarray(q1s, dtype=float)
        return q1, (np.zeros_like(q1) if self.axis else self.total - q1)

    def q1_range(self) -> tuple[float, float]:
        if self.axis:
            return 1e-9, 1.0 - 1e-9
        return self.total / 2.0, min(self.total, 1.0)


@dataclass(frozen=True)
class BoundaryPoint:
    p: StateParams
    kind: BoundaryKind
    residual: float
    degenerate: bool = False  # trivial pure-state corner roots


@dataclass(frozen=True)
class JumpRecord:
    boundary: BoundaryPoint
    jump_angle: float  # optimal angle step from 0 to the interior minimizer


def _brackets(vals: np.ndarray) -> np.ndarray:
    """Indices i where samples i and i + 1 are both non-NaN and differ in sign.

    A bracket that straddles a NaN sample is never reported.
    """
    ok = ~np.isnan(vals)
    neg = vals < 0.0
    return np.flatnonzero(ok[:-1] & ok[1:] & (neg[:-1] != neg[1:]))


def _last_root(traj: TrajectorySpec, residual, residual_grid, lo: float, hi: float,
               samples: int = SCAN_SAMPLES) -> float | None:
    """Rightmost sign-change root on [lo, hi] of a residual along the path, or None.

    ``residual`` maps a ``StateParams`` to a float and ``residual_grid`` is its
    broadcast form over (q1, q2) arrays.  The scan samples the whole path as
    one array through ``residual_grid``; the root in the last bracket is then
    solved with the scalar ``residual``.  NaN samples (degenerate
    diagnostics) are skipped; brackets that straddle a NaN stretch are
    discarded rather than guessed at.
    """
    qs = np.linspace(lo, hi, samples)
    vals = residual_grid(*traj.states(qs))
    idx = _brackets(vals)
    if idx.size == 0:
        return None
    i = idx[-1]
    f = lambda q1: residual(traj.state(q1))
    return find_root(f, qs[i], qs[i + 1], vals[i], vals[i + 1], Q1_TOL)


def _scan_boundary(traj: TrajectorySpec, kind: BoundaryKind, residual, residual_grid,
                   lo: float, hi: float) -> BoundaryPoint | None:
    root = _last_root(traj, residual, residual_grid, lo, hi)
    if root is None:
        return None
    p = traj.state(root)
    return BoundaryPoint(
        p=p,
        kind=kind,
        residual=abs(residual(p)),
        degenerate=min(1.0 - p.q1, 1.0 - p.q2) < CORNER_TOL,
    )


def _equal_endpoints_gap(p: StateParams) -> float:
    return endpoint_entropy_zero(p) - endpoint_entropy_halfpi(p)


def _equal_endpoints_gap_grid(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    return endpoint_entropy_zero_grid(q1, q2) - endpoint_entropy_halfpi_grid(q1, q2)


def _halfpi_curvature(p: StateParams) -> float:
    val = s2_halfpi(p)
    return math.nan if val is None else val


def solve_equal_endpoints(traj: TrajectorySpec) -> BoundaryPoint | None:
    """Root of delta_0 = delta_halfpi along the path (largest q1 if several).

    The pre-measured entropy cancels from the difference, so the solve runs on
    the endpoint entropies alone.  Returns None when the gap does not change
    sign on the scanned range.
    """
    lo, hi = traj.q1_range()
    return _scan_boundary(traj, BoundaryKind.EQUAL_ENDPOINTS, _equal_endpoints_gap,
                          _equal_endpoints_gap_grid, lo, hi)


def solve_halfpi_boundary(traj: TrajectorySpec) -> BoundaryPoint | None:
    """Root of the theta = pi/2 curvature along the path."""
    lo, hi = traj.q1_range()
    # nudge off degenerate radii at range ends (origin, corners, midpoint of
    # the hypotenuse)
    return _scan_boundary(traj, BoundaryKind.HALFPI_BIFURCATION, _halfpi_curvature,
                          s2_halfpi_grid, lo + 1e-9, hi - 1e-9)


def zero_boundary_axis() -> list[BoundaryPoint]:
    """The four theta = 0 bifurcation points, two per Cartesian axis.

    The axis curvature vanishes exactly at weights 1/2 and 1; each point is
    reported with its direct residual.
    """
    points = []
    for q in (0.5, 1.0):
        residual = abs(s2_zero_axis(q))
        for p in (StateParams(q, 0.0), StateParams(0.0, q)):
            points.append(
                BoundaryPoint(
                    p=p,
                    kind=BoundaryKind.ZERO_BIFURCATION_AXIS,
                    residual=residual,
                    degenerate=q == 1.0,
                )
            )
    return points


def _find_window_probe(traj: TrajectorySpec, upper: float, lo: float,
                       predicate) -> float | None:
    """Point q1 in (lo, upper] where ``predicate`` holds, stepping down from upper.

    When every probe misses, falls back to a uniform 2048-point sweep and logs
    that at DEBUG level on this module's logger.
    """
    for off in _PROBE_OFFSETS:
        q = upper - off
        if q <= lo:
            break
        if predicate(traj.state(q)):
            return q
    # fall back to a uniform sweep of the whole half-trajectory; logging is
    # imported only here, which keeps it out of every CLI process's start-up
    import logging

    logging.getLogger(__name__).debug(
        "window probes missed on %s below q1 = %r; scanning %d points",
        traj, upper, SCAN_SAMPLES,
    )
    for q in np.linspace(upper, lo, SCAN_SAMPLES, endpoint=False):
        if predicate(traj.state(q)):
            return float(q)
    return None


def _predicate_onset(traj: TrajectorySpec, lo: float, hi_true: float, predicate,
                     xtol: float) -> tuple[float, float]:
    """Bisect the False -> True transition of ``predicate`` on [lo, hi_true].

    Returns the final bracket (last_false, first_true).
    """
    a, b = lo, hi_true
    while b - a > xtol:
        m = 0.5 * (a + b)
        if predicate(traj.state(m)):
            b = m
        else:
            a = m
    return a, b


def _window_upper_end(traj: TrajectorySpec) -> float:
    """Upper end of the interior-minimum window: the half-pi boundary if the
    path crosses it, otherwise the contact point with the Cartesian axis."""
    hp = solve_halfpi_boundary(traj)
    if hp is not None and not hp.degenerate:
        return hp.p.q1
    return min(traj.total, 1.0)


def solve_jump_boundary(traj: TrajectorySpec, grid_n: int = 1024) -> JumpRecord | None:
    """Boundary where the optimal angle hops from 0 to the interior minimizer.

    Solves delta_0 = delta_interior along the path over the window in which
    the interior minimum exists.  The window is located by probing downward
    from its analytic upper end and bisecting the onset of interior-minimum
    existence; a denser shape grid is used throughout because the minimum is
    shallow near its birth.  Returns None when the path carries no such
    window or the gap never changes sign (as happens above the intersection
    of the equal-endpoint and half-pi boundaries, where the interior phase is
    absent).
    """
    if traj.axis:
        raise ValueError("the jump boundary on the axis is the weight-1/2 point")
    lo, hi = traj.q1_range()
    if traj.total <= 0.5:
        return None
    upper = _window_upper_end(traj)

    exists = lambda p: interior_minimum(p, grid_n=grid_n) is not None
    probe = _find_window_probe(traj, upper, lo, exists)
    if probe is None:
        return None
    if exists(traj.state(lo)):
        return None  # no onset inside the scanned half; window is malformed
    _, first_true = _predicate_onset(traj, lo, probe, exists, Q1_TOL)

    def gap(q1: float) -> float:
        p = traj.state(q1)
        ext = interior_minimum(p, grid_n=grid_n)
        if ext is None:
            return math.nan
        return endpoint_entropy_zero(p) - ext.value

    g_lo = gap(first_true)
    g_hi = gap(probe)
    if math.isnan(g_lo) or math.isnan(g_hi) or (g_lo < 0.0) == (g_hi < 0.0):
        return None
    root = find_root(gap, first_true, probe, g_lo, g_hi, 1e-9)
    p = traj.state(root)
    ext = interior_minimum(p, grid_n=2 * grid_n)
    if ext is None:
        raise ConvergenceError(f"interior minimum lost at the jump root ({p.q1}, {p.q2})")
    return JumpRecord(
        boundary=BoundaryPoint(
            p=p, kind=BoundaryKind.JUMP_BOUNDARY, residual=abs(gap(root))
        ),
        jump_angle=ext.theta,
    )


def bimodality_birth(traj: TrajectorySpec, grid_n: int = 512) -> BoundaryPoint | None:
    """Path point where an extremum pair is born out of an inflection.

    Bisects the onset of the bimodal classification to a resolution-limited
    tolerance of 1e-5 in q1.  The stored residual is the width of the final
    onset bracket, since the defining condition is a classification flip
    rather than an equation value.
    """
    if traj.axis:
        return None  # on the axis extrema appear by endpoint bifurcation instead
    lo, hi = traj.q1_range()
    if traj.total <= 0.5:
        return None
    upper = _window_upper_end(traj)

    def is_bimodal(p: StateParams) -> bool:
        return classify_shape(p, grid_n=grid_n).shape_class is ShapeClass.BIMODAL

    candidates = []
    eq = solve_equal_endpoints(traj)
    if eq is not None and not eq.degenerate:
        candidates.append(eq.p.q1)
    probe = None
    for q in candidates:
        if lo < q < upper and is_bimodal(traj.state(q)):
            probe = q
            break
    if probe is None:
        probe = _find_window_probe(traj, upper, lo, is_bimodal)
    if probe is None:
        return None
    if is_bimodal(traj.state(lo)):
        return None
    last_false, first_true = _predicate_onset(
        traj, lo, probe, is_bimodal, BIRTH_Q1_TOL
    )
    return BoundaryPoint(
        p=traj.state(first_true),
        kind=BoundaryKind.BIMODALITY_BIRTH,
        residual=first_true - last_false,
    )


def curves_intersection(t_lo: float = 0.70, t_hi: float = 0.80) -> StateParams:
    """Intersection of the equal-endpoint and half-pi boundary curves.

    Nested root solve over trajectory totals: at each total both boundaries
    are solved along the path, and ``find_root`` drives their q1 separation
    to zero from a 21-point scan of the totals.
    Returns the intersection on the q1 > q2 side; the mirror follows by
    symmetry.  Raises ConvergenceError when no separation sign change is
    bracketed.
    """

    def separation(t: float) -> float:
        traj = TrajectorySpec(t)
        eq = solve_equal_endpoints(traj)
        hp = solve_halfpi_boundary(traj)
        if eq is None or hp is None:
            return math.nan
        return eq.p.q1 - hp.p.q1

    ts = np.linspace(t_lo, t_hi, 21)
    vals = np.array([separation(t) for t in ts])
    idx = _brackets(vals)
    if idx.size == 0:
        raise ConvergenceError("no sign change of the boundary separation found")
    i = idx[0]
    t_star = find_root(separation, ts[i], ts[i + 1], vals[i], vals[i + 1], xtol=1e-8)
    eq = solve_equal_endpoints(TrajectorySpec(t_star))
    if eq is None:
        raise ConvergenceError("equal-endpoint boundary lost at the intersection total")
    return eq.p


_TABLE_TOTALS = (0.55, 0.60, 0.65, 0.70, 0.75)


def jump_angle_table() -> list[JumpRecord]:
    """Jump angles along the boundary between the endpoint and interior phases.

    Seven records: the axis limit (0.5, 0) where the hop shrinks to zero,
    five trajectory solves, and the intersection limit where the hop spans
    the whole quarter turn.  The limit rows are analytic and carry their
    defining residuals directly.
    """
    rows = [
        JumpRecord(
            boundary=BoundaryPoint(
                p=StateParams(0.5, 0.0),
                kind=BoundaryKind.JUMP_BOUNDARY,
                residual=abs(s2_zero_axis(0.5)),
            ),
            jump_angle=0.0,
        )
    ]
    for total in _TABLE_TOTALS:
        rec = solve_jump_boundary(TrajectorySpec(total))
        if rec is None:
            raise ConvergenceError(f"no jump boundary found on total {total}")
        rows.append(rec)
    p_star = curves_intersection()
    residual = abs(endpoint_entropy_zero(p_star) - endpoint_entropy_halfpi(p_star))
    rows.append(
        JumpRecord(
            boundary=BoundaryPoint(
                p=p_star, kind=BoundaryKind.JUMP_BOUNDARY, residual=residual
            ),
            jump_angle=math.pi / 2.0,
        )
    )
    return rows
