"""Phase-boundary location by one-dimensional root finding.

All boundaries are found along straight scan paths: either the Cartesian axis
q2 = 0 or diagonal trajectories q1 + q2 = const, mirroring how the parameter
triangle is naturally swept.  The equal-endpoint and half-pi boundaries are
bracketing scans followed by ``shape.find_root``, a bracketed superlinear
(Brent) root solver that never needs more than a few evaluations beyond
bisection.  These scans sample the whole path as one array through the
broadcast endpoint forms of ``core`` (``TrajectorySpec.states``); only the
root solve in the last bracket evaluates the scalar forms point by point.
The jump boundary and the intersection of the equal-endpoint and half-pi
curves are Newton-type solves on the scalar closed forms of ``core``: the
jump gap is driven to a sign change by Newton steps in q1, tracking the
interior minimizer as a warm-started root of dS/dtheta, and the
intersection is one 2x2 Newton system in (q1, q2).  No residual uses the
entropy curvature at theta = 0, which diverges off the axes.

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
    post_entropy,
    post_entropy_slope,
    s2_halfpi,
    s2_halfpi_grid,
    s2_zero_axis,
)
from .shape import (
    ENDPOINT_MARGIN,
    HALF_PI,
    ShapeClass,
    classify_shape,
    find_root,
    interior_minimum,
)

SCAN_SAMPLES = 2048
Q1_TOL = 1e-7
BIRTH_Q1_TOL = 1e-5
CORNER_TOL = 1e-9

# Newton solves of the jump gap and the curve intersection: the step cap,
# and the step of their central differences.
_NEWTON_STEPS = 30
_FD_STEP = 1e-6

# Initial half-width (radians) of the bracket around the previous minimizer
# in which the jump solve looks for the next one, and the minimizer's tolerance.
_WALK_WIDTH = 1e-3
_THETA_TOL = 1e-10

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


def _window_upper_end(traj: TrajectorySpec) -> tuple[float, float | None]:
    """Upper end of the interior-minimum window, where its probes start, and
    the half-pi root of the path (None if the path does not cross it).

    The upper end is the contact point with the Cartesian axis, or, if the
    path crosses the half-pi boundary, the smallest probe offset below that
    root: on the boundary itself the extremum sits at theta = pi/2, so a
    probe there always misses, after a classification whose grid doubles to
    its cap on the vanishing curvature.
    """
    hp = solve_halfpi_boundary(traj)
    if hp is not None and not hp.degenerate:
        return hp.p.q1 - _PROBE_OFFSETS[1], hp.p.q1
    return min(traj.total, 1.0), None


def _minimizer_near(p: StateParams, theta0: float) -> float:
    """Interior minimizer of the entropy curve near ``theta0``, or NaN if it is gone.

    The root of dS/dtheta, bracketed by a walk from a small bracket around
    theta0: while the slope has one sign at both ends, the bracket moves
    downhill, to the side where the minimum lies, by steps that double.
    NaN when the bracket holds a maximum instead (slope positive, then
    negative), or when the walk reaches ``ENDPOINT_MARGIN`` of an end of
    [0, pi/2], where ``classify_shape`` merges an extremum into the
    endpoint.  A bracket over which the slope runs from negative to positive
    holds the one interior minimum of the curve, since the curve carries at
    most one minimum and one maximum.
    """
    lo_end, hi_end = ENDPOINT_MARGIN, HALF_PI - ENDPOINT_MARGIN
    slope = lambda t: post_entropy_slope(p, t)
    w = _WALK_WIDTH
    a, b = max(theta0 - w, lo_end), min(theta0 + w, hi_end)
    sa, sb = slope(a), slope(b)
    while not (sa <= 0.0 <= sb and sa < sb):
        if sa >= 0.0 >= sb:
            return math.nan
        w *= 2.0
        if sb < 0.0:  # falling at both ends: the minimum lies to the right
            if b == hi_end:
                return math.nan
            a, sa = b, sb
            b = min(b + w, hi_end)
            sb = slope(b)
        else:  # rising at both ends: the minimum lies to the left
            if a == lo_end:
                return math.nan
            b, sb = a, sa
            a = max(a - w, lo_end)
            sa = slope(a)
    return find_root(slope, a, b, sa, sb, _THETA_TOL)


def solve_jump_boundary(traj: TrajectorySpec, grid_n: int = 1024) -> JumpRecord | None:
    """Boundary where the optimal angle hops from 0 to the interior minimizer.

    Solves the 2x2 system {S'(theta) = 0, S(theta) = S(0)} in (q1, theta)
    with theta eliminated: the root of the gap g(q1) = S(0) - S(theta*)
    along the path, theta* being the interior minimizer.  One shape
    classification finds a window probe just below the window's analytic
    upper end, where the minimum exists.  Newton steps in q1 then drive g to
    a sign change, and ``shape.find_root`` polishes the bracket to 1e-9.
    Each gap evaluation finds theta* with :func:`_minimizer_near`,
    warm-started from the last one.  By the envelope theorem the Newton
    slope dg/dq1 is the q1-derivative at fixed theta*, taken as a central
    difference (S(0) is constant along the path).  A step into the region
    where the minimum is gone is halved, and no step is shorter than the
    tolerance, so a one-sided approach still crosses the root.

    A gap negative at the probe means the root lies above it.  Just below
    the intersection of the equal-endpoint and half-pi boundaries it lies
    between the probe and the half-pi root, where the minimizer merges into
    pi/2 and the gap becomes S(0) - S(pi/2): when that end gap is positive,
    ``shape.find_root`` solves the bracket directly, with the end gap
    standing in wherever the minimum has already merged.

    Returns None when the path carries no window, when the gap is negative
    at the probe and not positive at the half-pi root (above the
    intersection, where the interior phase is absent), or when the minimum
    vanishes before the gap changes sign.  Raises ConvergenceError after a
    fixed number of Newton steps, or when a classification at twice
    ``grid_n`` finds no interior minimum at the root.
    """
    if traj.axis:
        raise ValueError("the jump boundary on the axis is the weight-1/2 point")
    lo, hi = traj.q1_range()
    if traj.total <= 0.5:
        return None
    upper, hp_root = _window_upper_end(traj)

    minima = []  # interior minimum at each window probe; the last is the probe's

    def exists(p: StateParams) -> bool:
        minima.append(interior_minimum(p, grid_n=grid_n))
        return minima[-1] is not None

    probe = _find_window_probe(traj, upper, lo, exists)
    if probe is None:
        return None
    theta = minima[-1].theta

    def gap(q1: float) -> float:
        nonlocal theta
        if not lo < q1 <= hi:
            return math.nan
        p = traj.state(q1)
        t = _minimizer_near(p, theta)
        if math.isnan(t):
            return math.nan
        theta = t
        return endpoint_entropy_zero(p) - post_entropy(p, t)

    def gap_slope(q1: float) -> float:
        # d/dq1 of -S(theta*) at the theta* of the last gap evaluation
        a, b = max(q1 - _FD_STEP, lo), min(q1 + _FD_STEP, hi)
        return (post_entropy(traj.state(a), theta) - post_entropy(traj.state(b), theta)) / (b - a)

    def gap_to_end(q1: float) -> float:
        # the gap, continued by S(0) - S(pi/2) where the minimum has merged
        g = gap(q1)
        return _equal_endpoints_gap(traj.state(q1)) if math.isnan(g) else g

    xtol = 1e-9
    q, g = probe, gap(probe)
    if math.isnan(g):
        raise ConvergenceError(f"interior minimum lost at the window probe q1 = {probe!r} on {traj}")
    if g < 0.0:
        g_end = math.nan if hp_root is None else _equal_endpoints_gap(traj.state(hp_root))
        if not g_end > 0.0:
            return None
        root = find_root(gap_to_end, probe, hp_root, g, g_end, xtol)
    else:
        for _ in range(_NEWTON_STEPS):
            # g > 0 here: the probe's gap, or one of the same sign
            if g == 0.0:
                root = q
                break
            step = -g / gap_slope(q)
            step = math.copysign(max(abs(step), xtol), step)
            g_new = gap(q + step)
            while math.isnan(g_new):
                step *= 0.5
                if abs(step) < xtol:
                    return None  # the minimum vanishes before the gap changes sign
                g_new = gap(q + step)
            if g_new < 0.0:
                root = find_root(gap, q, q + step, g, g_new, xtol)
                break
            q, g = q + step, g_new
        else:
            raise ConvergenceError(f"jump gap on {traj} kept its sign over {_NEWTON_STEPS} Newton steps")
    p = traj.state(root)
    ext = interior_minimum(p, grid_n=2 * grid_n)
    if ext is None:
        raise ConvergenceError(f"interior minimum lost at the jump root ({p.q1}, {p.q2})")
    return JumpRecord(
        boundary=BoundaryPoint(
            p=p, kind=BoundaryKind.JUMP_BOUNDARY, residual=abs(gap_to_end(root))
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
    upper, _ = _window_upper_end(traj)

    def is_bimodal(p: StateParams) -> bool:
        return classify_shape(p, grid_n=grid_n).shape_class is ShapeClass.BIMODAL

    def candidates():
        # landmarks that tend to lie in the window, each solved only if the
        # one before it misses: the equal-endpoint root, then the jump root
        eq = solve_equal_endpoints(traj)
        if eq is not None and not eq.degenerate:
            yield eq.p.q1
        jump = solve_jump_boundary(traj)
        if jump is not None:
            yield jump.boundary.p.q1

    probe = next(
        (q for q in candidates() if lo < q < upper and is_bimodal(traj.state(q))), None
    )
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


def _intersection_residuals(q: np.ndarray) -> np.ndarray:
    p = StateParams(q[0], q[1])
    return np.array([_equal_endpoints_gap(p), _halfpi_curvature(p)])


def curves_intersection(t_lo: float = 0.70, t_hi: float = 0.80) -> StateParams:
    """Intersection of the equal-endpoint and half-pi boundary curves.

    Newton's method on the 2x2 system {S(0) = S(pi/2), S''(pi/2) = 0} in
    (q1, q2), with a central-difference Jacobian, seeded at the half-pi root
    of the path q1 + q2 = (t_lo + t_hi) / 2.  Returns the intersection on the
    q1 > q2 side; the mirror follows by symmetry.  Raises ConvergenceError
    when the seed path has no half-pi root, an iterate leaves the triangle,
    the steps have not shrunk below 1e-14 after a fixed number of them, or
    the result lies on the q1 < q2 side or off the totals [t_lo, t_hi].
    """
    seed = solve_halfpi_boundary(TrajectorySpec(0.5 * (t_lo + t_hi)))
    if seed is None or seed.degenerate:
        raise ConvergenceError(f"no half-pi root to seed the intersection on [{t_lo}, {t_hi}]")
    q = np.array([seed.p.q1, seed.p.q2])
    for _ in range(_NEWTON_STEPS):
        # the Jacobian's points must lie inside too; written so NaN fails it
        if not (q.min() >= _FD_STEP and q.sum() <= 1.0 - _FD_STEP):
            raise ConvergenceError(f"intersection Newton left the triangle at ({q[0]}, {q[1]})")
        jac = np.column_stack([
            (_intersection_residuals(q + e) - _intersection_residuals(q - e)) / (2.0 * _FD_STEP)
            for e in _FD_STEP * np.eye(2)
        ])
        dq = np.linalg.solve(jac, _intersection_residuals(q))
        q = q - dq
        if np.abs(dq).max() <= 1e-14:
            break
    else:
        raise ConvergenceError(f"intersection Newton did not converge in {_NEWTON_STEPS} steps")
    p = StateParams(q[0], q[1])
    if p.q1 < p.q2 or not t_lo <= p.q1 + p.q2 <= t_hi:
        raise ConvergenceError(
            f"intersection Newton landed at ({p.q1}, {p.q2}), off q1 >= q2 with total in [{t_lo}, {t_hi}]"
        )
    return p


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
