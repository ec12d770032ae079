"""Phase-boundary location by one-dimensional root finding.

All boundaries are found along straight scan paths: the Cartesian axis
q2 = 0 or a diagonal q1 + q2 = const.  Every root, in q1 or in the total,
is solved to the one tolerance ``Q1_TOL``: a single path's by
``shape.find_root``, Chandrupatla's bracketed method, and a fan of diagonal
paths at once by array solves (below), one of them ``shape.find_roots``,
the same rule on arrays of brackets.

* The equal-endpoint and half-pi boundaries are each one bracket over the
  whole path (``_bracket_root``): each residual changes sign at most once
  per path, so the two ends of the path bracket its root.  The
  equal-endpoint gap is monotone in q1 on a diagonal by construction
  (:func:`solve_equal_endpoints`); the half-pi curvature on every path, and
  both residuals on the axis, are checked to change sign at most once by
  sampling: at 4097 points on the totals k/1000 in
  ``tests/test_boundaries.py``, and at 8193 points on the totals k/5000 in
  a CI step.
* Over a fan of diagonal paths, :func:`boundary_fan` solves the two
  curves as arrays over every total at once, after the axis root of the
  per-path solve.  The equal-endpoint roots take one inversion of the
  binary entropy: on a diagonal S(0) depends on the total alone and
  S(pi/2) on the radius alone.  The half-pi roots take one
  ``shape.find_roots`` solve, on all the paths' brackets together, of the
  array S'' ``core.curvature_curve``.
  Every root lies within ``Q1_TOL`` of the per-path one, which stays the
  per-path API and the tests' reference.
* Their intersection p*, on the total t*, is one more bracket, in the
  total of the path (:func:`curves_intersection`).
* The per-path jump and the bimodality birth are Newton-type solves on the
  scalar closed forms of ``core``, and take no slope row.  They share one
  tracked Newton solve (``_tracked_root``) and one start
  (``_window_minimum``) near the upper end of the interior-minimum window.
  The jump drives the gap S(0) - S(theta*) (``core._jump_gap``) to a sign
  change, theta* being the interior minimizer, a root of the deflated
  slope S'(theta) / cos(theta) (``_deflated_slope``), which is finite and
  signed at pi/2, so theta* is tracked up to pi/2 itself.  The birth drives
  the fold value S'(theta_i) to a sign change, theta_i being the
  inflection, a root of d2S/dtheta2.  Toward total 1/2 the window closes
  on the axis point (0.5, 0): on the total 1/2 + eps, eps up to 1e-5, the
  birth lies only 1.3e-4 eps to 4.4e-4 eps above the jump in q2.  So both
  solve to a tolerance scaled to the window, min(Q1_TOL,
  ``_WINDOW_SCALE`` eps) in q1 (``_window_tol``), down to the bottom
  eps = 4.4e-11, where that tolerance meets the float resolution of q1;
  at and below it they raise ConvergenceError naming it.  Toward t* the
  jump angle closes on pi/2, and within ``_JUMP_TOP_REACH`` below t* the
  per-path jump raises where it finds no root.
* The jump boundary as a whole is :func:`jump_curve`: its two analytic
  ends, (0.5, 0) and p*, which stand in for the totals at the bottom and
  within the top reach, and between them one root per total, continued
  from the last two: a secant predictor, then Newton's method on the 2x2
  system {S' = 0, S(0) - S(theta) = 0} in (q1, theta), its Jacobian from
  S'', the closed form dG/dq1 (``core._jump_gap_dq1``) and a difference
  of S' in q1, each root certified by a sign change of the tracked gap
  within half its tolerance (``_corrected_jump``).  The per-path solve
  stands in wherever that corrector fails.  The jump-angle table
  (:func:`jump_angle_table`) and the traced jump polyline
  (``diagram.trace_boundaries``) are that one curve on their own totals.

Every d2S/dtheta2 here, in the fold, in the half-pi residual S''(pi/2), in
the deflated slope beside pi/2 and at theta = 0 on the axes, is the one
closed form ``core.post_entropy_curvature``, or its array twin
``core.curvature_curve`` in the half-pi fan; off the axes it diverges at
theta = 0, and no residual reads it there.

Boundary kinds:

* ``EqualEndpoints``: both endpoint deficits agree.
* ``HalfPiBifurcation``: the entropy curvature at theta = pi/2 vanishes, where
  an interior extremum is born from or dies into that endpoint.
* ``ZeroBifurcationAxis``: the analogous theta = 0 condition, which exists
  only on the Cartesian axes.
* ``JumpBoundary``: the endpoint deficit ties the interior-minimum deficit,
  where the optimal angle hops by a finite step.
* ``BimodalityBirth``: an extremum pair appears out of an inflection point,
  a fold of dS/dtheta where S' = 0 and S'' = 0 hold together.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    StateParams,
    _jump_gap,
    _jump_gap_dq1,
    curvature_curve,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    post_entropy_curvature,
    post_entropy_slope,
)
from .shape import ENDPOINT_MARGIN, HALF_PI, REFINE_TOL, ROOT_RESOLUTION, find_root, find_roots

# Tolerance of every boundary root, in q1 and in the total of the curve intersection.
Q1_TOL = 1e-9
CORNER_TOL = 1e-9

# Step cap of the Newton solves of the jump gap and the fold, and of the
# continued jump curve's corrector.
_NEWTON_STEPS = 30

# Newton steps of the binary entropy inversion of the equal-endpoint fan: on
# every total, the fifth step is at the rounding floor (below 1e-16), and
# the sixth is the margin (tests/test_boundaries.py scans the totals).
_INVERSION_STEPS = 6

# Step in q1 of the central differences that give ``_tracked_root`` its
# envelope slope and ``_corrected_jump`` its dS'/dq1.
_FD_STEP = 1e-6

# Totals that bracket the intersection of the equal-endpoint and half-pi curves.
_INTERSECTION_TOTALS = (0.70, 0.80)

# Offset in q1 below the half-pi root at which the per-path jump solve
# starts.  Near the curve intersection t* the jump root lies 0.0822 (t* - t)
# below that root, and no Newton step is shorter than Q1_TOL: a start
# Q1_TOL below the root leaves the steps no room there, and the solve
# returns None on every total from t* - 1e-8 up.
_JUMP_OFFSET = 1e-4

# Scale of the root tolerance of the jump and the birth on the total
# 1/2 + eps, min(Q1_TOL, _WINDOW_SCALE * eps) in q1 (``_window_tol``).  No
# Newton step is shorter than that tolerance, and a step that overshoots
# the birth lands where the minimum has vanished, so the tolerance must lie
# well below the birth-jump separation.  That falls with eps: 4.42e-4 eps
# in q2 at eps = 1e-5, 2.52e-4 eps at 1e-7, 1.64e-4 eps at 1e-9 and
# 1.27e-4 eps at the bottom, 4.4e-11.  The scale is a tenth of the least,
# rounded down to a power of ten; 1e-4, a safety factor of ~1.5, fails on
# eps <= 6.3e-9.
_WINDOW_SCALE = 1e-5

# Top reach of the per-path jump solve: on totals t* - d with d at or below
# it the solve may find no root, and then raises ConvergenceError naming
# it.  Twice the largest d on which the solve without this rule returned
# None in a scan of 2000 log-spaced d in [1e-17, 1e-11], rounded up:
# 2.89e-15, 26 ulps of t*.
_JUMP_TOP_REACH = 6e-15

# Initial half-width (radians) of the bracket around the previous minimizer
# in which the boundary solves look for the next one, at most half the
# previous angle.
_WALK_WIDTH = 1e-3

# Within this distance (radians) of pi/2 the deflated slope S'/cos theta is a
# quadrature of S'' instead of the quotient, whose two factors vanish there.
_DEFLATION_BAND = 1e-2

# The 3-point Gauss-Legendre rule on [0, 1]: (node, weight) pairs.
_GAUSS_3 = ((0.5 - 0.15**0.5, 5.0 / 18.0), (0.5, 4.0 / 9.0), (0.5 + 0.15**0.5, 5.0 / 18.0))


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

    def q1_range(self) -> tuple[float, float]:
        if self.axis:
            return 1e-9, 1.0 - 1e-9
        return self.total / 2.0, self.total


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


def _bracket_root(f, lo: float, hi: float, xtol: float = Q1_TOL) -> float | None:
    """Root on [lo, hi] of ``f``, which changes sign at most once there, or None.

    The two ends bracket the root if there is one, and ``shape.find_root``
    solves it to ``xtol``.  None when the ends do not satisfy lo < hi, as
    ``shape.find_roots`` takes crossing ends, when either end is NaN, or
    when both ends have the same sign, a zero counting as non-negative.
    """
    if not lo < hi:
        return None
    fa, fb = f(lo), f(hi)
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        return None
    return find_root(f, lo, hi, fa, fb, xtol)


def _path_boundary(traj: TrajectorySpec, kind: BoundaryKind, residual,
                   lo: float, hi: float) -> BoundaryPoint | None:
    root = _bracket_root(lambda q1: residual(traj.state(q1)), lo, hi)
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


def _halfpi_curvature(p: StateParams) -> float:
    # S''(pi/2) in bits
    return post_entropy_curvature(p, HALF_PI)


def solve_equal_endpoints(traj: TrajectorySpec) -> BoundaryPoint | None:
    """Root of delta_0 = delta_halfpi along the path.

    The pre-measured entropy cancels from the difference, so the solve runs on
    the endpoint entropies alone.  On a diagonal the gap S(0) - S(pi/2) is
    monotone in q1, so it changes sign at most once: S(0) depends on
    q1 + q2 alone and is constant along the path, while
    S(pi/2) = 1 + h((1 + r)/2) with r = hypot(1 - total, 2 q1 - total); on
    [total/2, total] r rises with q1, and h((1 + r)/2) falls as r rises.
    On the axis the gap is checked, by sampling, to change sign once.
    Returns None when the gap does not change sign between the ends of the
    path.
    """
    lo, hi = traj.q1_range()
    return _path_boundary(traj, BoundaryKind.EQUAL_ENDPOINTS, _equal_endpoints_gap, lo, hi)


def solve_halfpi_boundary(traj: TrajectorySpec) -> BoundaryPoint | None:
    """Root of the theta = pi/2 curvature along the path.

    None where the curvature does not change sign between the path's ends,
    each nudged 1e-9 inward, and on a diagonal too short for the two nudges
    (a total of about 4e-9 and below), which holds no root.
    """
    lo, hi = traj.q1_range()
    # nudge off degenerate radii at range ends (origin, corners, midpoint of
    # the hypotenuse)
    lo, hi = lo + 1e-9, hi - 1e-9
    if lo >= hi:
        return None
    return _path_boundary(traj, BoundaryKind.HALFPI_BIFURCATION, _halfpi_curvature, lo, hi)


def _binary_entropy_bits(x: np.ndarray) -> np.ndarray:
    # h(x) in bits over an array of x in (0, 1)
    return -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))


def _equal_endpoint_roots(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q1, |S(0) - S(pi/2)|) at the equal-endpoint root of each diagonal
    q1 + q2 = t[k], both NaN where the path has none.

    S(0) = t + h(t) depends on t alone and S(pi/2) = 1 + h((1 + r)/2) on
    the radius r alone (:func:`solve_equal_endpoints`), so the root has
    h(p) = y = h(t) - (1 - t) with p = (1 - r)/2 in (0, 1/2): one inversion
    of the binary entropy h for every path.  ``_INVERSION_STEPS`` Newton
    steps on the concave h climb to p from below, from the p of Topsoe's
    bound h(p) <= (4p(1 - p))^(1/ln 4) (*J. Inequal. Pure Appl. Math.* 2,
    2001).  Then q1 = (t + sqrt(r^2 - (1 - t)^2))/2, with
    r - (1 - t) = t - 2p, lies on the path [t/2, t] where r > 1 - t and
    q1 <= t: the signs of the gap at the two ends that the per-path bracket
    tests.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # the lanes without a root
        y = _binary_entropy_bits(t) - (1.0 - t)
        z = np.where(y > 0.0, y, math.nan) ** math.log(4.0)
        p = z / (2.0 * (1.0 + np.sqrt(1.0 - z)))
        for _ in range(_INVERSION_STEPS):
            p = p + (y - _binary_entropy_bits(p)) / np.log2((1.0 - p) / p)
        q1 = 0.5 * (t + np.sqrt((t - 2.0 * p) * (2.0 - t - 2.0 * p)))
        q1 = np.where((t - 2.0 * p > 0.0) & (q1 <= t), q1, math.nan)
    q2 = t - q1  # the gap at the path state, as the per-path residual takes it
    s, r = q1 + q2, np.hypot(1.0 - (q1 + q2), q1 - q2)
    return q1, np.abs((s + _binary_entropy_bits(s)) - (1.0 + _binary_entropy_bits(0.5 * (1.0 + r))))


def _halfpi_roots(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q1, |S''(pi/2)|) at the half-pi root of each diagonal q1 + q2 = t[k],
    both NaN where the path has none.

    One ``shape.find_roots`` solve of ``core.curvature_curve`` at pi/2
    over the per-path brackets [t/2 + 1e-9, t - 1e-9]
    (:func:`solve_halfpi_boundary`).  The pair form of S''(pi/2) is finite
    on every radius, 0 and 1 included, so every lane is solved as its path
    is; a path too short for the two nudges, whose ends cross, brackets no
    root on either.
    """
    q1 = find_roots(lambda q1, k: curvature_curve(q1, t[k] - q1, HALF_PI),
                    0.5 * t + 1e-9, t - 1e-9, Q1_TOL)
    return q1, np.abs(curvature_curve(q1, t - q1, HALF_PI))


_FANS = {BoundaryKind.EQUAL_ENDPOINTS: (solve_equal_endpoints, _equal_endpoint_roots),
         BoundaryKind.HALFPI_BIFURCATION: (solve_halfpi_boundary, _halfpi_roots)}


def boundary_fan(kind: BoundaryKind, totals: Iterable[float]) -> list[BoundaryPoint]:
    """The equal-endpoint or half-pi boundary over the paths q1 + q2 = t of ``totals``.

    The axis root of the per-path solver, then the non-degenerate root
    (``CORNER_TOL``) of each diagonal, in the order of ``totals``: the
    points of :func:`solve_equal_endpoints` or :func:`solve_halfpi_boundary`
    on the same paths, each within ``Q1_TOL`` in q1 of the per-path root.
    The diagonals are solved as one array problem: the equal-endpoint roots
    by one inversion of the binary entropy (``_equal_endpoint_roots``), the
    half-pi roots by one ``shape.find_roots`` solve of
    ``core.curvature_curve`` (``_halfpi_roots``), and each residual is
    |residual| at the root from the same arrays.  Totals lie in (0, 1]
    (ValueError otherwise); another kind raises KeyError.
    """
    solver, roots = _FANS[kind]
    t = np.array(totals, dtype=float)
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise ValueError("trajectory totals must lie in (0, 1]")
    axis = solver(TrajectorySpec.on_axis())
    q1, residual = roots(t)
    q2 = t - q1
    # StateParams keeps (q1, q2) as they are on the path; NaN fails the test
    keep = np.flatnonzero(np.minimum(1.0 - q1, 1.0 - q2) >= CORNER_TOL)
    points = zip(q1[keep].tolist(), q2[keep].tolist(), residual[keep].tolist())
    return ([] if axis is None else [axis]) + [
        BoundaryPoint(p=StateParams(a, b), kind=kind, residual=r) for a, b, r in points]


def zero_boundary_axis() -> list[BoundaryPoint]:
    """The four theta = 0 bifurcation points, two per Cartesian axis.

    The axis curvature S''(0) vanishes exactly at weights 1/2 and 1; each
    point is reported with its direct residual.
    """
    points = []
    for q in (0.5, 1.0):
        residual = abs(post_entropy_curvature(StateParams(q, 0.0), 0.0))
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


def _deflated_slope(p: StateParams, theta: float) -> float:
    """The deflated slope D = S'(theta) / cos(theta), finite and signed up to pi/2.

    S' is odd about pi/2, so it carries the factor cos theta, and D keeps
    the sign of S' on (0, pi/2) while its end value D(pi/2) = -S''(pi/2)
    is the half-pi curvature with its sign flipped: an interior minimum
    merges into pi/2 exactly where D(pi/2) changes sign.  Beyond
    ``_DEFLATION_BAND`` of pi/2, D is the quotient itself.
    Inside it, where S' and cos theta both vanish, D comes from S'' alone:
    S'(pi/2) = 0 gives S'(theta) = -x * integral of S''(pi/2 - u x) over
    u in [0, 1], with x = pi/2 - theta and cos theta = sin x, and a 3-point
    Gauss-Legendre rule takes the integral of the even, smooth S''.
    """
    x = HALF_PI - theta
    if x >= _DEFLATION_BAND:
        return post_entropy_slope(p, theta) / math.cos(theta)
    if x == 0.0:
        return -post_entropy_curvature(p, HALF_PI)
    mean = sum(w * post_entropy_curvature(p, HALF_PI - u * x) for u, w in _GAUSS_3)
    return -x / math.sin(x) * mean


def _minimizer_near(deriv, p: StateParams, theta0: float) -> float:
    """Interior minimizer near ``theta0`` of a function of the angle, or NaN if it is gone.

    ``deriv(p, theta)`` has the sign of the function's derivative at state
    p; the minimizer is its root, bracketed by a walk from a small bracket
    around theta0: while deriv has one sign at both ends, the bracket moves
    downhill, to the side where the minimum lies, by steps that double.  The
    walk reaches pi/2 itself, so deriv must be finite and signed there:
    :func:`_deflated_slope` is, and S' is not, since it vanishes at pi/2 for
    every state.  NaN when the bracket holds a maximum instead (deriv
    positive, then negative), when the walk reaches pi/2 still falling (the
    minimum has merged into that endpoint), or when it reaches 1e-12 rad
    above 0, the least angle at which the pair-form slope is checked to keep
    its sign (against 60 digits, in CI).  With ``_deflated_slope`` as deriv
    this tracks the interior minimum of the entropy curve, which carries at
    most one; with ``post_entropy_curvature`` it tracks the inflection at
    which dS/dtheta is least.
    """
    lo_end, hi_end = 1e-12, HALF_PI
    deriv = functools.partial(deriv, p)
    w = min(_WALK_WIDTH, 0.5 * theta0)
    a, b = max(theta0 - w, lo_end), min(theta0 + w, hi_end)
    sa, sb = deriv(a), deriv(b)
    while not (sa <= 0.0 <= sb and sa < sb):
        if sa >= 0.0 >= sb:
            return math.nan
        w *= 2.0
        if sb < 0.0:  # falling at both ends: the minimum lies to the right
            if b == hi_end:
                return math.nan
            a, sa = b, sb
            b = min(b + w, hi_end)
            sb = deriv(b)
        else:  # rising at both ends: the minimum lies to the left
            if a == lo_end:
                return math.nan
            b, sb = a, sa
            a = max(a - w, lo_end)
            sa = deriv(a)
    return find_root(deriv, a, b, sa, sb, REFINE_TOL)


def _window_minimum(traj: TrajectorySpec, offset: float) -> tuple[float, float] | None:
    """(q1, theta_min) where the per-path solves of a diagonal path start, or None.

    q1 lies at the upper end of the interior-minimum window: the contact
    point with the Cartesian axis or, if the path crosses the half-pi
    boundary, ``offset`` in q1 below that root, where the minimum sits at
    theta = pi/2.  theta_min is the interior minimizer there, found by the
    walk of the deflated slope (:func:`_deflated_slope`) down from pi/2
    (:func:`_minimizer_near`).  None when that walk finds no minimum: the
    path carries no window.  The walk's first steps double from 1e-3 rad, so
    it can step over a minimum far below pi/2 together with its maximum; it
    does so only above t*, where the jump has no root either way.
    """
    hp = solve_halfpi_boundary(traj)
    q1 = hp.p.q1 - offset if hp is not None and not hp.degenerate else traj.total
    theta = _minimizer_near(_deflated_slope, traj.state(q1), HALF_PI)
    return None if math.isnan(theta) else (q1, theta)


def _window_tol(total: float) -> float:
    """Root tolerance in q1 of the jump and the birth on the path of ``total``.

    min(Q1_TOL, _WINDOW_SCALE (total - 1/2)), or 0 where that is at or
    below the float resolution ``shape.ROOT_RESOLUTION`` q1 = 4 eps q1 of
    ``shape.find_root`` on q1 <= total: at and below the bottom
    total - 1/2 = 4 eps total / _WINDOW_SCALE, 4.4e-11.
    """
    tol = min(Q1_TOL, _WINDOW_SCALE * (total - 0.5))
    return tol if tol > ROOT_RESOLUTION * total else 0.0


def _tracked_root(traj: TrajectorySpec, deriv, value, theta0: float, q: float,
                  what: str) -> tuple[float, float, float] | None:
    """Root in q1 of a function of q1 along the path, read at a tracked angle.

    f(q1) = value(p, t) at the path state p, t being the root of
    ``deriv(p, .)`` that :func:`_minimizer_near` finds warm-started from the
    last one, from ``theta0`` on; f is NaN off (lo, hi] of the path and
    where t is lost.  Everything runs to one tolerance, tol =
    min(Q1_TOL, ``_WINDOW_SCALE`` (total - 1/2)) (``_window_tol``), below
    the birth-jump separation near total 1/2.  Newton steps from q,
    q -= f(q) / slope(q), run until f changes sign, and ``shape.find_root``
    polishes the last step's bracket to tol.  By the envelope theorem the
    slope, the q1-derivative of f, is that of ``value`` at the fixed t of
    the last evaluation of f, taken as a central difference.  A step that
    lands where f is NaN (outside its domain) is halved, and no step is
    shorter than tol, so a one-sided approach still crosses the root.

    Returns (root, |f(root)|, t at the root), or None when the step halves
    below tol, that is when f's domain ends before f changes sign.  Raises
    ConvergenceError, naming ``what``: up front at and below the bottom,
    total - 1/2 <= 4 eps total / ``_WINDOW_SCALE`` = 4.4e-11, where tol
    meets the float resolution of q1; when t is lost at q (also when q lies
    off the path) or at the root; or when f keeps its sign over a fixed
    number of steps.
    """
    lo, hi = traj.q1_range()
    tol = _window_tol(traj.total)
    if not tol:
        bottom = ROOT_RESOLUTION * traj.total / _WINDOW_SCALE
        raise ConvergenceError(f"{what}: total within the bottom {bottom:.2g} of 1/2, where"
                               " the root tolerance reaches the float resolution of q1")
    theta = theta0

    def f(q1: float) -> float:
        nonlocal theta
        if not lo < q1 <= hi:
            return math.nan
        p = traj.state(q1)
        t = _minimizer_near(deriv, p, theta)
        if math.isnan(t):
            return math.nan
        theta = t
        return value(p, t)

    fq = f(q)
    if math.isnan(fq):
        raise ConvergenceError(f"{what}: tracked angle lost at the start q1 = {q!r}")
    for _ in range(_NEWTON_STEPS):
        if fq == 0.0:
            break
        a, b = max(q - _FD_STEP, lo), min(q + _FD_STEP, hi)
        slope = (value(traj.state(b), theta) - value(traj.state(a), theta)) / (b - a)
        step = -fq / slope
        step = math.copysign(max(abs(step), tol), step)
        f_new = f(q + step)
        while math.isnan(f_new):
            step *= 0.5
            if abs(step) < tol:
                return None
            f_new = f(q + step)
        if (f_new < 0.0) != (fq < 0.0):
            q = find_root(f, q, q + step, fq, f_new, tol)
            break
        q, fq = q + step, f_new
    else:
        raise ConvergenceError(f"{what} kept its sign over {_NEWTON_STEPS} Newton steps")
    fq = f(q)
    if math.isnan(fq):
        raise ConvergenceError(f"{what}: tracked angle lost at the root q1 = {q!r}")
    return q, abs(fq), theta


def solve_jump_boundary(traj: TrajectorySpec) -> JumpRecord | None:
    """Boundary where the optimal angle hops from 0 to the interior minimizer.

    Solves the 2x2 system {S'(theta) = 0, S(theta) = S(0)} in (q1, theta)
    with theta eliminated: the root of the gap g(q1) = S(0) - S(theta*)
    along the path, theta* being the interior minimizer.  The solve starts
    ``_JUMP_OFFSET`` = 1e-4 in q1 below the window's analytic upper end,
    at the minimizer that the walk of the deflated slope down from pi/2
    finds there (:func:`_window_minimum`); it computes no slope row.  From
    that start, Newton steps in q1 drive g to a sign change from either sign
    (:func:`_tracked_root`), with theta* tracked as the root of the deflated
    slope (:func:`_deflated_slope`), so up to pi/2 itself.  A gap negative
    at the start means the root lies above it: just below the curve
    intersection t* it lies between the start and the half-pi root, where
    the jump angle approaches pi/2 like ~4 sqrt(t* - total), and the offset
    leaves the Newton steps room there.  The gap at the root is the stored
    residual, and the theta* tracked there is the jump angle.

    The root lies within min(``Q1_TOL``, ``_WINDOW_SCALE`` (t - 1/2)) in
    q1 of the true one, ``Q1_TOL`` = 1e-9 from t = 1/2 + 1e-4 up: near
    total 1/2 the tolerance shrinks with the window (:func:`_tracked_root`).

    Returns None only where the path carries no jump root: on a total
    t <= 1/2, and on t >= t*, where the interior minimum merges into pi/2
    at the half-pi root with the gap still negative.  Raises
    ConvergenceError after a fixed number of Newton steps, when the
    interior minimum is lost at the start or at the root, and wherever the
    solve finds no root on 1/2 < t < t* (it computes t* on that exit only).
    The message names the bottom on 1/2 < t <= 1/2 + 4.4e-11, where the
    tolerance meets the float resolution of q1 and the solve raises before
    its Newton steps, and names the top reach on
    t* - ``_JUMP_TOP_REACH`` <= t < t*, t* - 6e-15, where it may find no
    root.  :func:`jump_curve` anchors at (0.5, 0) and p* instead.
    """
    if traj.axis:
        raise ValueError("the jump boundary on the axis is the weight-1/2 point")
    if traj.total <= 0.5:
        return None
    start = _window_minimum(traj, _JUMP_OFFSET)
    solved = None if start is None else _tracked_root(
        traj, _deflated_slope, _jump_gap, start[1], start[0], f"jump gap on {traj}")
    if solved is None:
        p_star = curves_intersection()
        t_star = p_star.q1 + p_star.q2
        if traj.total < t_star:
            near = t_star - traj.total <= _JUMP_TOP_REACH
            where = f"within the top reach {_JUMP_TOP_REACH} of" if near else "below"
            raise ConvergenceError(f"jump on {traj}: no root found {where} t* = {t_star!r}")
        return None
    root, residual, angle = solved
    bp = BoundaryPoint(p=traj.state(root), kind=BoundaryKind.JUMP_BOUNDARY, residual=residual)
    return JumpRecord(boundary=bp, jump_angle=angle)


def bimodality_birth(traj: TrajectorySpec) -> BoundaryPoint | None:
    """Path point where an extremum pair is born out of an inflection.

    The birth is a fold of dS/dtheta: S' = 0 and S'' = 0 hold together.
    It is the root of g(q1) = S'(theta_i) along the path, theta_i being the
    inflection at which S' is least, between the maximum and the minimum of
    the pair.  The solve starts ``Q1_TOL`` in q1 below the window's upper
    end, at the minimum theta_min that the walk of the deflated slope down
    from pi/2 finds there, the jump's start with a narrower offset
    (:func:`_window_minimum`); when there is none, the path carries no
    window.  The maximum is the root of the deflated slope on
    [``ENDPOINT_MARGIN``, theta_min - 1e-6] where it changes sign there,
    and seeds the inflection; half of theta_min seeds it where a maximum
    below ``ENDPOINT_MARGIN`` merges with the endpoint, and where that
    bracket is empty, theta_min - 1e-6 <= ``ENDPOINT_MARGIN`` (totals
    within ~3e-8 of 1/2).  The tracked solve
    (:func:`_tracked_root`) then drives g from negative to a sign change,
    finding theta_i as the root of S'', the closed form
    ``core.post_entropy_curvature``, down to 1e-12 rad.  The root lies
    within min(``Q1_TOL``, ``_WINDOW_SCALE`` (t - 1/2)) in q1 of the true
    one, as the jump's does.  The stored residual is |S'(theta_i)| at the
    root.

    Returns None on the axis, on a path with total <= 1/2, and on a path
    that carries no window.  Raises ConvergenceError on
    1/2 < t <= 1/2 + 4.4e-11, naming that bottom, where the tolerance meets
    the float resolution of q1; when the inflection is lost at the start,
    before g changes sign or at the root; or after a fixed number of Newton
    steps.
    """
    if traj.axis or traj.total <= 0.5:
        return None  # on the axis extrema appear by endpoint bifurcation instead
    window = _window_minimum(traj, Q1_TOL)
    if window is None:
        return None
    start, theta_min = window
    p = traj.state(start)
    # ENDPOINT_MARGIN, not 1e-12: on 0.681 that finds a rounding-level maximum at 2.3e-12 rad
    seed = _bracket_root(functools.partial(_deflated_slope, p), ENDPOINT_MARGIN,
                         theta_min - 1e-6, REFINE_TOL)
    if seed is None:
        seed = 0.5 * theta_min
    solved = _tracked_root(traj, post_entropy_curvature, post_entropy_slope, seed, start,
                           f"fold of dS/dtheta on {traj}")
    if solved is None:
        raise ConvergenceError(f"inflection lost before the fold on {traj}")
    return BoundaryPoint(p=traj.state(solved[0]), kind=BoundaryKind.BIMODALITY_BIRTH,
                         residual=solved[1])


def curves_intersection() -> StateParams:
    """Intersection of the equal-endpoint and half-pi boundary curves.

    One bracketed root in the total t: h(t) is the half-pi curvature
    S''(pi/2) at the equal-endpoint root of the path q1 + q2 = t.  That root
    is unique on each diagonal (the gap is monotone in q1, see
    :func:`solve_equal_endpoints`), so h is a function of t; it changes sign
    once over ``_INTERSECTION_TOTALS``, whose ends bracket the root, and
    ``shape.find_root`` solves it to ``Q1_TOL``.  Returns the intersection on
    the q1 >= q2 side, where every equal-endpoint root lies; the mirror
    follows by symmetry.  Raises ConvergenceError when a bracket end has no
    equal-endpoint root, or h is NaN at an end or has one sign at both.
    """
    def on_equal_endpoints(t: float) -> StateParams:
        bp = solve_equal_endpoints(TrajectorySpec(t))
        if bp is None:
            raise ConvergenceError(f"no equal-endpoint root on total {t}")
        return bp.p

    h = lambda t: _halfpi_curvature(on_equal_endpoints(t))
    root = _bracket_root(h, *_INTERSECTION_TOTALS)
    if root is None:
        raise ConvergenceError(
            "the half-pi curvature on the equal-endpoint curve brackets no intersection"
            f" over _INTERSECTION_TOTALS = {_INTERSECTION_TOTALS}"
        )
    return on_equal_endpoints(root)


def _corrected_jump(traj: TrajectorySpec, q: float, theta: float) -> JumpRecord | None:
    """The jump record of a diagonal path by Newton's method in (q1, theta)
    from (q, theta), or None where it is not certified.

    The corrector of :func:`jump_curve`: Newton steps on the 2x2 system
    {S'(theta) = 0, G = S(0) - S(theta) = 0} along the path, whose
    Jacobian in (theta, q1) is [[S'', dS'/dq1], [-S', dG/dq1]].  S' is
    read as cos(theta) times the deflated slope (:func:`_deflated_slope`),
    which keeps its digits beside pi/2, where S' itself is a difference of
    rounded terms that vanish; S'' is ``core.post_entropy_curvature``,
    dG/dq1 > 0 the closed form ``core._jump_gap_dq1``, and dS'/dq1 a
    central difference at ``_FD_STEP``, clamped to the path as
    :func:`_tracked_root` clamps its slope.  The steps end at the first
    iterate after a step of at most tol = ``_window_tol(total)`` in q1 at
    which the Newton step in theta alone, S'/S'', is at most
    ``REFINE_TOL``, and that iterate must have S'' > 0: theta is the
    interior minimizer there to that tolerance.  One last Newton step in q1
    alone, G/(dG/dq1), gives the root; where it moves q1, the angle moves
    to the minimizer there and G is read again.  The minimizer beside the
    last iterate is one Newton step in theta from its angle, with S' linear
    in q1 through dS'/dq1.  The gap at the root is the stored residual.
    The record is accepted only if the tracked gap
    g(q1) = G(q1, theta*(q1)), which rises with q1, changes sign between
    the root and the point tol/2 away toward which g falls, that end read
    at its own minimizer: then the root lies within tol/2 of the true one.
    None when a step leaves the path (lo, hi] or the angles (0, pi/2),
    including the spurious line S' = 0 at pi/2, after ``_NEWTON_STEPS``
    steps, or when a test fails.
    """
    lo, hi = traj.q1_range()
    tol = _window_tol(traj.total)
    slope_at = lambda p, theta: _deflated_slope(p, theta) * math.cos(theta)
    converged = False
    for _ in range(_NEWTON_STEPS):
        if not (lo < q <= hi and 0.0 < theta < HALF_PI):
            return None
        p = traj.state(q)
        slope, gap, curv = slope_at(p, theta), _jump_gap(p, theta), post_entropy_curvature(p, theta)
        if converged and abs(slope) <= REFINE_TOL * abs(curv):
            break
        a, b = max(q - _FD_STEP, lo), min(q + _FD_STEP, hi)
        dslope = (post_entropy_slope(traj.state(b), theta)
                  - post_entropy_slope(traj.state(a), theta)) / (b - a)
        dgap = _jump_gap_dq1(p, theta)
        det = curv * dgap + slope * dslope
        if not (dgap > 0.0 and det):
            return None
        dq = -(curv * gap + slope * slope) / det
        q, theta = q + dq, theta + (dslope * gap - slope * dgap) / det
        converged = abs(dq) <= tol
    else:
        return None
    root = q - gap / dgap
    if not (curv > 0.0 and lo < root - 0.5 * tol and root + 0.5 * tol <= hi):
        return None
    minimizer = lambda x, q=q, theta=theta: theta - (slope + dslope * (x - q)) / curv
    if root != q:
        theta, p = minimizer(root), traj.state(root)
        gap = _jump_gap(p, theta)
    end = root - math.copysign(0.5 * tol, gap)
    if not (gap < 0.0) != (_jump_gap(traj.state(end), minimizer(end)) < 0.0):
        return None
    bp = BoundaryPoint(p=p, kind=BoundaryKind.JUMP_BOUNDARY, residual=abs(gap))
    return JumpRecord(boundary=bp, jump_angle=theta)


def jump_curve(totals: Iterable[float]) -> list[JumpRecord]:
    """The jump boundary from its axis end to the curve intersection, with its jump angles.

    The axis record (0.5, 0), where the hop shrinks to zero and the theta = 0
    axis curvature vanishes, with residual |S''(0)|; then one record on each
    path q1 + q2 = t of the totals t above the per-path solve's bottom,
    1/2 + 4.4e-11 (``_window_tol``), and below t* - ``_JUMP_TOP_REACH``, in
    their order; then the intersection p* of the equal-endpoint and half-pi
    curves (:func:`curves_intersection`, on the total t*), where the hop
    spans the whole quarter turn, with residual |S(0) - S(pi/2)|.  The two
    end records are analytic, and stand in for the totals at or below the
    bottom and within the top reach of t* (:func:`solve_jump_boundary`).
    The jump-angle table and the traced jump polyline are both this curve.

    The totals between the ends are solved by natural-parameter
    continuation in the total (Allgower and Georg, *Introduction to
    Numerical Continuation Methods*, 2003), one predictor-corrector step
    per total.  The predictor is the secant in (t, q1, theta) through the
    last two records, the axis anchor (1/2, 1/2, 0) standing in for the
    first of them until there are two; the first total starts instead from
    the per-path solve's window start (:func:`_window_minimum`).  The
    corrector is Newton's method in (q1, theta) on the 2x2 system
    {S' = 0, S(0) - S(theta) = 0} (:func:`_corrected_jump`), certified by
    the sign change of the tracked gap within the root tolerance.  The
    per-path :func:`solve_jump_boundary` stands in, and what it raises
    stands, wherever the corrector returns no certified record: the path
    has no window start, a step leaves the path or (0, pi/2), the Newton
    steps reach their cap, or a test at the root fails.  Every kept total
    lies between the bottom and the top reach, where the per-path solve
    returns a record or raises ConvergenceError, and never None.
    """
    p_star = curves_intersection()
    t_star = p_star.q1 + p_star.q2
    origin = StateParams(0.5, 0.0)
    axis = BoundaryPoint(p=origin, kind=BoundaryKind.JUMP_BOUNDARY,
                         residual=abs(post_entropy_curvature(origin, 0.0)))
    star = BoundaryPoint(
        p=p_star, kind=BoundaryKind.JUMP_BOUNDARY, residual=abs(_equal_endpoints_gap(p_star))
    )
    records = [JumpRecord(boundary=axis, jump_angle=0.0)]
    # (total, q1, jump angle) of the last two records, the axis anchor first
    last = [(0.5, 0.5, 0.0)]
    for t in totals:
        if not (_window_tol(t) and t < t_star - _JUMP_TOP_REACH):
            continue
        traj = TrajectorySpec(t)
        if len(last) == 2:
            (t0, q0, a0), (t1, q1, a1) = last
            x = (t - t1) / (t1 - t0) if t1 != t0 else 0.0  # a repeated total: no secant
            start = (q1 + x * (q1 - q0), a1 + x * (a1 - a0))
        else:
            start = _window_minimum(traj, _JUMP_OFFSET)
        rec = None if start is None else _corrected_jump(traj, *start)
        if rec is None:
            rec = solve_jump_boundary(traj)
        records.append(rec)
        last = [last[-1], (t, rec.boundary.p.q1, rec.jump_angle)]
    return [*records, JumpRecord(boundary=star, jump_angle=HALF_PI)]


_TABLE_TOTALS = (0.55, 0.60, 0.65, 0.70, 0.75)


def jump_angle_table() -> list[JumpRecord]:
    """Jump angles along the boundary between the endpoint and interior phases.

    Seven records, :func:`jump_curve` on the five totals of
    ``_TABLE_TOTALS``: the axis limit (0.5, 0) where the hop shrinks to
    zero, the five totals solved as one continued fan, each by the Newton
    corrector in (q1, theta) from the secant through the last two records,
    and the intersection limit where the hop spans the whole quarter turn.
    Raises ConvergenceError where the per-path solve raises, wherever it
    stands in for a corrector that fails.
    """
    return jump_curve(_TABLE_TOTALS)
