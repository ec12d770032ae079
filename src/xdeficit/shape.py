"""Shape classification of the post-measured entropy over the measurement angle.

The entropy curve on [0, pi/2] starts and ends with zero slope for every
member of the family, and can be monotone, carry a single interior extremum,
or be bimodal (exactly one interior maximum plus one interior minimum, born
together from an inflection point).  Locating the interior minimum to high
precision is what the deficit minimization and all boundary solving hinge on.
Classification reads the sign of the closed-form slope dS/dtheta
(``core.slope_curve``) on a uniform grid whose two end angles are moved
``ENDPOINT_MARGIN`` inside the stationary ends: every sign change brackets
one extremum, which :func:`find_root`, the bracketed root solver that the
boundary solves share, refines as a root of that slope.  An extremum within
the margin of an end lies outside every bracket and merges with the
endpoint.  Slopes smaller than ``SLOPE_FLOOR`` carry no sign.  This module
owns the one bracketed root rule, Chandrupatla's method with a halving
schedule: :func:`find_root` on one bracket, and :func:`find_roots` on
arrays of brackets, step for step, for the boundaries' array fans.

Every classification is one slope row, :func:`_slope_row`, and one tail,
:func:`_row_extrema`, which brackets the row and refines the brackets it
is asked for.  :func:`interior_minimum` and the deficit ask it for the
minimum's bracket alone; the deficit reads the row it is given (the sweep
and the trajectory profiles keep the rows their walk sampled), so no row
is computed twice.  The boundary solves take no slope row: they find
their minima by walks of the deflated slope (``boundaries``), and of this
module they use the two root solvers and the constants alone.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import StateParams, post_entropy, post_entropy_slope, slope_curve

HALF_PI = math.pi / 2.0

# Default slope grid: the sample intervals of [0, pi/2] of a classification.
GRID_N = 512

# Slope samples smaller than this (bits per radian) carry no sign.  Within
# ~1e-12 of a corner rounding noise alone flips the sign of the near-zero
# slope from sample to sample; the least real slopes between a newborn
# extremum pair are ~1e-8.
SLOPE_FLOOR = 1e-12

# The outermost samples of a slope row (``core.slope_curve``) sit this far
# inside 0 and pi/2, where the slope vanishes for every family member; an
# extremum closer to an end merges with the endpoint.  The row writes each
# eigenvalue directly, and off the axes its samples lose their sign within
# ~1e-7 rad of 0; at this margin their rounding is ~1e-12, ``SLOPE_FLOOR``.
ENDPOINT_MARGIN = 1e-4

# find_root and find_roots resolve a bracket to no xtol at or below this
# times the bracket's largest |end|
ROOT_RESOLUTION = 4.0 * np.finfo(float).eps

# Evaluations find_root and find_roots may spend beyond what bisection would need.
_SPARE_STEPS = 3

# Tolerance (radians) to which every extremum and tracked angle is refined.
REFINE_TOL = 1e-10

# States per chunk of a flag pass: each chunk's slope_curve call
# allocates its own buffers, ten rows of intermediates per state, which
# bounds the memory of a walk's round and of a full pass (one call over
# the 80200 states of a resolution-400 triangle would need ~3.3 GB at grid
# 512).
_FLAG_CHUNK = 16


class UnresolvedShape(RuntimeError):
    """The slope signs on the grid show more than two interior extrema."""


class ShapeClass(enum.Enum):
    MONOTONE_INCREASING = "MonotoneIncreasing"
    MONOTONE_DECREASING = "MonotoneDecreasing"
    INTERIOR_MINIMUM = "InteriorMinimum"
    INTERIOR_MAXIMUM = "InteriorMaximum"
    BIMODAL = "Bimodal"
    FLAT = "Flat"


@dataclass(frozen=True)
class Extremum:
    theta: float
    value: float
    kind: str  # "min" or "max"


@dataclass(frozen=True)
class ShapeReport:
    shape_class: ShapeClass
    extrema: tuple[Extremum, ...]
    grid_n: int


def find_root(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f in the bracket [a, b], where fa = f(a) and fb = f(b) differ in sign.

    Chandrupatla's method (*Adv. Eng. Software* 28, 1997), the rule that
    :func:`find_roots` applies to arrays of brackets, step for step.  The
    first step is the secant step.  Each later step is an inverse quadratic
    step through the last three points where Chandrupatla's test on them
    shows that it fits, and a bisection step elsewhere, and also wherever the
    bracket has fallen behind the halving schedule of plain bisection with
    ``_SPARE_STEPS`` evaluations to spare.  It therefore never needs more
    than that many evaluations beyond bisection, and far fewer on smooth
    functions.  Every step lands at least ``xtol / 2`` inside the bracket.
    It stops once the bracket is at most ``xtol`` wide, and returns the
    secant point of that last bracket, which lies inside it: the result is
    within ``xtol`` of a root, and on a smooth f far closer.  An end or a
    step where f is 0 is returned as it is.  Raises ValueError when [a, b]
    brackets no sign change, f returns NaN, or ``xtol`` lies below the
    float resolution of the bracket.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError(f"f({a}) = {fa} and f({b}) = {fb} do not bracket a root")
    if not xtol > ROOT_RESOLUTION * max(abs(a), abs(b)):
        raise ValueError(f"xtol {xtol} is below the float resolution of [{a}, {b}]")
    # x1 is the newest point, [x1, x2] the bracket and x3 the point it dropped
    x1, x2, f1, f2 = a, b, fa, fb
    t = f1 / (f1 - f2)  # the secant step; x3 is set by the first step
    # the k-th step bisects a bracket wider than xtol * 2**(n - k), n being
    # the spare steps plus bisection's count, ceil(log2(width / xtol)): with
    # width / xtol = m * 2**e and 1/2 <= m < 1, that is e, or e - 1 where m = 1/2
    m, e = math.frexp(abs(x1 - x2) / xtol)
    allowed = math.ldexp(xtol, e - (m == 0.5) + _SPARE_STEPS)
    for step in itertools.count():
        d = x1 - x2
        width = abs(d)
        if width <= xtol or f1 == 0.0:
            return x1 + f1 * d / (f2 - f1)
        allowed *= 0.5
        if step:
            # f1 and f3 each differ in sign from f2, and phi = 1 where f3 = f1
            # fails the test: the quadratic step divides by no zero
            xi, fd1, fd3 = d / (x3 - x2), f1 - f2, f3 - f2
            phi = fd1 / fd3
            fits = width <= allowed and phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi
            t = f1 / fd3 * (f3 / fd1 + (1.0 - 1.0 / xi) * f2 / (fd3 - fd1)) if fits else 0.5
        margin = 0.5 * xtol / width
        xt = x1 - min(max(t, margin), 1.0 - margin) * d
        ft = f(xt)
        if math.isnan(ft):
            raise ValueError(f"f({xt}) is NaN inside the bracket")
        if (ft < 0.0) == (f1 < 0.0):  # x1 leaves the bracket
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = xt, ft


def find_roots(f, lo: np.ndarray, hi: np.ndarray, xtol: float) -> np.ndarray:
    """Root of each lane k on [lo[k], hi[k]]: :func:`find_root` on arrays of brackets.

    ``f(x, lanes)`` evaluates lane lanes[j] at x[j].  A lane brackets a root
    where exactly one of its two end values is negative, a zero counting as
    non-negative, and neither is NaN; its root is NaN otherwise, and also
    where f is NaN inside the bracket (where find_root raises).  Every lane
    runs the rule of :func:`find_root`, step for step and at once, and its
    root is ``==`` to find_root's on the same bracket and values of f; a
    lane stops with find_root, and keeps its bracket while the others step
    on.  The ends
    take one call of f, each step one more.  Raises ValueError where
    ``xtol`` lies below the float resolution of a lane's bracket.
    """
    fl, fh = np.split(f(np.concatenate((lo, hi)), np.tile(np.arange(len(lo)), 2)), 2)
    lanes = np.flatnonzero(((fl < 0.0) & (fh >= 0.0)) | ((fl >= 0.0) & (fh < 0.0)))
    x1, x2, f1, f2 = lo[lanes], hi[lanes], fl[lanes], fh[lanes]
    # a zero end is the root, as find_root returns it: start from it
    x1, x2, f1, f2 = np.where(f2 == 0.0, (x2, x1, f2, f1), (x1, x2, f1, f2))
    if np.any(xtol <= ROOT_RESOLUTION * np.maximum(np.abs(x1), np.abs(x2))):
        raise ValueError(f"xtol {xtol} is below the float resolution of a bracket")
    t = f1 / (f1 - f2)
    with np.errstate(all="ignore"):  # stopped lanes, and the quadratic step of lanes that bisect
        m, e = np.frexp(np.abs(x1 - x2) / xtol)
        allowed = np.ldexp(xtol, e - (m == 0.5) + _SPARE_STEPS)
        for step in itertools.count():
            d = x1 - x2
            width = np.abs(d)
            done = (width <= xtol) | (f1 == 0.0) | np.isnan(f1)
            if done.all():
                break
            allowed *= 0.5
            if step:
                xi, fd1, fd3 = d / (x3 - x2), f1 - f2, f3 - f2
                phi = fd1 / fd3
                fits = (width <= allowed) & (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
                t = np.where(fits, f1 / fd3 * (f3 / fd1 + (1.0 - 1.0 / xi) * f2 / (fd3 - fd1)), 0.5)
            # a lane that stopped steps to its newest point, and keeps it
            margin = 0.5 * xtol / width
            xt = x1 - np.where(done, 0.0, np.minimum(np.maximum(t, margin), 1.0 - margin)) * d
            ft = f(xt, lanes)
            kept = (ft < 0.0) == (f1 < 0.0)  # x1 leaves the bracket
            x3, f3, x2, f2 = (np.where(kept, x1, x2), np.where(kept, f1, f2),
                              np.where(kept, x2, x1), np.where(kept, f2, f1))
            x1, f1 = xt, ft
    roots = np.full(len(lo), math.nan)
    roots[lanes] = x1 + f1 * d / (f2 - f1)
    return roots


def _extremum_brackets(slopes: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs (i, j) of consecutive signed slope samples whose signs differ.

    Samples with |slope| < ``SLOPE_FLOOR`` carry no sign and are skipped; a
    pair holds a maximum where ``slopes[i] > 0``, a minimum otherwise.
    """
    # nonzero()[0] of the 1-d masks, without flatnonzero's Python wrapper
    signed = (np.abs(slopes) >= SLOPE_FLOOR).nonzero()[0]
    rising = slopes[signed] > 0.0
    flips = (rising[:-1] != rising[1:]).nonzero()[0]
    return list(zip(signed[flips].tolist(), signed[flips + 1].tolist()))


@functools.lru_cache(maxsize=8)
def _angle_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, cos theta, sin theta) on the ``n + 1`` slope sample angles.

    The uniform angles of [0, pi/2], with the two ends moved
    ``ENDPOINT_MARGIN`` inside.  Cached per grid size and read-only, so
    every caller shares one copy.  Every slope grid is built here, so this
    is where a grid of fewer than 64 intervals raises ValueError.
    """
    if n < 64:
        raise ValueError(f"slope grid must have at least 64 intervals, got {n}")
    theta = np.linspace(0.0, HALF_PI, n + 1)
    theta[0], theta[-1] = ENDPOINT_MARGIN, HALF_PI - ENDPOINT_MARGIN
    table = (theta, np.cos(theta), np.sin(theta))
    for a in table:
        a.flags.writeable = False
    return table


def _flag_rows(q1: np.ndarray, q2: np.ndarray, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flags of :func:`needs_refinement`, and the slope rows of the
    flagged states, in state order: the rows :func:`_slope_row` gives them."""
    q1 = np.asarray(q1, dtype=float)[:, None]
    q2 = np.asarray(q2, dtype=float)[:, None]
    _, ct, st = _angle_table(grid_n)
    flags = np.empty(len(q1), dtype=bool)
    kept = [np.empty((0, grid_n + 1))]
    for start in range(0, len(q1), _FLAG_CHUNK):
        dk = slope_curve(q1[start:start + _FLAG_CHUNK], q2[start:start + _FLAG_CHUNK], ct, st)
        hits = (dk.max(axis=-1) >= SLOPE_FLOOR) & (dk.min(axis=-1) <= -SLOPE_FLOOR)
        flags[start:start + len(dk)] = hits
        kept.append(dk[hits])
    return flags, np.concatenate(kept)


def needs_refinement(q1: np.ndarray, q2: np.ndarray, grid_n: int) -> np.ndarray:
    """Which states :func:`classify_shape` finds an interior extremum for.

    Samples the slope of each state (q1[k], q2[k]) on the ``grid_n + 1``
    angles classify_shape reads, ``_FLAG_CHUNK`` states at a time.  A state is True when its signed slopes include
    both signs, which is exactly when classify_shape brackets and refines
    an extremum; a False state has none, so its deficit is an endpoint
    branch.
    """
    return _flag_rows(q1, q2, grid_n)[0]


def _slope_row(p: StateParams, grid_n: int) -> np.ndarray:
    """dS/dtheta of ``p`` at the ``grid_n + 1`` angles of :func:`_angle_table`."""
    _, ct, st = _angle_table(grid_n)
    return slope_curve(p.q1, p.q2, ct, st)


def _row_extrema(p: StateParams, d: np.ndarray, minimum_only: bool = False) -> list[Extremum]:
    """The interior extrema that the slope row ``d`` of ``p`` brackets.

    Raises UnresolvedShape above two brackets.  Each bracket, or with
    ``minimum_only`` the one whose left sample is negative, is refined to
    ``REFINE_TOL`` radians as a root of the closed-form slope.
    """
    brackets = _extremum_brackets(d)
    if len(brackets) > 2:
        raise UnresolvedShape(
            f"{len(brackets)} interior extrema at ({p.q1}, {p.q2}); "
            f"at most two are expected for this family"
        )
    theta = _angle_table(len(d) - 1)[0]
    slope = functools.partial(post_entropy_slope, p)
    extrema = []
    for i, j in brackets:
        kind = "max" if d[i] > 0.0 else "min"
        if minimum_only and kind == "max":
            continue
        # Python floats, not numpy scalars: the extrema and every angle
        # solved from them stay the annotated float
        x = find_root(slope, theta.item(i), theta.item(j), d.item(i), d.item(j), REFINE_TOL)
        extrema.append(Extremum(theta=x, value=post_entropy(p, x), kind=kind))
    return extrema


def classify_shape(p: StateParams, grid_n: int = GRID_N) -> ShapeReport:
    """Classify the entropy curve on [0, pi/2] and refine interior extrema.

    Samples dS/dtheta at ``grid_n + 1`` angles: ``ENDPOINT_MARGIN``, the
    interior angles of the uniform grid of [0, pi/2], and
    pi/2 - ``ENDPOINT_MARGIN``.  Each sign change between consecutive
    samples of |dS/dtheta| >= ``SLOPE_FLOOR`` brackets one extremum, refined
    to ``REFINE_TOL`` radians as a root of the closed-form slope.  With no
    sign change the curve is monotone, or flat when no sample has a sign.
    ``grid_n`` of the report is the requested one.

    Raises UnresolvedShape if more than two interior extrema are found; two
    are always one maximum and one minimum.
    """
    d = _slope_row(p, grid_n)
    extrema = _row_extrema(p, d)
    if len(extrema) == 2:
        cls = ShapeClass.BIMODAL
    elif extrema:
        cls = ShapeClass.INTERIOR_MAXIMUM if extrema[0].kind == "max" else ShapeClass.INTERIOR_MINIMUM
    elif d.max() >= SLOPE_FLOOR:
        cls = ShapeClass.MONOTONE_INCREASING
    elif d.min() <= -SLOPE_FLOOR:
        cls = ShapeClass.MONOTONE_DECREASING
    else:
        cls = ShapeClass.FLAT

    return ShapeReport(shape_class=cls, extrema=tuple(extrema), grid_n=grid_n)


def interior_minimum(p: StateParams, grid_n: int = GRID_N) -> Extremum | None:
    """Refined interior minimum of the entropy curve, or None if absent.

    For bimodal shapes this is the minimum of the pair; monotone and
    maximum-only shapes yield None.  It is the ``"min"`` extremum of
    :func:`classify_shape`, with the same errors, but only that bracket of
    the slope row is refined: a maximum is never solved for.
    """
    extrema = _row_extrema(p, _slope_row(p, grid_n), minimum_only=True)
    return extrema[0] if extrema else None
