"""Shape classification of the post-measured entropy over the measurement angle.

The entropy curve on [0, pi/2] starts and ends with zero slope for every
member of the family, and can be monotone, carry a single interior extremum,
or be bimodal (exactly one interior maximum plus one interior minimum, born
together from an inflection point).  Locating the interior minimum to high
precision is what the deficit minimization and all boundary solving hinge on,
so classification is deliberately conservative: a coarse uniform grid, local
slope-sign analysis, and an adaptive resolution-doubling pass wherever slopes
are suspiciously flat.  Each bracketed extremum is then refined as a root of
the closed-form slope dS/dtheta by :func:`find_root`, the bracketed root
solver that the boundary solves share.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import StateParams, post_entropy, post_entropy_grid, post_entropy_slope

HALF_PI = math.pi / 2.0

# Discrete slopes smaller than this (bits per grid step) count as flat; ties
# are broken toward "no extremum".
FLAT_SLOPE_TOL = 1e-12

# Refined extrema closer than this to an interval end merge with the endpoint,
# since both endpoints are stationary for every family member and produce
# spurious near-endpoint brackets.
ENDPOINT_MARGIN = 1e-4

MAX_GRID_N = 1 << 14

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = np.finfo(float).eps

# Evaluations find_root may spend beyond what bisection would need.
_SPARE_STEPS = 3

# Both ends of [0, pi/2] are stationary, so a bracket that ends there has its
# slope probed this fraction of its width inside instead.
_STATIONARY_INSET = 1e-2


class UnresolvedShape(RuntimeError):
    """Shape could not be classified at the maximum grid resolution."""


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


def golden_minimize(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def find_root(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f in the bracket [a, b], where fa = f(a) and fb = f(b) differ in sign.

    Brent's method: inverse quadratic or secant steps, with a bisection step
    whenever an interpolated step makes too little progress, and also
    whenever the bracket has fallen behind the halving schedule of plain
    bisection with ``_SPARE_STEPS`` evaluations to spare.  It therefore never
    needs more than that many evaluations beyond bisection, and far fewer on
    smooth functions.  It stops only once the bracket is at most ``xtol``
    wide and returns the secant point of that last bracket, which lies
    inside it: the result is within ``xtol`` of a root, and on a smooth f
    far closer.  Raises ValueError when [a, b] brackets no sign change or f
    returns NaN.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ValueError(f"f({a}) = {fa} and f({b}) = {fb} do not bracket a root")
    if not xtol > 4.0 * _EPS * max(abs(a), abs(b)):
        raise ValueError(f"xtol {xtol} is below the float resolution of [{a}, {b}]")
    tol = 0.5 * xtol
    # after the k-th evaluation the bracket must be at most xtol * 2**(n - k),
    # n being bisection's count plus the spare steps; a step that could miss
    # that bound bisects
    allowed = xtol * 2.0 ** (max(0, math.ceil(math.log2(abs(b - a) / xtol))) + _SPARE_STEPS)
    # b is the best estimate, c the far end of the bracket [b, c], a the previous b
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if fb == 0.0:
            return b
        if abs(m) <= tol:
            # the secant through the final bracket: no evaluation, and inside it
            return b - fb * (c - b) / (fc - fb)
        allowed *= 0.5
        if abs(e) < tol or abs(fa) <= abs(fb) or 2.0 * abs(m) > allowed:
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if math.isnan(fb):
            raise ValueError(f"f({b}) is NaN inside the bracket")


def _refine_extremum(p: StateParams, kind: str, lo: float, hi: float, tol: float) -> float:
    """Angle of the extremum of ``kind`` bracketed by the grid angles [lo, hi].

    The root of dS/dtheta, probed just inside a stationary end of [0, pi/2].
    When the slope has the same sign at both probes (two extrema in one grid
    cell, near the birth of a bimodal pair) golden section on S takes over.
    """
    inset = _STATIONARY_INSET * (hi - lo)
    a = lo + inset if lo <= 0.0 else lo
    b = hi - inset if hi >= HALF_PI else hi
    slope = lambda t: post_entropy_slope(p, t)
    sa, sb = slope(a), slope(b)
    sign = 1.0 if kind == "max" else -1.0
    if sign * sa > 0.0 > sign * sb:
        return find_root(slope, a, b, sa, sb, tol)
    # logging is imported only here, which keeps it out of every CLI
    # process's start-up
    import logging

    logging.getLogger(__name__).debug(
        "slope %.3g, %.3g at both ends of the %s bracket [%.17g, %.17g] at (%r, %r); "
        "golden section", sa, sb, kind, lo, hi, p.q1, p.q2,
    )
    f = lambda t: -sign * post_entropy(p, t)
    return golden_minimize(f, lo, hi, tol)[0]


def _grid_slopes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(signs, all_flat, suspicious) of the curves sampled along the last axis of ``y``.

    One difference pass serves a single curve or a block of them.  ``signs``
    holds the sign of each discrete slope, 0 where it is flat.  A curve is
    suspicious when a slope magnitude dips within 10x of the flatness
    threshold without the whole curve being flat: the fingerprint of an
    extremum pair right after its birth, which asks for a finer grid.
    """
    d = np.diff(y, axis=-1)
    mag = np.abs(d)
    signs = np.sign(d)
    signs[mag < FLAT_SLOPE_TOL] = 0.0
    all_flat = np.all(signs == 0.0, axis=-1)
    suspicious = np.any(mag < 10.0 * FLAT_SLOPE_TOL, axis=-1) & ~all_flat
    return signs, all_flat, suspicious


def _extremum_brackets(theta: np.ndarray, signs: np.ndarray):
    """Brackets (kind, lo, hi) from sign flips between consecutive nonzero slopes."""
    nz = np.flatnonzero(signs)
    s = signs[nz]
    flips = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    return [
        ("max" if s[k] > 0.0 else "min", theta[nz[k]], theta[nz[k + 1] + 1]) for k in flips
    ]


def _angles(n: int) -> np.ndarray:
    return np.linspace(0.0, HALF_PI, n + 1)


def needs_refinement(q1: np.ndarray, q2: np.ndarray, grid_n: int) -> np.ndarray:
    """Which states :func:`classify_shape` could find an interior extremum for.

    Samples the entropy curves of all states (q1[k], q2[k]) as one
    ``(len(q1), grid_n + 1)`` grid, on the angles classify_shape starts from.
    A state is False when its slopes never change sign and none is
    suspiciously flat: classify_shape then reports no extrema without
    refining or doubling the grid, so the deficit is an endpoint branch.  A
    True state (a sign flip, even one that refinement later merges into an
    endpoint, or a grid that would double) needs the full classification.
    """
    q1 = np.asarray(q1, dtype=float)[:, None]
    q2 = np.asarray(q2, dtype=float)[:, None]
    signs, _, suspicious = _grid_slopes(post_entropy_grid(q1, q2, _angles(grid_n)))
    has_bracket = np.any(signs > 0.0, axis=-1) & np.any(signs < 0.0, axis=-1)
    return has_bracket | suspicious


def classify_shape(p: StateParams, grid_n: int = 512, refine_tol: float = 1e-10) -> ShapeReport:
    """Classify the entropy curve on [0, pi/2] and refine interior extrema.

    Samples ``grid_n + 1`` uniform angles, brackets extrema by slope-sign
    flips, and refines each bracket to ``refine_tol`` radians as a root of
    the closed-form dS/dtheta (golden section on S only for the rare bracket
    that holds two extrema).  Whenever a slope magnitude dips within 10x of
    the flatness threshold without flipping (the fingerprint of an extremum
    pair right after its birth), the grid is doubled, up to 2**14 points.

    Raises UnresolvedShape if more than two interior extrema survive
    refinement; two extrema must be one minimum plus one maximum.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    if refine_tol > 1e-8:
        raise ValueError("refine_tol must be at most 1e-8")

    n = grid_n
    while True:
        theta = _angles(n)
        y = np.asarray(post_entropy(p, theta))
        signs, all_flat, suspicious = _grid_slopes(y)
        brackets = _extremum_brackets(theta, signs)
        if not suspicious or n >= MAX_GRID_N:
            break
        n *= 2

    extrema = []
    for kind, lo, hi in brackets:
        x = _refine_extremum(p, kind, lo, hi, refine_tol)
        if ENDPOINT_MARGIN < x < HALF_PI - ENDPOINT_MARGIN:
            extrema.append(Extremum(theta=x, value=post_entropy(p, x), kind=kind))
    extrema.sort(key=lambda e: e.theta)

    if len(extrema) > 2:
        raise UnresolvedShape(
            f"{len(extrema)} interior extrema at ({p.q1}, {p.q2}); "
            f"at most two are expected for this family"
        )
    if len(extrema) == 2:
        if {extrema[0].kind, extrema[1].kind} != {"min", "max"}:
            raise UnresolvedShape(
                f"two interior extrema of the same kind at ({p.q1}, {p.q2})"
            )
        cls = ShapeClass.BIMODAL
    elif len(extrema) == 1:
        cls = (
            ShapeClass.INTERIOR_MINIMUM
            if extrema[0].kind == "min"
            else ShapeClass.INTERIOR_MAXIMUM
        )
    else:
        if all_flat or abs(y[-1] - y[0]) < FLAT_SLOPE_TOL:
            cls = ShapeClass.FLAT
        elif y[-1] > y[0]:
            cls = ShapeClass.MONOTONE_INCREASING
        else:
            cls = ShapeClass.MONOTONE_DECREASING

    return ShapeReport(shape_class=cls, extrema=tuple(extrema), grid_n=n)


def interior_minimum(
    p: StateParams, grid_n: int = 512, refine_tol: float = 1e-10
) -> Extremum | None:
    """Refined interior minimum of the entropy curve, or None if absent.

    For bimodal shapes this is the minimum of the pair; monotone and
    maximum-only shapes yield None.
    """
    report = classify_shape(p, grid_n=grid_n, refine_tol=refine_tol)
    for ext in report.extrema:
        if ext.kind == "min":
            return ext
    return None


def endpoint_slope_check(p: StateParams, step: float = 1e-5) -> tuple[float, float]:
    """Stationarity probe at both interval ends.

    Returns the magnitudes of symmetric difference quotients of the entropy
    curve at theta = 0 and theta = pi/2.  The closed form extends smoothly
    past both endpoints (even around 0, reflective around pi/2), so the
    straddling quotients vanish identically up to rounding whenever the
    endpoint derivatives are zero, which for this family is always.
    """
    f = lambda t: post_entropy(p, t)
    slope0 = abs(f(step) - f(-step)) / (2.0 * step)
    slope_half = abs(f(HALF_PI + step) - f(HALF_PI - step)) / (2.0 * step)
    return slope0, slope_half
