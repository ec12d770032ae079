"""One-way quantum deficit via the corrected piecewise minimization.

The deficit is the minimal entropy increase under a projective measurement on
qubit B.  Both endpoint branches are closed-form; the interior branch, when an
interior minimum of the entropy curve exists, is found numerically by the
shape analysis.  The deficit is the minimum of the available branches.

Also implemented, for demonstration purposes, is the naive curvature-sign
rule from the earlier literature: pick the interior extremum only when the
second derivatives at both endpoints are negative, otherwise take the better
endpoint.  Bimodal entropy curves break that rule; comparing both
implementations near the boundary where the optimal angle jumps shows it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    StateParams,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    post_entropy,
    pre_entropy,
)
from .shape import GRID_N, HALF_PI, _row_extrema, _slope_row, interior_minimum

# Two branch values closer than this tie; endpoint branches win ties because
# they are closed-form and the interior phase is the exceptional one.
TIE_TOL = 1e-9

# Step (radians) of the naive rule's finite-difference endpoint curvatures.
_NAIVE_FD_STEP = 1e-3


class Branch(enum.Enum):
    AT_ZERO = "AtZero"
    INTERIOR = "Interior"
    AT_HALF_PI = "AtHalfPi"


@dataclass(frozen=True)
class DeficitResult:
    delta: float
    branch: Branch
    optimal_theta: float
    tie: bool


def _endpoint_values(p: StateParams) -> tuple[float, float, float]:
    # (pre-measurement entropy, delta0, delta_halfpi) from the closed forms
    s = pre_entropy(p)
    return s, endpoint_entropy_zero(p) - s, endpoint_entropy_halfpi(p) - s


def _pick(
    delta0: float, delta_halfpi: float, interior: tuple[float, float] | None
) -> tuple[float, Branch, float, bool]:
    """The tie rule: (delta, branch, theta, tie) of the winning branch.

    Every branch within ``TIE_TOL`` of the least deficit contends, and the
    first contender in the order AtZero, AtHalfPi, Interior wins; ``tie``
    says whether more than one contended.
    """
    best = min(delta0, delta_halfpi)
    if interior is not None:
        best = min(best, interior[0])
    at_zero = delta0 - best < TIE_TOL
    at_half_pi = delta_halfpi - best < TIE_TOL
    inner = interior is not None and interior[0] - best < TIE_TOL
    tie = sum((at_zero, at_half_pi, inner)) > 1
    if at_zero:
        return delta0, Branch.AT_ZERO, 0.0, tie
    if at_half_pi:
        return delta_halfpi, Branch.AT_HALF_PI, HALF_PI, tie
    return interior[0], Branch.INTERIOR, interior[1], tie


def one_way_deficit(p: StateParams, grid_n: int = GRID_N) -> DeficitResult:
    """Minimize the measurement-dependent deficit over the three branches."""
    return _row_deficit(p, _slope_row(p, grid_n))


def _row_deficit(p: StateParams, d: np.ndarray) -> DeficitResult:
    """:func:`one_way_deficit` of ``p`` from its slope row ``d``, the
    ``shape._slope_row`` of ``p`` at the requested grid: the two endpoint
    branches, and the interior one, (delta, theta), where the row brackets
    an interior minimum."""
    s, delta0, delta_halfpi = _endpoint_values(p)
    extrema = _row_extrema(p, d, minimum_only=True)
    interior = (extrema[0].value - s, extrema[0].theta) if extrema else None
    return DeficitResult(*_pick(delta0, delta_halfpi, interior))


def _log2(x: np.ndarray) -> np.ndarray:
    # math.log2 per element: np.log2 is not correctly rounded, and differs
    # from it in the last bit on ~0.2% of inputs
    return np.fromiter(map(math.log2, x.tolist()), float, x.size)


def _plogp(w: np.ndarray) -> np.ndarray:
    # the terms w*log2(w) that core._entropy_bits subtracts; a weight <= 0
    # takes 1*log2(1) = 0.0, which leaves the sum as skipping it does; each
    # distinct weight is logged once and gathered back
    w, back = np.unique(np.where(w > 0.0, w, 1.0), return_inverse=True)
    return (w * _log2(w))[back]


def endpoint_columns(q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`endpoint_deficit` over the states (q1[k], q2[k]), as columns.

    Returns (delta, at_zero, theta): the winning delta, True where AtZero
    wins (AtHalfPi elsewhere), and its angle.  Each entry is ``==`` to
    ``endpoint_deficit`` of that state: the closed forms run the same
    float operations in the same order, add, subtract, multiply and
    divide in numpy (IEEE-exact), and ``math.log2`` and
    ``math.hypot`` per element, because ``np.log2`` and ``np.hypot`` differ
    from them in the last bit on a fraction of inputs.  ``math.log2`` runs
    once per distinct value of each of the four weight columns q1, q2,
    1 - s and s/2, which repeat their values on a grid (100, 50, 161 and
    184 distinct values over the 2550 labelled cells of ``sweep(100)``),
    and per element in the binary entropy of the hypot.  The caller keeps
    the 1-d float arrays inside the triangle; nothing is validated or
    clamped here.
    """
    s = q1 + q2
    rest = _plogp(1.0 - s)
    half = _plogp(s / 2.0)
    pre = 0.0 - _plogp(q1) - _plogp(q2) - rest
    r = np.fromiter(map(math.hypot, (1.0 - s).tolist(), (q1 - q2).tolist()), float, s.size)
    # binary_entropy((1 + r)/2), which is 0 from x = 1 on
    x = np.minimum((1.0 + r) / 2.0, 1.0)
    inside = x < 1.0
    x_in = np.where(inside, x, 0.5)
    h = np.where(inside, -x_in * _log2(x_in) - (1.0 - x_in) * _log2(1.0 - x_in), 0.0)
    delta0 = 0.0 - half - half - rest - pre
    delta_halfpi = 1.0 + h - pre
    # the tie rule of _pick over the two endpoint branches
    best = np.where(delta_halfpi < delta0, delta_halfpi, delta0)
    at_zero = delta0 - best < TIE_TOL
    return np.where(at_zero, delta0, delta_halfpi), at_zero, np.where(at_zero, 0.0, HALF_PI)


def endpoint_deficit(p: StateParams) -> DeficitResult:
    """Deficit over the two closed-form endpoint branches alone.

    Equals :func:`one_way_deficit` wherever the entropy curve has no interior
    minimum, with the same tie rule, at the cost of three closed forms.
    """
    return DeficitResult(*_pick(*_endpoint_values(p)[1:], None))


def naive_deficit(p: StateParams) -> DeficitResult:
    """Deficit per the naive endpoint-curvature rule; can be wrong.

    If finite-difference estimates of the entropy curvature at both ends are
    negative, the rule takes the interior extremum; otherwise the better
    endpoint, with the tie rule of :func:`endpoint_deficit`.  The estimates
    are parabolic, since both endpoint slopes vanish, at the step
    ``_NAIVE_FD_STEP``.  Where the curvature at theta = 0 diverges
    (anywhere off the Cartesian axes), the finite difference picks up the
    divergence direction at that scale, which is all the rule as published
    offers.  For bimodal curves whose interior minimum undercuts both
    endpoints, the rule keeps the endpoint and overestimates the deficit.
    """
    h = _NAIVE_FD_STEP
    d2_zero = 2.0 * (post_entropy(p, h) - post_entropy(p, 0.0)) / (h * h)
    d2_half = 2.0 * (post_entropy(p, HALF_PI - h) - post_entropy(p, HALF_PI)) / (h * h)
    if d2_zero < 0.0 and d2_half < 0.0:
        ext = interior_minimum(p)
        if ext is not None:
            return DeficitResult(
                delta=ext.value - pre_entropy(p),
                branch=Branch.INTERIOR,
                optimal_theta=ext.theta,
                tie=False,
            )
        # rule premise failed to produce an interior extremum; fall back
    return endpoint_deficit(p)
