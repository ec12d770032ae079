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

from .core import (
    StateParams,
    _entropy_halfpi,
    _entropy_zero,
    _pre_entropy,
    post_entropy,
    pre_entropy,
)
from .shape import interior_minimum

HALF_PI = math.pi / 2.0

# Two branch values closer than this tie; endpoint branches win ties because
# they are closed-form and the interior phase is the exceptional one.
TIE_TOL = 1e-9


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


def _endpoint_values(q1: float, q2: float) -> tuple[float, float, float]:
    # (pre-measurement entropy, delta0, delta_halfpi) from the closed forms
    s = _pre_entropy(q1, q2)
    return s, _entropy_zero(q1, q2) - s, _entropy_halfpi(q1, q2) - s


def branch_values(
    p: StateParams, grid_n: int = 512, refine_tol: float = 1e-10
) -> tuple[float, float, tuple[float, float] | None]:
    """Candidate deficits (delta0, delta_halfpi, interior) in bits.

    ``interior`` is None when the entropy curve has no interior minimum,
    otherwise a (delta, vartheta) pair from the shape analysis.
    """
    s, delta0, delta_halfpi = _endpoint_values(p.q1, p.q2)
    ext = interior_minimum(p, grid_n=grid_n, refine_tol=refine_tol)
    interior = None if ext is None else (ext.value - s, ext.theta)
    return delta0, delta_halfpi, interior


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


def one_way_deficit(
    p: StateParams, grid_n: int = 512, refine_tol: float = 1e-10
) -> DeficitResult:
    """Minimize the measurement-dependent deficit over the three branches."""
    return DeficitResult(*_pick(*branch_values(p, grid_n=grid_n, refine_tol=refine_tol)))


def endpoint_branch(q1: float, q2: float) -> tuple[float, Branch, float, bool]:
    """:func:`endpoint_deficit` at float level: (delta, branch, theta, tie).

    The same closed forms and tie rule, without building a ``StateParams``
    or a ``DeficitResult``, for loops over many states.  The caller keeps
    (q1, q2) inside the triangle; nothing is validated or clamped here.
    """
    _, delta0, delta_halfpi = _endpoint_values(q1, q2)
    return _pick(delta0, delta_halfpi, None)


def endpoint_deficit(p: StateParams) -> DeficitResult:
    """Deficit over the two closed-form endpoint branches alone.

    Equals :func:`one_way_deficit` wherever the entropy curve has no interior
    minimum, with the same tie rule, at the cost of three closed forms.
    """
    return DeficitResult(*endpoint_branch(p.q1, p.q2))


def _fd_second_derivative_at_ends(p: StateParams, h: float) -> tuple[float, float]:
    # parabolic estimates exploiting the zero endpoint slopes
    f = lambda t: post_entropy(p, t)
    d2_zero = 2.0 * (f(h) - f(0.0)) / (h * h)
    d2_half = 2.0 * (f(HALF_PI - h) - f(HALF_PI)) / (h * h)
    return d2_zero, d2_half


def naive_deficit(p: StateParams, fd_step: float = 1e-3) -> DeficitResult:
    """Deficit per the naive endpoint-curvature rule; can be wrong.

    If finite-difference estimates of the entropy curvature at both ends are
    negative, the rule takes the interior extremum; otherwise the better
    endpoint, with the tie rule of :func:`endpoint_deficit`.  Where the
    curvature at theta = 0 diverges (anywhere off the Cartesian axes), the
    finite difference picks up the divergence direction at scale
    ``fd_step``, which is all the rule as published offers.  For
    bimodal curves whose interior minimum undercuts both endpoints, the rule
    keeps the endpoint and overestimates the deficit.
    """
    d2_zero, d2_half = _fd_second_derivative_at_ends(p, fd_step)
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
