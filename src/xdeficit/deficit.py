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

from .core import StateParams, endpoint_entropy_halfpi, endpoint_entropy_zero, post_entropy, pre_entropy
from .shape import interior_minimum

HALF_PI = math.pi / 2.0

# Two branch values closer than this tie; endpoint branches win ties because
# they are closed-form and the interior phase is the exceptional one.
TIE_TOL = 1e-9


class Branch(enum.Enum):
    AT_ZERO = "AtZero"
    INTERIOR = "Interior"
    AT_HALF_PI = "AtHalfPi"


# tie-break preference order
_BRANCH_RANK = {Branch.AT_ZERO: 0, Branch.AT_HALF_PI: 1, Branch.INTERIOR: 2}


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


def branch_values(
    p: StateParams, grid_n: int = 512, refine_tol: float = 1e-10
) -> tuple[float, float, tuple[float, float] | None]:
    """Candidate deficits (delta0, delta_halfpi, interior) in bits.

    ``interior`` is None when the entropy curve has no interior minimum,
    otherwise a (delta, vartheta) pair from the shape analysis.
    """
    s, delta0, delta_halfpi = _endpoint_values(p)
    ext = interior_minimum(p, grid_n=grid_n, refine_tol=refine_tol)
    interior = None if ext is None else (ext.value - s, ext.theta)
    return delta0, delta_halfpi, interior


def _select(
    delta0: float, delta_halfpi: float, interior: tuple[float, float] | None
) -> DeficitResult:
    candidates = [(delta0, Branch.AT_ZERO, 0.0), (delta_halfpi, Branch.AT_HALF_PI, HALF_PI)]
    if interior is not None:
        candidates.append((interior[0], Branch.INTERIOR, interior[1]))
    best_delta = min(c[0] for c in candidates)
    contenders = [c for c in candidates if c[0] - best_delta < TIE_TOL]
    contenders.sort(key=lambda c: _BRANCH_RANK[c[1]])
    delta, branch, theta = contenders[0]
    return DeficitResult(delta=delta, branch=branch, optimal_theta=theta, tie=len(contenders) > 1)


def one_way_deficit(
    p: StateParams, grid_n: int = 512, refine_tol: float = 1e-10
) -> DeficitResult:
    """Minimize the measurement-dependent deficit over the three branches."""
    return _select(*branch_values(p, grid_n=grid_n, refine_tol=refine_tol))


def endpoint_deficit(p: StateParams) -> DeficitResult:
    """Deficit over the two closed-form endpoint branches alone.

    Equals :func:`one_way_deficit` wherever the entropy curve has no interior
    minimum, with the same tie rule, at the cost of three closed forms.
    """
    _, delta0, delta_halfpi = _endpoint_values(p)
    return _select(delta0, delta_halfpi, None)


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
