"""Independent reference route used by every correctness check of the benchmark.

Nothing here imports :mod:`xdeficit`.  Each post-measured state is built as an
explicit 4x4 matrix from the definition of the family and of a projective
measurement on qubit B, and diagonalised with ``numpy.linalg.eigvalsh``.  The
minimisation over the measurement angle is a dense grid plus a local
golden-section polish of its own.  The module also holds the published
landmark positions and the jump angles of a 40-digit solve, which the
landmark checks compare against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

HALF_PI = math.pi / 2.0

GRID_N = 4096
POLISH_TOL = 1e-11

# Jump-angle table: published boundary positions (q1, q2) and the jump angles
# in rad.  The five trajectory angles come from a 40-digit Newton solve of
# {dS/dtheta = 0, S(theta) = S(0)} in (q1, theta); the table as printed has
# 0.6252 and 1.0409 for the rows q1 = 0.676082 and 0.721590, which are the
# interior minimisers about 1e-5 in q1 away from the boundary.  The first row
# is the axis limit (angle 0), the last the intersection of the
# equal-endpoint and half-pi curves (angle pi/2).
JUMP_TABLE = (
    (0.5, 0.0, 0.0),
    (0.544535, 0.55 - 0.544535, 0.1267),
    (0.588104, 0.60 - 0.588104, 0.2470),
    (0.631766, 0.65 - 0.631766, 0.4020),
    (0.676082, 0.70 - 0.676082, 0.6266),
    (0.721590, 0.75 - 0.721590, 1.0392),
    (0.739409, 0.029686, HALF_PI),
)

_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_KET_00 = np.array([1.0, 0.0, 0.0, 0.0])
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def density(q1: float, q2: float) -> np.ndarray:
    """q1 |Psi+><Psi+| + q2 |Psi-><Psi-| + (1 - q1 - q2) |00><00|, basis |ab>."""
    return (
        q1 * np.outer(_PSI_PLUS, _PSI_PLUS)
        + q2 * np.outer(_PSI_MINUS, _PSI_MINUS)
        + (1.0 - q1 - q2) * np.outer(_KET_00, _KET_00)
    )


def _entropy(lam: np.ndarray) -> np.ndarray:
    """-sum(lam log2 lam) over the last axis, counting only lam > 0."""
    pos = lam > 0.0
    safe = np.where(pos, lam, 1.0)
    return -np.sum(np.where(pos, lam * np.log2(safe), 0.0), axis=-1)


def pre_entropy(q1: float, q2: float) -> float:
    return float(_entropy(np.linalg.eigvalsh(density(q1, q2))))


def post_entropy(q1: float, q2: float, thetas) -> np.ndarray:
    """Entropy in bits of the state after measuring qubit B along polar angle theta.

    The measurement direction is (sin theta, 0, cos theta); its projectors
    (I +- n.sigma)/2 act on B, so I (x) Pi is block diagonal with two copies
    of Pi.  The averaged state sum_k (I (x) Pi_k) rho (I (x) Pi_k) is
    diagonalised for every angle at once.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    rho = density(q1, q2)
    c = np.cos(thetas)[:, None, None]
    s = np.sin(thetas)[:, None, None]
    pauli = c * np.array([[1.0, 0.0], [0.0, -1.0]]) + s * np.array([[0.0, 1.0], [1.0, 0.0]])
    post = np.zeros((len(thetas), 4, 4))
    for sign in (1.0, -1.0):
        pi_b = 0.5 * (np.eye(2) + sign * pauli)
        op = np.zeros((len(thetas), 4, 4))
        op[:, :2, :2] = pi_b
        op[:, 2:, 2:] = pi_b
        post += op @ rho @ op
    return _entropy(np.linalg.eigvalsh(post))


def _s(q1: float, q2: float, theta: float) -> float:
    return float(post_entropy(q1, q2, theta)[0])


def _golden(f, lo: float, hi: float, tol: float = POLISH_TOL) -> tuple[float, float]:
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


@functools.lru_cache(maxsize=4)
def _grid(q1: float, q2: float) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.linspace(0.0, HALF_PI, GRID_N + 1)
    return thetas, post_entropy(q1, q2, thetas)


def brute_min(q1: float, q2: float) -> tuple[float, float]:
    """(deficit in bits, angle) of the global minimum over [0, pi/2]."""
    thetas, y = _grid(q1, q2)
    i = int(np.argmin(y))
    lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, GRID_N)]
    best = min(
        (_golden(lambda t: _s(q1, q2, t), lo, hi)[::-1], (y[0], 0.0), (y[-1], HALF_PI)),
        key=lambda vt: vt[0],
    )
    return best[0] - pre_entropy(q1, q2), best[1]


def interior_min(q1: float, q2: float) -> float | None:
    """Lowest polished interior local minimum of S(theta), or None if none."""
    thetas, y = _grid(q1, q2)
    inner = np.nonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:]))[0] + 1
    values = [
        _golden(lambda t: _s(q1, q2, t), thetas[i - 1], thetas[i + 1])[1]
        for i in inner
        if 1 < i < GRID_N - 1
    ]
    return min(values) if values else None


def has_interior_extremum(q1: float, q2: float) -> bool:
    """Does S(theta) turn on the grid away from the two stationary ends?"""
    _, y = _grid(q1, q2)
    d = np.diff(y)[1:-1]
    return bool(np.any(d[:-1] * d[1:] < 0.0))


def deficit_at(q1: float, q2: float, theta: float) -> float:
    return _s(q1, q2, theta) - pre_entropy(q1, q2)


def curvature(q1: float, q2: float, theta: float, h: float = 1e-3) -> float:
    """Second theta-derivative of S in bits at theta = 0 or pi/2.

    S is even about both ends, so (S(end +- h) - S(end)) * 2 / h^2 estimates
    S'' to O(h^2); one Richardson step takes the error to O(h^4).
    """
    step = h if theta == 0.0 else -h

    def quotient(k: float) -> float:
        pts = post_entropy(q1, q2, [theta, theta + k * step])
        return 2.0 * (pts[1] - pts[0]) / (k * h) ** 2

    return (4.0 * quotient(0.5) - quotient(1.0)) / 3.0


def endpoint_gap(q1: float, q2: float) -> float:
    """S(0) - S(pi/2): zero on the equal-endpoint boundary."""
    y = post_entropy(q1, q2, [0.0, HALF_PI])
    return float(y[0] - y[1])


def jump_gap(q1: float, q2: float) -> float:
    """S(0) minus the interior minimum: zero on the jump boundary."""
    m = interior_min(q1, q2)
    return math.nan if m is None else _s(q1, q2, 0.0) - m


def jump_boundary_q2(total: float) -> float:
    """Jump-boundary q2 on the path q1 + q2 = total, interpolated from JUMP_TABLE."""
    totals = [q1 + q2 for q1, q2, _ in JUMP_TABLE]
    return float(np.interp(total, totals, [q2 for _, q2, _ in JUMP_TABLE]))
