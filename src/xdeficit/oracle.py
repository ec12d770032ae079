"""Brute-force verification path through explicit density matrices.

Instead of the closed forms in :mod:`xdeficit.core`, this module builds the
4x4 density matrix, applies a rank-1 projective measurement on qubit B by
matrix multiplication, and diagonalizes the result with
``numpy.linalg.eigvalsh``.  It exists to validate the closed forms and to
supply independently computed expected values for tests; it is a correctness
oracle, not a fast path.  Only the state container and the entropy sum come
from :mod:`xdeficit.core`; :func:`equivalence_sweep` calls the closed form
solely to compare against it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import StateParams, post_entropy, quaternary_entropy

HERMITICITY_TOL = 1e-10

# Eigensolver residuals land around 1e-15; anything above this clamp is a real
# negative eigenvalue and gets rejected upstream.
EIGENVALUE_CLAMP = 1e-10

_I2 = np.eye(2, dtype=complex)


def build_density(p: StateParams) -> np.ndarray:
    """Density matrix of the family member in the computational basis.

    Basis order |00>, |01>, |10>, |11>.  The Bell-state mixture fills the
    central 2x2 block; the |00> weight sits in the corner.
    """
    s = p.q1 + p.q2
    d = p.q1 - p.q2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - s
    rho[1, 1] = rho[2, 2] = s / 2.0
    rho[1, 2] = rho[2, 1] = d / 2.0
    return rho


def projectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal rank-1 projector pair for the measurement direction.

    The direction is the SU(2) rotation of the computational basis by polar
    angle theta and azimuthal angle phi.  The two projectors sum to the
    identity and are mutually orthogonal.
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    e_minus = complex(math.cos(phi), -math.sin(phi))
    e_plus = complex(math.cos(phi), math.sin(phi))
    v = np.array([[c, -e_minus * s], [e_plus * s, c]], dtype=complex)
    pi0 = v @ np.diag([1.0 + 0j, 0.0]) @ v.conj().T
    pi1 = v @ np.diag([0.0, 1.0 + 0j]) @ v.conj().T
    return pi0, pi1


def post_measured_state(rho: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Weighted average of the state after measuring qubit B.

    Computes sum_k (I x Pi_k) rho (I x Pi_k)^dagger.  Hermiticity and unit
    trace are preserved.
    """
    out = np.zeros_like(rho)
    for pik in projectors(theta, phi):
        big = np.kron(_I2, pik)
        out += big @ rho @ big.conj().T
    return out


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Four real eigenvalues of a 4x4 Hermitian matrix, descending.

    Raises ValueError for non-Hermitian input (tolerance 1e-10).  The input is
    symmetrized before ``numpy.linalg.eigvalsh`` so that rounding-level
    asymmetry cannot leak into the spectrum.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))[::-1]


def oracle_post_entropy(p: StateParams, theta: float, phi: float) -> float:
    """Post-measurement entropy in bits via the dense-matrix route."""
    rho = post_measured_state(build_density(p), theta, phi)
    vals = hermitian_eigenvalues(rho)
    if np.min(vals) < -EIGENVALUE_CLAMP:
        raise ValueError(f"negative eigenvalue {np.min(vals)} beyond clamp")
    vals = np.clip(vals, 0.0, 1.0)
    return quaternary_entropy(*vals)


def equivalence_sweep(grid: int, random: int = 0, seed: int = 42) -> tuple[int, float]:
    """Compare the closed-form post-measurement entropy with the oracle.

    Covers every state of a ``grid`` x ``grid`` lattice on [0, 1]^2 inside
    the triangle at 8 polar angles in [0, pi/2] and 4 azimuthal angles, then
    ``random`` seeded draws of state, polar and azimuthal angle.  Returns the
    number of comparisons and the largest absolute deviation in bits.
    """
    worst = 0.0
    count = 0
    qs = np.linspace(0.0, 1.0, grid)
    thetas = np.linspace(0.0, math.pi / 2.0, 8)
    for q1 in qs:
        for q2 in qs:
            if q1 + q2 > 1.0 + 1e-12:
                continue
            p = StateParams(q1, q2)
            for theta in thetas:
                closed = post_entropy(p, float(theta))
                for phi in (0.0, 1.0, 2.0, 5.0):
                    worst = max(worst, abs(closed - oracle_post_entropy(p, float(theta), phi)))
                    count += 1
    rng = np.random.default_rng(seed)
    for _ in range(random):
        q1 = rng.random()
        q2 = rng.random()
        if q1 + q2 > 1.0:
            q1, q2 = 1.0 - q1, 1.0 - q2
        p = StateParams(q1, q2)
        theta = rng.random() * math.pi / 2.0
        phi = rng.random() * 2.0 * math.pi
        worst = max(worst, abs(post_entropy(p, theta) - oracle_post_entropy(p, theta, phi)))
        count += 1
    return count, worst
