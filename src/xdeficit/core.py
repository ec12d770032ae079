"""Closed-form scalar mathematics of the two-parameter X-state family.

The family mixes the Bell states (|01> +- |10>)/sqrt(2), with weights q1 and
q2, and the product state |00>, with weight 1 - q1 - q2.  The valid parameter
domain is the triangle q1 >= 0, q2 >= 0, q1 + q2 <= 1.  A projective
measurement on qubit B is parametrized by a polar angle theta (the azimuthal
angle drops out for this family), and the spectrum of the measurement-averaged
state is known in closed form.  All entropies are reported in bits.

Everything in this module is a pure function of its arguments and safe to call
from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EDGE_TOL = 1e-12

# r values closer than this to 0 or 1 make the half-pi curvature formula
# degenerate (0/0 mixtures); callers get None instead of garbage.
RADIUS_DEGENERACY_TOL = 1e-9

_LEAST_SUBNORMAL = 5e-324


class DomainError(ValueError):
    """Raised when parameters leave the valid probability domain."""


@dataclass(frozen=True)
class StateParams:
    """Point (q1, q2) in the triangular parameter domain.

    Construction rejects violations of q1 >= 0, q2 >= 0, q1 + q2 <= 1 beyond
    a 1e-12 tolerance; float dust inside the tolerance is clamped.
    """

    q1: float
    q2: float

    def __post_init__(self):
        q1, q2 = float(self.q1), float(self.q2)
        if not (math.isfinite(q1) and math.isfinite(q2)):
            raise DomainError(f"non-finite state parameters ({q1}, {q2})")
        if q1 < -EDGE_TOL or q2 < -EDGE_TOL or q1 + q2 > 1.0 + EDGE_TOL:
            raise DomainError(
                f"require q1 >= 0, q2 >= 0, q1 + q2 <= 1; got ({q1}, {q2})"
            )
        object.__setattr__(self, "q1", min(max(q1, 0.0), 1.0))
        object.__setattr__(self, "q2", min(max(q2, 0.0), 1.0))

    def swapped(self) -> "StateParams":
        """Mirror image under the q1 <-> q2 exchange symmetry."""
        return StateParams(self.q2, self.q1)


@dataclass(frozen=True)
class EndpointDiagnostics:
    """Curvature diagnostics of the post-measured entropy at the interval ends.

    ``r`` is the auxiliary radius sqrt((1-q1-q2)^2 + (q1-q2)^2).  ``s2_halfpi``
    is the second derivative of the post-measured entropy at theta = pi/2
    (natural-log units; None when r is degenerately close to 0 or 1).
    ``s2_zero_axis`` is the second derivative at theta = 0, which is finite
    only on the Cartesian axes q1*q2 = 0; off the axes it diverges and the
    field is None.  Only the signs and zero sets of these values carry meaning.
    """

    r: float
    s2_halfpi: float | None
    s2_zero_axis: float | None


def _entropy_bits(weights) -> float:
    """Shannon entropy -sum(w*log2(w)) in bits over the strictly positive weights.

    Zero and negative entries (float dust) contribute nothing, so 0*log(0) = 0
    and tiny positive weights are kept exactly; no tolerance gates the sum.
    """
    out = 0.0
    for w in weights:
        if w > 0.0:
            out -= w * math.log2(w)
    return out


def _entropy_bits_grid(*weights) -> np.ndarray:
    # array form of _entropy_bits: the same terms in the same order, weights
    # <= 0 (float dust) contribute nothing
    out = 0.0
    for w in weights:
        out = out - np.where(w > 0.0, w, 0.0) * np.log2(np.where(w > 0.0, w, 1.0))
    return out


def binary_entropy(x: float) -> float:
    """Shannon binary entropy -x*log2(x) - (1-x)*log2(1-x) in bits."""
    x = float(x)
    if x < -EDGE_TOL or x > 1.0 + EDGE_TOL:
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def quaternary_entropy(x1: float, x2: float, x3: float, x4: float) -> float:
    """Entropy in bits of a four-outcome distribution, with 0*log(0) = 0.

    Entries may carry negative float dust down to -1e-12 (clamped to zero);
    the four values must sum to 1 within 1e-10.
    """
    xs = [float(x1), float(x2), float(x3), float(x4)]
    for x in xs:
        if x < -EDGE_TOL:
            raise DomainError(f"probability {x} below zero beyond tolerance")
    total = sum(xs)
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"probabilities sum to {total}, expected 1")
    return _entropy_bits(xs)


def family_spectrum(p: StateParams) -> np.ndarray:
    """Eigenvalues (1-q1-q2, q1, q2, 0) of the un-measured density matrix.

    The order is fixed: |00> weight first, then the two Bell weights, then the
    structural zero.  Fidelity and reporting rely on this order.
    """
    lam = np.array([1.0 - (p.q1 + p.q2), p.q1, p.q2, 0.0])
    return np.clip(lam, 0.0, 1.0)


def pre_entropy(p: StateParams) -> float:
    """Entropy in bits of the state before any measurement."""
    return _pre_entropy(p.q1, p.q2)


def _pre_entropy(q1: float, q2: float) -> float:
    # the float-level body of pre_entropy, for callers that hold no
    # StateParams.  The two Bell weights first, so that the sum does not
    # depend on their order; and the order of endpoint_entropy_zero, so that
    # both sums agree to the last bit on the diagonal, where the deficit is
    # exactly 0
    return _entropy_bits((q1, q2, 1.0 - (q1 + q2)))


def _spectrum_into(w, q1, q2, ct, st) -> np.ndarray:
    # the four closed-form eigenvalues at (q1, q2) and the angles whose cosine
    # and sine are ct and st, all broadcast together, written in place into
    # w[:4]; w is a float buffer of shape (5, *broadcast shape) and w[4] is
    # scratch.  a and b take q1 + q2 as one sum and c enters only squared,
    # which keeps every eigenvalue bit-symmetric under the q1 <-> q2 exchange
    s = q1 + q2
    a = 1.0 - s
    b = 1.0 - 2.0 * s
    c = q1 - q2
    # w[k, ...] keeps each slot a view, also for 0-d angles
    lam0, lam1, lam2, lam3, rad_m = (w[k, ...] for k in range(5))
    np.multiply(c, st, out=lam0)
    np.square(lam0, out=lam0)  # (c sin theta)^2
    np.multiply(b, ct, out=rad_m)
    np.add(a, rad_m, out=lam1)
    np.subtract(a, rad_m, out=rad_m)
    np.square(lam1, out=lam1)
    np.square(rad_m, out=rad_m)
    np.add(lam1, lam0, out=lam1)
    np.add(rad_m, lam0, out=rad_m)
    np.sqrt(lam1, out=lam1)  # rad_p
    np.sqrt(rad_m, out=rad_m)
    np.multiply(a, ct, out=lam0)  # a cos theta
    np.subtract(1.0, lam0, out=lam3)
    np.add(1.0, lam0, out=lam2)
    np.add(lam2, lam1, out=lam0)  # 1 + a cos theta + rad_p
    np.subtract(lam2, lam1, out=lam1)  # 1 + a cos theta - rad_p
    np.add(lam3, rad_m, out=lam2)  # 1 - a cos theta + rad_m
    np.subtract(lam3, rad_m, out=lam3)  # 1 - a cos theta - rad_m
    lam = w[:4]
    np.multiply(lam, 0.25, out=lam)
    return lam


def curve_workspace(shape) -> np.ndarray:
    """Scratch buffer for :func:`entropy_curve` over a broadcast ``shape``.

    One buffer serves any number of calls of that shape; reusing it keeps
    the kernel free of allocations.
    """
    return np.empty((9,) + tuple(shape))


def entropy_curve(q1, q2, ct, st, work: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Post-measured entropy in bits from the cosine and sine of the angles.

    The kernel behind :func:`post_entropy_grid`: q1, q2, ct = cos(theta) and
    st = sin(theta) broadcast together.  The four eigenvalues go into one
    ``(4, ...)`` buffer; clipping, the logarithms and the products run once
    over it, and the four terms are summed in eigenvalue order.  ``work``,
    from :func:`curve_workspace` for the broadcast shape, holds every
    intermediate, and ``out`` receives the result; a call given both
    allocates nothing.  The caller keeps (q1, q2) inside the triangle;
    nothing is validated here.
    """
    if work is None or out is None:
        shape = np.broadcast_shapes(np.shape(q1), np.shape(q2), np.shape(ct), np.shape(st))
        work = curve_workspace(shape) if work is None else work
        out = np.empty(shape) if out is None else out
    lam = _spectrum_into(work[:5], q1, q2, ct, st)
    # clipped to [0, 1] as np.clip does, without its Python-level wrapper
    np.maximum(lam, 0.0, out=lam)
    np.minimum(lam, 1.0, out=lam)
    # same rule as _entropy_bits: weights <= 0 (float dust) contribute
    # nothing.  Raised to the least subnormal, a zero weight has a finite
    # logarithm (-1074) and its term 0 * -1074 = -0.0 leaves the sum as it is
    terms = work[5:]
    np.maximum(lam, _LEAST_SUBNORMAL, out=terms)
    np.log2(terms, out=terms)
    np.multiply(lam, terms, out=terms)
    np.subtract(0.0, terms[0, ...], out=out)
    for k in (1, 2, 3):
        np.subtract(out, terms[k, ...], out=out)
    return out[()]


def post_spectrum(p: StateParams, theta) -> np.ndarray:
    """Closed-form eigenvalues of the measurement-averaged state.

    Returns the four eigenvalues as the last axis of the result; ``theta``
    may be a scalar or an ndarray of polar angles.  The azimuthal measurement
    angle does not enter.  The formula extends smoothly to any real theta,
    which the symmetry tests exploit.  The spectrum that :func:`entropy_curve`
    sums.
    """
    theta = np.asarray(theta, dtype=float)
    lam = _spectrum_into(np.empty((5,) + theta.shape), p.q1, p.q2, np.cos(theta), np.sin(theta))
    return np.moveaxis(lam, 0, -1).copy()


def _post_entropy_scalar(q1: float, q2: float, theta: float) -> float:
    # scalar fast path; hot inner loop of every refinement and sweep.  The
    # expressions of _spectrum_into, bit-symmetric under q1 <-> q2
    a = 1.0 - (q1 + q2)
    b = 1.0 - 2.0 * (q1 + q2)
    c = q1 - q2
    ct = math.cos(theta)
    st = math.sin(theta)
    rad_p = math.sqrt((a + b * ct) ** 2 + (c * st) ** 2)
    rad_m = math.sqrt((a - b * ct) ** 2 + (c * st) ** 2)
    # same rule as _entropy_bits, inlined to spare a call on the hottest path
    out = 0.0
    for lam in (
        0.25 * (1.0 + a * ct + rad_p),
        0.25 * (1.0 + a * ct - rad_p),
        0.25 * (1.0 - a * ct + rad_m),
        0.25 * (1.0 - a * ct - rad_m),
    ):
        if lam > 0.0:
            out -= lam * math.log2(lam)
    return out


def post_entropy_slope(p: StateParams, theta: float) -> float:
    """Derivative dS/dtheta of :func:`post_entropy` in bits per radian, scalar theta.

    The closed form -sum(lam_i' * log2(lam_i)) over the eigenvalues of
    :func:`post_spectrum`.  It vanishes at theta = 0 and pi/2 for every state.
    Within ~1e-7 rad of theta = 0 off the Cartesian axes the smallest
    eigenvalue (~theta^2) cancels against 1 and the result loses its sign;
    callers evaluate it further inside.
    """
    # the -sum(lam_i')/ln 2 term drops out because the eigenvalues sum to 1;
    # lam_i' comes from differentiating the rad_p and rad_m of
    # _post_entropy_scalar, and weights <= 0 contribute nothing, the limit of
    # lam' log lam
    a = 1.0 - (p.q1 + p.q2)
    b = 1.0 - 2.0 * (p.q1 + p.q2)
    c = p.q1 - p.q2
    ct = math.cos(theta)
    st = math.sin(theta)
    up = a + b * ct
    um = a - b * ct
    cc = c * c * st * ct
    rad_p = math.sqrt(up * up + (c * st) ** 2)
    rad_m = math.sqrt(um * um + (c * st) ** 2)
    # d(rad)/dtheta; a zero radius is a kink of a double eigenvalue, whose
    # two log terms then cancel whatever slope is taken
    drad_p = (cc - b * st * up) / rad_p if rad_p > 0.0 else 0.0
    drad_m = (cc + b * st * um) / rad_m if rad_m > 0.0 else 0.0
    ast = a * st
    out = 0.0
    for lam, dlam in (
        (0.25 * (1.0 + a * ct + rad_p), 0.25 * (drad_p - ast)),
        (0.25 * (1.0 + a * ct - rad_p), -0.25 * (drad_p + ast)),
        (0.25 * (1.0 - a * ct + rad_m), 0.25 * (drad_m + ast)),
        (0.25 * (1.0 - a * ct - rad_m), 0.25 * (ast - drad_m)),
    ):
        if lam > 0.0:
            out -= dlam * math.log2(lam)
    return out


def post_entropy(p: StateParams, theta) -> float | np.ndarray:
    """Entropy in bits of the measurement-averaged state at angle theta.

    Symmetric under theta -> pi - theta, and under the q1 <-> q2 exchange to
    the bit: ``post_entropy(p, t) == post_entropy(p.swapped(), t)``, and so
    are the endpoint forms, the slope and the deficit built on them.  Accepts
    scalar or ndarray theta.
    """
    if np.ndim(theta) == 0:
        return _post_entropy_scalar(p.q1, p.q2, float(theta))
    return post_entropy_grid(p.q1, p.q2, theta)


def post_entropy_grid(q1, q2, theta) -> np.ndarray:
    """Post-measured entropy in bits with q1, q2 and theta broadcast together.

    The array form of :func:`post_entropy`: column arrays of states against a
    row of angles give one curve per state, elementwise identical to calling
    ``post_entropy`` state by state.  A thin face of :func:`entropy_curve`,
    which callers that reuse one set of angles can call with its cosines and
    sines directly.  The caller keeps (q1, q2) inside the triangle; nothing
    is validated here.
    """
    theta = np.asarray(theta, dtype=float)
    return entropy_curve(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float),
                         np.cos(theta), np.sin(theta))


def endpoint_entropy_zero(p: StateParams) -> float:
    """Post-measured entropy at theta = 0 in closed form.

    The spectrum there collapses to (1-s, s/2, s/2, 0) with s = q1 + q2.
    """
    return _entropy_zero(p.q1, p.q2)


def _entropy_zero(q1: float, q2: float) -> float:
    # the float-level body of endpoint_entropy_zero
    s = q1 + q2
    return _entropy_bits((s / 2.0, s / 2.0, 1.0 - s))


def endpoint_entropy_zero_grid(q1, q2) -> np.ndarray:
    """Array form of :func:`endpoint_entropy_zero`; q1 and q2 broadcast together.

    The same formula in the same order, so it matches the scalar form to an
    ulp of the logarithm.  The caller keeps (q1, q2) inside the triangle;
    nothing is validated here.
    """
    s = np.asarray(q1, dtype=float) + np.asarray(q2, dtype=float)
    return _entropy_bits_grid(s / 2.0, s / 2.0, 1.0 - s)


def aux_radius(p: StateParams) -> float:
    """Radius sqrt((1-q1-q2)^2 + (q1-q2)^2) governing the theta = pi/2 end."""
    return math.hypot(1.0 - (p.q1 + p.q2), p.q1 - p.q2)


def endpoint_entropy_halfpi(p: StateParams) -> float:
    """Post-measured entropy at theta = pi/2: 1 + h((1+r)/2) bits."""
    return _entropy_halfpi(p.q1, p.q2)


def _entropy_halfpi(q1: float, q2: float) -> float:
    # the float-level body of endpoint_entropy_halfpi, r being aux_radius
    r = math.hypot(1.0 - (q1 + q2), q1 - q2)
    return 1.0 + binary_entropy((1.0 + r) / 2.0)


def endpoint_entropy_halfpi_grid(q1, q2) -> np.ndarray:
    """Array form of :func:`endpoint_entropy_halfpi`; q1 and q2 broadcast together.

    Unvalidated like :func:`endpoint_entropy_zero_grid`.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    r = np.hypot(1.0 - (q1 + q2), q1 - q2)
    # binary_entropy clamps its argument to [0, 1] the same way
    x = np.clip((1.0 + r) / 2.0, 0.0, 1.0)
    return 1.0 + _entropy_bits_grid(x, 1.0 - x)


def s2_halfpi(p: StateParams) -> float | None:
    """Second theta-derivative of the post-measured entropy at theta = pi/2.

    Evaluated in natural-log units; only the sign and the zero set are
    contractually meaningful.  Returns None when r is within 1e-9 of 0 or 1
    (degenerate radius; the value is never needed there).  The scalar face of
    :func:`s2_halfpi_grid`, which holds the formula.
    """
    val = float(s2_halfpi_grid(p.q1, p.q2))
    return None if math.isnan(val) else val


def s2_halfpi_grid(q1, q2) -> np.ndarray:
    """Second theta-derivative at theta = pi/2 over (q1, q2) arrays broadcast together.

    NaN marks the degenerate radii where :func:`s2_halfpi` returns None.
    Unvalidated like :func:`endpoint_entropy_zero_grid`.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    r = np.hypot(1.0 - (q1 + q2), q1 - q2)
    ok = (r >= RADIUS_DEGENERACY_TOL) & (r <= 1.0 - RADIUS_DEGENERACY_TOL)
    r = np.where(ok, r, 0.5)  # keeps the masked lanes free of 0/0 and log(0)
    a = 1.0 - (q1 + q2)
    b = 1.0 - 2.0 * (q1 + q2)
    c = q1 - q2
    term1 = c * c / (2.0 * r**3) * (r * r - b * b) * np.log((1.0 + r) / (1.0 - r))
    term2 = a * a / (1.0 - r * r) * (1.0 - 2.0 * b * (1.0 - b / (2.0 * r * r)))
    return np.where(ok, term1 - term2, np.nan)


def s2_zero_axis(q: float) -> float:
    """Second theta-derivative at theta = 0 on a Cartesian axis.

    ``q`` is the single nonzero mixture weight.  Natural-log units, sign
    significant.  The polynomial prefactor (1-q)(1-2q) vanishes at q = 1/2
    and q = 1; at q = 1 the logarithm diverges but the product limit is 0,
    which is returned directly.  As q -> 0 the value grows without bound.
    """
    q = float(q)
    if q < -EDGE_TOL or q > 1.0 + EDGE_TOL:
        raise DomainError(f"axis weight {q} outside [0, 1]")
    q = min(max(q, 0.0), 1.0)
    poly = (1.0 - q) * (1.0 - 2.0 * q)
    if poly == 0.0:
        return 0.0
    if q == 0.0:
        return math.inf
    return poly / (2.0 - 3.0 * q) * math.log(2.0 * (1.0 - q) / q)


def endpoint_diagnostics(p: StateParams) -> EndpointDiagnostics:
    """Curvature diagnostics at both ends of the measurement interval.

    ``s2_zero_axis`` is populated only when q1*q2 = 0; off the axes the
    theta = 0 second derivative diverges and None marks it.
    """
    on_axis = min(p.q1, p.q2) <= EDGE_TOL
    return EndpointDiagnostics(
        r=aux_radius(p),
        s2_halfpi=s2_halfpi(p),
        s2_zero_axis=s2_zero_axis(max(p.q1, p.q2)) if on_axis else None,
    )


def family_fidelity(p: StateParams, p2: StateParams) -> float:
    """Fidelity between two members of the family.

    All members are simultaneously diagonal in the basis |00>, the two Bell
    states and |11>, so F reduces to (sum_i sqrt(lam_i * lam_i'))^2 over the
    spectra in the fixed basis order.
    """
    lam = family_spectrum(p)
    lam2 = family_spectrum(p2)
    overlap = float(np.sqrt(lam * lam2).sum())
    return min(overlap * overlap, 1.0)
