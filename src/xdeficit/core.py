"""Closed-form mathematics of the two-parameter X-state family.

The family mixes the Bell states (|01> +- |10>)/sqrt(2), with weights q1 and
q2, and the product state |00>, with weight 1 - q1 - q2.  The valid parameter
domain is the triangle q1 >= 0, q2 >= 0, q1 + q2 <= 1.  A projective
measurement on qubit B is parametrized by a polar angle theta (the azimuthal
angle drops out for this family), and the spectrum of the measurement-averaged
state is known in closed form.  This module is the one that writes that
spectrum, and every quantity read from it: the entropy
(:func:`post_entropy`, with its array form :func:`post_entropy_grid`), the
slope dS/dtheta (:func:`post_entropy_slope`, with its array form
:func:`slope_curve`), the curvature d2S/dtheta2
(:func:`post_entropy_curvature`, with its array form
:func:`curvature_curve`) and the jump gap S(0) - S(theta)
(``_jump_gap``).  All of them are in bits.

The three scalar forms, on theta in [0, pi/2], write the spectrum in one
pair form: the eigenvalues come in two pairs, each through
w = 1 +- cos theta taken as 2 - h or h from h = 2 sin^2(theta/2), and the
smaller one of a pair as the pair's product over the larger one, so none
is a difference of numbers of order 1 where it vanishes, near theta = 0
and beside the edges.  The array curvature is the same pair form, line for
line, its two pairs run as (2, ...) blocks: the package's S'' has this one
formula, scalar and array.  The other array forms write each eigenvalue
directly (``_spectrum_into``): the slope row is bound by its numpy calls,
and its samples carry a sign only from ``shape.ENDPOINT_MARGIN`` on.

Everything in this module is a pure function of its arguments and safe to call
from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EDGE_TOL = 1e-12

_LEAST_SUBNORMAL = 5e-324


class DomainError(ValueError):
    """Raised when parameters leave the valid probability domain."""


@dataclass(frozen=True)
class StateParams:
    """Point (q1, q2) in the triangular parameter domain.

    Construction rejects violations of q1 >= 0, q2 >= 0, q1 + q2 <= 1 beyond
    a 1e-12 tolerance; float dust inside the tolerance is clamped to [0, 1].
    """

    q1: float
    q2: float

    def __init__(self, q1: float, q2: float):
        # the dataclass decorator keeps this __init__, which every path state
        # runs: one chained test, false also for NaN and infinities, and the
        # detailed checks only when it fails.  The clamp equals
        # min(max(x, 0.0), 1.0) bit for bit, -0.0 included; the fields are
        # written through the instance dict, as the class is frozen
        q1, q2 = float(q1), float(q2)
        if not (q1 >= -EDGE_TOL and q2 >= -EDGE_TOL and q1 + q2 <= 1.0 + EDGE_TOL):
            if not (math.isfinite(q1) and math.isfinite(q2)):
                raise DomainError(f"non-finite state parameters ({q1}, {q2})")
            raise DomainError(f"require q1 >= 0, q2 >= 0, q1 + q2 <= 1; got ({q1}, {q2})")
        fields = self.__dict__
        fields["q1"] = q1 if 0.0 <= q1 <= 1.0 else (0.0 if q1 < 0.0 else 1.0)
        fields["q2"] = q2 if 0.0 <= q2 <= 1.0 else (0.0 if q2 < 0.0 else 1.0)

    def swapped(self) -> "StateParams":
        """Mirror image under the q1 <-> q2 exchange symmetry."""
        return StateParams(self.q2, self.q1)


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


def binary_entropy(x: float) -> float:
    """Shannon binary entropy -x*log2(x) - (1-x)*log2(1-x) in bits."""
    x = float(x)
    if not (-EDGE_TOL <= x <= 1.0 + EDGE_TOL):
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    return _entropy_bits((x, 1.0 - x)) if 0.0 < x < 1.0 else 0.0


def quaternary_entropy(x1: float, x2: float, x3: float, x4: float) -> float:
    """Entropy in bits of a four-outcome distribution, with 0*log(0) = 0.

    Entries may carry negative float dust down to -1e-12 (clamped to zero);
    the four values must sum to 1 within 1e-10.
    """
    xs = [float(x1), float(x2), float(x3), float(x4)]
    for x in xs:
        if not (-EDGE_TOL <= x):
            raise DomainError(f"probability {x} is NaN or below zero beyond tolerance")
    total = sum(xs)
    if not (abs(total - 1.0) <= 1e-10):
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
    # the two Bell weights first, so that the sum does not depend on their
    # order; and the order of endpoint_entropy_zero, so that both sums agree
    # to the last bit on the diagonal, where the deficit is exactly 0
    return _entropy_bits((p.q1, p.q2, 1.0 - (p.q1 + p.q2)))


def _spectrum_into(w, q1, q2, ct, st) -> np.ndarray:
    # the four closed-form eigenvalues at (q1, q2) and the angles whose cosine
    # and sine are ct and st, all broadcast together, written in place into
    # w[:4]; w is a float buffer of shape (8, *broadcast shape).  The two
    # eigenvalue pairs run as (2, ...) blocks: w[4:6] ends holding the radii
    # [rad_p, rad_m] and w[6:8] the pair [a + b cos, a - b cos], where
    # a - x is a + (-x), the same rounding.  a and b take q1 + q2 as one sum
    # and c enters only squared, which keeps every eigenvalue bit-symmetric
    # under the q1 <-> q2 exchange
    s = q1 + q2
    a = 1.0 - s
    b = 1.0 - 2.0 * s
    c = q1 - q2
    # w[k, ...] keeps each slot a view, also for 0-d angles
    cst2, rad, u, base = w[0, ...], w[4:6], w[6:8], w[1:4:2]
    np.multiply(c, st, out=cst2)
    np.square(cst2, out=cst2)  # (c sin theta)^2
    np.multiply(b, ct, out=w[6, ...])
    np.negative(w[6, ...], out=w[7, ...])
    np.add(a, u, out=u)
    np.square(u, out=rad)
    np.add(rad, cst2, out=rad)
    np.sqrt(rad, out=rad)
    np.multiply(a, ct, out=w[1, ...])
    np.negative(w[1, ...], out=w[3, ...])
    np.add(1.0, base, out=base)  # 1 + a cos theta, 1 - a cos theta
    np.add(base, rad, out=w[0:4:2])  # lam0 and lam2: base + rad
    np.subtract(base, rad, out=base)  # lam1 and lam3: base - rad
    lam = w[:4]
    np.multiply(lam, 0.25, out=lam)
    return lam


def slope_curve(q1, q2, ct, st) -> np.ndarray:
    """dS/dtheta in bits per radian from the cosine and sine of the angles.

    The array form of :func:`post_entropy_slope`: q1, q2, ct = cos(theta)
    and st = sin(theta) broadcast together.  The spectrum comes
    from ``_spectrum_into``, and both radii from its gaps,
    rad_p = 2 (lam0 - lam1) and rad_m = 2 (lam2 - lam3).  The log
    terms are summed in pairs, so that a radius rounded near zero multiplies
    the near-zero difference of its two logarithms.  The two eigenvalue
    pairs run as (2, ...) blocks, from the radii to their derivatives and
    the log sums and differences, one numpy call per block; each element
    goes through the operations of the scalar form in its order, a - x
    taken as a + (-x) with an exact negation.  Unvalidated like
    :func:`post_entropy_grid`.  Unlike the scalar form, it takes the
    smallest eigenvalue of each pair as a difference of numbers of order 1,
    which cancels where it vanishes like theta^2: off the Cartesian axes
    its samples lose their sign within ~1e-7 rad of theta = 0, and carry
    one only from ``shape.ENDPOINT_MARGIN`` on.
    """
    shape = np.broadcast(q1, q2, ct, st).shape
    work, out = np.empty((10,) + shape), np.empty(shape)
    s = q1 + q2
    a = 1.0 - s
    b = 1.0 - 2.0 * s
    c = q1 - q2
    lam = _spectrum_into(work, q1, q2, ct, st)
    rad, num, num0, tmp = work[4:6], work[6:8], work[6, ...], work[8, ...]
    np.subtract(lam[0::2], lam[1::2], out=rad)
    np.multiply(rad, 2.0, out=rad)  # rad_p, rad_m from the gaps
    # d(rad)/dtheta as in post_entropy_slope, from num = [a + b cos,
    # a - b cos]; a radius rounded to 0 has a numerator of 0 and two equal
    # logarithms, and its floor keeps out 0/0
    np.multiply(b, st, out=tmp)
    np.negative(num0, out=num0)
    np.multiply(num, tmp, out=num)  # -b sin (a + b cos), b sin (a - b cos)
    np.multiply(c * c, st, out=tmp)
    np.multiply(tmp, ct, out=tmp)  # c^2 sin cos
    np.add(tmp, num, out=num)
    np.maximum(rad, _LEAST_SUBNORMAL, out=rad)
    np.divide(num, rad, out=rad)  # rad_p', rad_m'
    # log2 of each weight, 0 where the weight is <= 0 (float dust), whose
    # term the scalar form skips
    logs = work[6:10]
    np.maximum(lam, _LEAST_SUBNORMAL, out=logs)
    np.log2(logs, out=logs)
    np.greater(lam, 0.0, out=lam)
    np.multiply(logs, lam, out=logs)
    # with dlam = (rad_p' - a sin, -rad_p' - a sin, rad_m' + a sin,
    # a sin - rad_m') / 4, -sum(dlam * log2 lam) regroups as
    # -(rad_p' (l0 - l1) + rad_m' (l2 - l3) + a sin (l2 + l3 - l0 - l1)) / 4
    plus, minus, s0, s1 = logs[0::2], logs[1::2], work[0, ...], work[1, ...]
    np.add(plus, minus, out=work[0:2])  # l0 + l1, l2 + l3
    np.subtract(plus, minus, out=plus)  # l0 - l1, l2 - l3
    np.subtract(s1, s0, out=s1)  # l2 + l3 - l0 - l1
    np.multiply(rad, plus, out=rad)
    np.add(work[4, ...], work[5, ...], out=out)  # rad_p' (l0 - l1) + rad_m' (l2 - l3)
    np.multiply(a, st, out=s0)
    np.multiply(s0, s1, out=s0)
    np.add(out, s0, out=out)
    np.multiply(out, -0.25, out=out)
    return out[()]


def post_spectrum(p: StateParams, theta) -> np.ndarray:
    """Closed-form eigenvalues of the measurement-averaged state.

    Returns the four eigenvalues as the last axis of the result; ``theta``
    may be a scalar or an ndarray of polar angles.  The azimuthal measurement
    angle does not enter.  The formula extends smoothly to any real theta,
    which the symmetry tests exploit.  Written by ``_spectrum_into``, which
    also writes the spectra of :func:`post_entropy_grid` and
    :func:`slope_curve`.
    """
    theta = np.asarray(theta, dtype=float)
    lam = _spectrum_into(np.empty((8,) + theta.shape), p.q1, p.q2, np.cos(theta), np.sin(theta))
    return np.moveaxis(lam, 0, -1).copy()


def post_entropy_slope(p: StateParams, theta: float) -> float:
    """Derivative dS/dtheta of :func:`post_entropy` in bits per radian, scalar theta in [0, pi/2].

    The closed form -sum(lam_i' log2(lam_i)) over the eigenvalues lam_i > 0
    of :func:`post_spectrum`, in the pair form that
    :func:`post_entropy_curvature` and ``_jump_gap`` share: the smaller
    eigenvalue of each pair is the pair's product over the larger one, and
    the factor sin theta of every lam_i' is divided out analytically, so
    that no eigenvalue is a difference of numbers of order 1.  The result
    keeps its sign down to the least angles, where off the Cartesian axes
    it vanishes like theta log(1/theta); it is 0 at theta = 0, and 0 to
    rounding at pi/2, for every state.
    """
    # With t = q1 + q2, each s = +-1 gives a pair of eigenvalues L / 4 and
    # l / 4, L >= l.  w = 1 + s cos is 2 - h or h, with h = 1 - cos
    # = 2 sin^2(theta/2), so that 1 + s a cos = t + a w and u = a + s b cos
    # = t + b w carry no cancellation of 1 - cos.  rad = sqrt(u^2 + (c sin)^2),
    # L = t + a w + rad, and the product L l = 2 a t w^2 + 4 q1 q2 sin^2 is a
    # sum of non-negative terms, so l = (L l) / L.  Over sin theta,
    # rad' = (c^2 cos - s b u) / rad, L' = rad' - s a and
    # l' = ((L l)' - l L') / L; a zero radius takes rad' = 0, a kink of a
    # double eigenvalue whose two log terms then cancel whatever slope is
    # taken.  The L' sum to 0, so neither the 1/4 of each L / 4 nor the
    # -sum(L') / ln 2 term adds anything: S' = -sin sum(L' log2 L) / 4, and
    # eigenvalues <= 0 contribute nothing, the limit of L' log2 L.  The two
    # pairs are written out: a loop over them costs ~15% more a call
    t, c = p.q1 + p.q2, p.q1 - p.q2
    a, b = 1.0 - t, 1.0 - 2.0 * t
    ct, st, sh = math.cos(theta), math.sin(theta), math.sin(0.5 * theta)
    h, cst2, mixed = 2.0 * sh * sh, (c * st) ** 2, 4.0 * p.q1 * p.q2
    # s = +1: w >= 1 on [0, pi/2], so L >= t + a = 1 needs no guard
    w = 2.0 - h
    u = t + b * w
    rad = math.sqrt(u * u + cst2)
    drad = (c * c * ct - b * u) / rad if rad > 0.0 else 0.0
    big = t + a * w + rad
    dbig = drad - a
    small = (2.0 * a * t * w * w + mixed * st * st) / big
    out = dbig * math.log2(big)
    if small > 0.0:
        out += (2.0 * mixed * ct - 4.0 * a * t * w - small * dbig) / big * math.log2(small)
    # s = -1: w = h, and L = 0 at the origin at theta = 0
    u = t + b * h
    rad = math.sqrt(u * u + cst2)
    drad = (c * c * ct + b * u) / rad if rad > 0.0 else 0.0
    big = t + a * h + rad
    if big > 0.0:
        dbig = drad + a
        small = (2.0 * a * t * h * h + mixed * st * st) / big
        out += dbig * math.log2(big)
        if small > 0.0:
            out += (2.0 * mixed * ct + 4.0 * a * t * h - small * dbig) / big * math.log2(small)
    return -0.25 * st * out


def curvature_curve(q1, q2, theta) -> np.ndarray:
    """d2S/dtheta2 in bits per rad^2, theta in [0, pi/2].

    The array form of :func:`post_entropy_curvature`, written line for
    line in its pair form and with its guards (rad > 0, big > 0,
    small > 0): q1, q2 and theta broadcast together, and the two
    eigenvalue pairs run as (2, ...) blocks, s = +1 and s = -1 down the
    first axis.  cos theta, sin theta and h = 2 sin^2(theta/2) are the
    scalar form's and the terms are summed in its order, so the two differ
    only where numpy's log and log1p round otherwise than the math module's:
    within a few ulps (relative, floor 1), and up to ~20 ulps beside the
    origin at mid angles, where the terms of the vanishing pair cancel.
    NaN in, NaN out; unvalidated like :func:`slope_curve`.
    """
    ct, st, sh = np.cos(theta), np.sin(theta), np.sin(0.5 * theta)
    h = 2.0 * sh * sh
    # q1, q2, s and w = 1 + s cos = 2 - h or h as contiguous (2, ...)
    # blocks, s = +1 in the first row and -1 in the second, so that no
    # operation on them broadcasts
    blocks = np.empty((4, 2) + np.broadcast(q1, q2, theta).shape)
    blocks[0], blocks[1], blocks[2, 0], blocks[2, 1], blocks[3, 0], blocks[3, 1] = (
        q1, q2, 1.0, -1.0, 2.0 - h, h)
    q1, q2, s, w = blocks
    t, c = q1 + q2, q1 - q2
    a, b = 1.0 - t, 1.0 - 2.0 * t
    cc, cst2, mixed = c * c, (c * st) ** 2, 4.0 * q1 * q2
    sa, sb, sact = s * a, s * b, s * a * ct
    # the lanes that a guard drops may divide by 0 or take log(0)
    with np.errstate(all="ignore"):
        u = t + b * w
        rad = np.sqrt(u * u + cst2)
        # a zero radius takes rad' = rad'' = 0: the numerators over infinity
        over = np.where(rad > 0.0, rad, np.inf)
        drad = st * (cc * ct - sb * u) / over
        d2rad = (cc * (ct * ct - st * st) + (b * st) ** 2 - sb * ct * u - drad * drad) / over
        big = t + a * w + rad
        log_big, dbig = np.log(big), drad - sa * st
        # 2 a t w, and 4 s a t w sin as (2 a t w) (s 2 sin) and 2 mixed sin
        # cos as mixed (2 sin) cos: the same floats, the factors 2 and s exact
        atw = 2.0 * a * t * w
        small = (atw * w + mixed * st * st) / big
        dsmall = (mixed * (2.0 * st) * ct - atw * (s * (2.0 * st)) - small * dbig) / big
        gap = np.where(rad < small, np.log1p(2.0 * rad / small), log_big - np.log(small))
        rest = np.where(small > 0.0, d2rad * gap - sact * (2.0 * log_big - gap)
                        + dsmall * dsmall / small, (d2rad - sact) * log_big)
        # dbig^2 / big and the rest of each pair, NaN staying NaN, summed in
        # the scalar form's order
        (first_p, first_m), (rest_p, rest_m) = np.where(big <= 0.0, 0.0, (dbig * dbig / big, rest))
    return ((first_p + rest_p + first_m + rest_m) / (-4.0 * math.log(2.0)))[()]


def post_entropy_curvature(p: StateParams, theta: float) -> float:
    """Second derivative d2S/dtheta2 of :func:`post_entropy` in bits per rad^2, scalar theta in [0, pi/2].

    The closed form -sum(lam_i'' log2(lam_i) + lam_i'^2 / (lam_i ln 2)) over
    the eigenvalues lam_i > 0 of :func:`post_spectrum`, in the pair form of
    :func:`post_entropy_slope`: the package's one S''.  The smaller
    eigenvalue of a pair is the pair's product over the larger one, so it
    keeps its digits where it vanishes like theta^2, near theta = 0 and
    beside the edges.  The log terms of a pair are summed
    through the log of their ratio, so they keep theirs where the pair
    meets, near (1/2, 1/2) at pi/2.  Off the Cartesian axes S'' diverges
    like log(1/theta) as theta -> 0; at theta = 0 itself the vanishing
    eigenvalue is skipped, as in the slope, and the value means something
    on the axes alone.  There, with q the one nonzero weight, it is
    (1-q)(1-2q)/(2-3q) * log2(2(1-q)/q), within 1e-12 (relative, floor 1)
    for q from 1e-150 to 1, and -0.0 at its roots q = 1/2 and q = 1.  Below
    q ~ 1e-154 the square u*u under the radius underflows and the value falls
    short of that form: 266.2550 against 266.2542 at q = 1e-160, 250.1 against
    498.8 at 1e-300, and 1 at q = 0, where S'' is +infinity.
    """
    # The pair quantities of post_entropy_slope; here drad, dbig and dsmall
    # are the theta-derivatives of rad, big and small, not over sin theta:
    # rad rad' = sin (c^2 cos - s b u) and rad rad'' = (rad rad')' - rad'^2,
    # and a zero radius takes rad' = rad'' = 0.  The L'' sum to 0, so
    # S'' = -sum(L'' ln L + L'^2 / L) / (4 ln 2).
    t, c = p.q1 + p.q2, p.q1 - p.q2
    a, b = 1.0 - t, 1.0 - 2.0 * t
    ct, st, sh = math.cos(theta), math.sin(theta), math.sin(0.5 * theta)
    h, cst2, mixed = 2.0 * sh * sh, (c * st) ** 2, 4.0 * p.q1 * p.q2
    out = 0.0
    for s, w in ((1.0, 2.0 - h), (-1.0, h)):
        u = t + b * w
        rad = math.sqrt(u * u + cst2)
        drad = d2rad = 0.0
        if rad > 0.0:
            drad = st * (c * c * ct - s * b * u) / rad
            d2rad = (c * c * (ct * ct - st * st) + (b * st) ** 2 - s * b * ct * u - drad * drad) / rad
        big = t + a * w + rad
        if big > 0.0:
            log_big = math.log(big)
            dbig = drad - s * a * st
            small = (2.0 * a * t * w * w + mixed * st * st) / big
            out += dbig * dbig / big
            if small > 0.0:
                dsmall = (2.0 * mixed * st * ct - 4.0 * s * a * t * w * st - small * dbig) / big
                # log big - log small from big - small = 2 rad: as the pair
                # meets, rad'' grows like 1 / rad, and so would the rounding
                # of two separate log terms
                gap = math.log1p(2.0 * rad / small) if rad < small else log_big - math.log(small)
                out += d2rad * gap - s * a * ct * (2.0 * log_big - gap) + dsmall * dsmall / small
            else:
                out += (d2rad - s * a * ct) * log_big
    return out / (-4.0 * math.log(2.0))


def _jump_gap(p: StateParams, theta: float) -> float:
    """S(0) - S(theta) in bits, free of the cancellation of the two entropies, theta in [0, pi/2].

    The difference is summed over the increments d = L - L0 of the four
    eigenvalues L / 4 (the two pairs of :func:`post_entropy_slope`) from
    theta = 0, as d ln L0 + L log1p(d / L0), or L ln L where L0 = 0: the
    eigenvalues sum to 1, so the ln 4 of each L / 4 drops out (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 1).  Each d is
    written through w - w0 = -+h, the radius change as
    (rad^2 - rad0^2) / (rad + rad0) and the smaller eigenvalue of a pair as
    the pair's product over the larger one, so that near theta = 0 it keeps
    its digits where the two ~1.5-bit entropies agree to ~theta^2.  It is
    finite on the whole closed triangle: an L0 below 1e-300 is taken as 0,
    so that d / L0 cannot overflow, which moves the result by less than
    1e-296 bit; and at the origin, where the second pair vanishes at
    theta = 0, its increments are 0.
    """
    t, c = p.q1 + p.q2, p.q1 - p.q2
    a, b = 1.0 - t, 1.0 - 2.0 * t
    st, sh = math.sin(theta), math.sin(0.5 * theta)
    h, cst2, mixed = 2.0 * sh * sh, (c * st) ** 2, 4.0 * p.q1 * p.q2
    out = 0.0
    for w0, dw in ((2.0, -h), (0.0, h)):
        # w = w0 + dw, 2 - h or h; u = t + b w and rad = hypot(u, c sin theta)
        w, u0 = w0 + dw, t + b * w0
        u, rad0 = u0 + b * dw, abs(u0)
        rad = math.sqrt(u * u + cst2)
        big0 = t + a * w0 + rad0
        dbig = a * dw + ((b * dw * (u + u0) + cst2) / (rad + rad0) if rad + rad0 > 0.0 else 0.0)
        small0 = 2.0 * a * t * w0 * w0 / big0 if big0 > 0.0 else 0.0
        big = big0 + dbig
        dsmall = (2.0 * a * t * dw * (w + w0) + mixed * st * st - small0 * dbig) / big if big > 0.0 else -small0
        for l0, d in ((big0, dbig), (small0, dsmall)):
            if l0 > 1e-300:
                out += d * math.log(l0) + (l0 + d) * math.log1p(d / l0)
            elif d > 0.0:
                out += d * math.log(d)
    return out / (4.0 * math.log(2.0))


def post_entropy(p: StateParams, theta) -> float | np.ndarray:
    """Entropy in bits of the measurement-averaged state at angle theta.

    Symmetric under theta -> pi - theta, and under the q1 <-> q2 exchange to
    the bit: ``post_entropy(p, t) == post_entropy(p.swapped(), t)``, and so
    are the endpoint forms, the slope and the deficit built on them.  Accepts
    scalar or ndarray theta; an ndarray goes through :func:`post_entropy_grid`.
    """
    if np.ndim(theta) != 0:
        return post_entropy_grid(p.q1, p.q2, theta)
    # the expressions of _spectrum_into, bit-symmetric under q1 <-> q2
    t, c = p.q1 + p.q2, p.q1 - p.q2
    a, b = 1.0 - t, 1.0 - 2.0 * t
    ct, st = math.cos(float(theta)), math.sin(float(theta))
    rad_p = math.sqrt((a + b * ct) ** 2 + (c * st) ** 2)
    rad_m = math.sqrt((a - b * ct) ** 2 + (c * st) ** 2)
    return _entropy_bits((0.25 * (1.0 + a * ct + rad_p), 0.25 * (1.0 + a * ct - rad_p),
                          0.25 * (1.0 - a * ct + rad_m), 0.25 * (1.0 - a * ct - rad_m)))


def post_entropy_grid(q1, q2, theta) -> np.ndarray:
    """Post-measured entropy in bits with q1, q2 and theta broadcast together.

    The array form of :func:`post_entropy`: column arrays of states against a
    row of angles give one curve per state, elementwise identical to calling
    ``post_entropy`` state by state.  The four eigenvalues are clipped to
    [0, 1] and their terms summed in eigenvalue order, 0 - t0 - t1 - t2 - t3.
    The caller keeps
    (q1, q2) inside the triangle; nothing is validated here.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    theta = np.asarray(theta, dtype=float)
    work = np.empty((8,) + np.broadcast(q1, q2, theta).shape)
    lam = np.clip(_spectrum_into(work, q1, q2, np.cos(theta), np.sin(theta)), 0.0, 1.0)
    # same rule as _entropy_bits: weights <= 0 (float dust) contribute
    # nothing.  Raised to the least subnormal, a zero weight has a finite
    # logarithm (-1074) and its term 0 * -1074 = -0.0 leaves the sum as it
    # is.  One eigenvalue at a time, so that each temporary is a quarter of
    # the spectrum: on large grids a temporary of the whole spectrum takes
    # fresh pages from the system on every call, which doubles the cost
    out = 0.0
    for row in lam:
        out = out - row * np.log2(np.maximum(row, _LEAST_SUBNORMAL))
    return out[()]


def endpoint_entropy_zero(p: StateParams) -> float:
    """Post-measured entropy at theta = 0 in closed form.

    The spectrum there collapses to (1-s, s/2, s/2, 0) with s = q1 + q2.
    """
    s = p.q1 + p.q2
    return _entropy_bits((s / 2.0, s / 2.0, 1.0 - s))


def endpoint_entropy_halfpi(p: StateParams) -> float:
    """Post-measured entropy at theta = pi/2: 1 + h((1+r)/2) bits.

    r is the radius sqrt((1-q1-q2)^2 + (q1-q2)^2).
    """
    r = math.hypot(1.0 - (p.q1 + p.q2), p.q1 - p.q2)
    return 1.0 + binary_entropy((1.0 + r) / 2.0)


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
