import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mp_reference
from conftest import closed_triangle_states, triangle_samples, triangle_states
from xdeficit import (
    DomainError,
    StateParams,
    binary_entropy,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    family_fidelity,
    family_spectrum,
    post_entropy,
    post_spectrum,
    pre_entropy,
    quaternary_entropy,
)
from xdeficit.boundaries import _DEFLATION_BAND, _halfpi_curvature, curves_intersection
from xdeficit.core import (
    _LEAST_SUBNORMAL,
    EDGE_TOL,
    _jump_gap,
    curvature_curve,
    post_entropy_curvature,
    post_entropy_grid,
    post_entropy_slope,
    slope_curve,
)
from xdeficit.shape import _angle_table

HALF_PI = math.pi / 2


def reference_state_params(q1, q2) -> tuple[float, float]:
    """The construction rule of ``StateParams`` as a ``__post_init__`` once ran
    it: the fields (q1, q2), or the DomainError it raises."""
    q1, q2 = float(q1), float(q2)
    if not (math.isfinite(q1) and math.isfinite(q2)):
        raise DomainError(f"non-finite state parameters ({q1}, {q2})")
    if q1 < -EDGE_TOL or q2 < -EDGE_TOL or q1 + q2 > 1.0 + EDGE_TOL:
        raise DomainError(
            f"require q1 >= 0, q2 >= 0, q1 + q2 <= 1; got ({q1}, {q2})"
        )
    return min(max(q1, 0.0), 1.0), min(max(q2, 0.0), 1.0)


def reference_binary_entropy(x: float) -> float:
    """The body ``binary_entropy`` had before it shared ``_entropy_bits``,
    frozen as the reference of its bit-identity test."""
    x = float(x)
    if x < -EDGE_TOL or x > 1.0 + EDGE_TOL:
        raise DomainError(f"binary entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def binary_entropy_inputs(n: int, seed: int) -> list[float]:
    """Seeded arguments of every scale of [0, 1]: uniform, log-spaced down to
    the subnormals and up to 1 - 2**-53, dust within and beyond ``EDGE_TOL``
    of both ends, and the fixed edge values, infinities included."""
    rng = np.random.default_rng(seed)
    tiny = 10.0 ** rng.uniform(-323.5, -1.0, n)
    xs = np.concatenate([
        rng.uniform(0.0, 1.0, n), tiny, 1.0 - tiny, 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, n),
        rng.uniform(-2.0 * EDGE_TOL, 0.0, n // 10), 1.0 + rng.uniform(0.0, 2.0 * EDGE_TOL, n // 10),
    ])
    fixed = [0.0, -0.0, 1.0, 1.0 - 2.0 ** -53, 5e-324, 2.0 ** -1022, 0.5,
             -EDGE_TOL, 1.0 + EDGE_TOL, math.inf, -math.inf]
    return fixed + xs.tolist()


def _outcome(build, q1, q2):
    # ("ok", fields with the sign of each zero) or ("raise", type, message)
    try:
        fields = build(q1, q2)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    return ("ok", *((type(x), x, math.copysign(1.0, x)) for x in fields))


def state_params_mismatch(q1, q2) -> bool:
    """Whether ``StateParams(q1, q2)`` differs from :func:`reference_state_params`:
    in the fields bit for bit (the sign of a zero too), or in the exception
    type and message."""
    return _outcome(_state_fields, q1, q2) != _outcome(reference_state_params, q1, q2)


def _state_fields(q1, q2) -> tuple[float, float]:
    p = StateParams(q1, q2)
    return p.q1, p.q2


_SPECIAL_WEIGHTS = (
    0.0, -0.0, 1.0, 0.5, EDGE_TOL, -EDGE_TOL, 1.0 + EDGE_TOL, 1.0 - EDGE_TOL,
    np.nextafter(-EDGE_TOL, -1.0), np.nextafter(-EDGE_TOL, 0.0),
    np.nextafter(1.0 + EDGE_TOL, 2.0), np.nextafter(1.0 + EDGE_TOL, 0.0),
    _LEAST_SUBNORMAL, -_LEAST_SUBNORMAL, 1e308, -1e308,
    math.nan, math.inf, -math.inf,
)


def state_params_inputs(n: int, seed: int) -> list[tuple[float, float]]:
    """``n`` seeded (q1, q2) inputs, a quarter each: uniform on
    [-0.05, 1.05]², each weight within 1e-11 of 0 or 1 (dust on either side
    of the 1e-12 tolerance), within 2e-12 of the hypotenuse, and the values
    of ``_SPECIAL_WEIGHTS`` (signed zeros, the tolerance's edges,
    subnormals, infinities and NaN) paired with them or with uniform ones."""
    rng = np.random.default_rng(seed)
    m = n // 4
    u = rng.uniform(-0.05, 1.05, (m, 2))
    dust = rng.uniform(-1e-11, 1e-11, (m, 2))
    edge = np.where(rng.random((m, 2)) < 0.5, 0.0, 1.0) + dust
    x = rng.random(m)
    hyp = np.c_[x, 1.0 - x + rng.uniform(-2e-12, 2e-12, m)]
    special = np.asarray(_SPECIAL_WEIGHTS)[rng.integers(len(_SPECIAL_WEIGHTS), size=(n - 3 * m, 2))]
    mixed = np.where(rng.random(special.shape) < 0.5, special, rng.random(special.shape))
    return [tuple(q) for q in np.vstack([u, edge, hyp, mixed]).tolist()]


class TestStateParams:
    def test_valid_construction(self):
        p = StateParams(0.3, 0.2)
        assert p.q1 == 0.3 and p.q2 == 0.2

    def test_edge_dust_clamped(self):
        p = StateParams(-1e-13, 0.5)
        assert p.q1 == 0.0

    @pytest.mark.parametrize("q1,q2", [(-0.01, 0.5), (0.5, -0.01), (0.6, 0.6), (1.1, 0.0)])
    def test_rejects_outside_triangle(self, q1, q2):
        with pytest.raises(DomainError):
            StateParams(q1, q2)

    def test_swapped(self):
        assert StateParams(0.3, 0.2).swapped() == StateParams(0.2, 0.3)

    @pytest.mark.parametrize(
        "q1,q2",
        [
            (math.nan, 0.2), (0.2, math.nan), (math.inf, 0.0), (0.0, -math.inf),
            (math.inf, -math.inf), (math.inf + -math.inf, 0.5), (1e308, 1e308),
            (1.0 + 5e-13, 0.0), (0.0, 1.0 + 5e-13), (-5e-13, 1.0), (1.0 + 2e-12, 0.0),
            (-EDGE_TOL, 0.5), (np.nextafter(-EDGE_TOL, -1.0), 0.5),
            (-0.0, 0.5), (0.5, -0.0), (-0.0, -0.0), (-_LEAST_SUBNORMAL, 1.0),
            (np.float64(0.3), np.float64(0.2)), (np.float32(0.3), np.float32(0.7)),
            (np.int64(1), np.int64(0)), (1, 0), (np.float64(-0.0), np.float64(1.0)),
        ],
    )
    def test_fixed_cases_match_the_reference_rule(self, q1, q2):
        assert not state_params_mismatch(q1, q2)

    def test_dust_above_one_clamps_to_one(self):
        p = StateParams(1 + 5e-13, 0)
        assert p.q1 == 1.0 and type(p.q1) is float and type(p.q2) is float

    def test_negative_zero_kept(self):
        p = StateParams(-0.0, 0.5)
        assert math.copysign(1.0, p.q1) == -1.0

    def test_non_finite_message_before_domain_message(self):
        with pytest.raises(DomainError, match="non-finite state parameters \\(inf, -2.0\\)"):
            StateParams(math.inf, -2.0)

    def test_keyword_arguments(self):
        assert StateParams(q2=0.2, q1=0.3) == StateParams(0.3, 0.2)
        with pytest.raises(DomainError, match="got \\(0.3, 0.8\\)"):
            StateParams(q2=0.8, q1=0.3)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.floats(-0.01, 1.01), st.floats(), st.sampled_from(_SPECIAL_WEIGHTS)),
        st.one_of(st.floats(-0.01, 1.01), st.floats(), st.sampled_from(_SPECIAL_WEIGHTS)),
    )
    @example(math.inf, -math.inf)
    @example(1.0 + 5e-13, 0.0)
    @example(-0.0, -0.0)
    def test_matches_the_reference_rule(self, q1, q2):
        assert not state_params_mismatch(q1, q2)

    def test_seeded_inputs_match_the_reference_rule(self):
        # CI runs the same comparison on 2*10^5 inputs
        assert sum(state_params_mismatch(*q) for q in state_params_inputs(4000, seed=3)) == 0

    def test_replace_validates_again(self):
        p = StateParams(0.3, 0.2)
        assert dataclasses.replace(p, q1=-1e-13) == StateParams(0.0, 0.2)
        with pytest.raises(DomainError):
            dataclasses.replace(p, q1=0.9)
        with pytest.raises(DomainError, match="non-finite"):
            dataclasses.replace(p, q2=math.nan)

    def test_hash_eq_repr_and_frozen(self):
        p = StateParams(0.3, 0.2)
        assert p == StateParams(np.float64(0.3), 0.2) and hash(p) == hash(StateParams(0.3, 0.2))
        assert p != StateParams(0.2, 0.3)
        assert len({p, StateParams(0.3, 0.2), p.swapped()}) == 2
        assert repr(p) == "StateParams(q1=0.3, q2=0.2)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.q1 = 0.1

    def test_pickle_round_trip(self):
        for p in (StateParams(0.3, 0.2), StateParams(-0.0, 1.0 + 5e-13)):
            back = pickle.loads(pickle.dumps(p))
            assert back == p and hash(back) == hash(p)
            assert math.copysign(1.0, back.q1) == math.copysign(1.0, p.q1)


class TestEntropies:
    def test_binary_symmetric_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_binary_pure_case(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_landmark(self):
        # cross-checked against the theta=0 entropy identity on the axis
        assert binary_entropy(0.61554) == pytest.approx(0.9611311691923188, abs=1e-12)

    def test_binary_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(1.01)
        with pytest.raises(DomainError):
            binary_entropy(-1e-9)

    def test_binary_matches_the_frozen_body(self):
        # the shared _entropy_bits sum gives the old body's result bit for
        # bit, and its errors, on every scale of the argument
        def outcome(fn, x):
            try:
                return ("ok", fn(x).hex())
            except DomainError:
                return ("raise",)

        for x in binary_entropy_inputs(20000, seed=53):
            assert outcome(binary_entropy, x) == outcome(reference_binary_entropy, x), x

    def test_binary_nan_raises(self):
        with pytest.raises(DomainError):
            binary_entropy(math.nan)

    @pytest.mark.parametrize("position", range(4))
    def test_quaternary_nan_raises(self, position):
        # NaN fails every comparison, so neither the dust check nor the sum
        # check may be written as a comparison that must be true to raise
        xs = [0.5, 0.25, 0.25, 0.0]
        xs[position] = math.nan
        with pytest.raises(DomainError):
            quaternary_entropy(*xs)

    def test_quaternary_uniform(self):
        assert quaternary_entropy(0.25, 0.25, 0.25, 0.25) == pytest.approx(2.0, abs=1e-15)

    def test_quaternary_pure(self):
        assert quaternary_entropy(1.0, 0.0, 0.0, 0.0) == 0.0

    def test_quaternary_two_level(self):
        assert quaternary_entropy(0.5, 0.0, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_quaternary_sum_violation(self):
        with pytest.raises(DomainError):
            quaternary_entropy(0.5, 0.5, 0.1, 0.0)

    def test_pre_entropy_uniform_three(self):
        p = StateParams(1 / 3, 1 / 3)
        assert pre_entropy(p) == pytest.approx(math.log2(3), abs=1e-12)

    def test_pre_entropy_pure_bell(self):
        assert pre_entropy(StateParams(1.0, 0.0)) == 0.0

    def test_pre_entropy_axis(self):
        p = StateParams(0.61554, 0.0)
        assert pre_entropy(p) == pytest.approx(binary_entropy(0.61554), abs=1e-14)


class TestPostSpectrum:
    def test_pure_bell_theta_independent(self):
        p = StateParams(1.0, 0.0)
        for theta in (0.0, math.pi / 4, HALF_PI):
            lam = np.sort(post_spectrum(p, theta))[::-1]
            assert lam == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-14)

    def test_product_state_stays_pure_at_zero(self):
        lam = post_spectrum(StateParams(0.0, 0.0), 0.0)
        assert lam == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-14)

    def test_normalization_bulk(self):
        # 1e4 random (p, theta) pairs sum to one within 1e-10
        qs = triangle_samples(10_000, seed=7)
        rng = np.random.default_rng(11)
        thetas = rng.random(10_000) * HALF_PI
        worst = 0.0
        for (q1, q2), theta in zip(qs, thetas):
            lam = post_spectrum(StateParams(q1, q2), theta)
            worst = max(worst, abs(lam.sum() - 1.0))
            assert lam.min() > -1e-12
        assert worst < 1e-10

    def test_vectorized_matches_scalar(self):
        p = StateParams(0.7, 0.05)
        thetas = np.linspace(0, HALF_PI, 17)
        vec = post_entropy(p, thetas)
        scal = [post_entropy(p, float(t)) for t in thetas]
        assert vec == pytest.approx(scal, abs=1e-14)


class TestPostEntropy:
    def test_symmetric_mixture_maximal(self):
        assert post_entropy(StateParams(0.5, 0.5), HALF_PI) == pytest.approx(2.0, abs=1e-12)

    def test_axis_landmark_at_zero(self):
        assert post_entropy(StateParams(0.61554, 0.0), 0.0) == pytest.approx(1.57667, abs=1e-4)

    def test_axis_landmark_at_halfpi(self):
        assert post_entropy(StateParams(0.61554, 0.0), HALF_PI) == pytest.approx(1.57667, abs=1e-4)

    @settings(max_examples=150, deadline=None)
    @given(triangle_states(), st.floats(min_value=0.0, max_value=HALF_PI))
    def test_exchange_symmetry(self, p, theta):
        assert post_entropy(p, theta) == pytest.approx(
            post_entropy(p.swapped(), theta), abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(triangle_states(), st.floats(min_value=0.0, max_value=HALF_PI))
    def test_reflection_symmetry(self, p, theta):
        # closed form evaluated past pi/2 purely for the symmetry check
        assert post_entropy(p, theta) == pytest.approx(
            post_entropy(p, math.pi - theta), abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(triangle_states(), st.floats(min_value=0.0, max_value=HALF_PI))
    def test_measurement_cannot_decrease_entropy(self, p, theta):
        assert post_entropy(p, theta) >= pre_entropy(p) - 1e-10


    def test_grid_form_matches_each_state(self):
        # the broadcast form is the same formula: equal to the last bit
        q = triangle_samples(40, seed=5)
        thetas = np.linspace(0.0, HALF_PI, 129)
        grid = post_entropy_grid(q[:, :1], q[:, 1:], thetas)
        assert grid.shape == (40, 129)
        for row, (q1, q2) in zip(grid, q):
            assert np.array_equal(row, post_entropy(StateParams(q1, q2), thetas))


def _reference_eigenvalues(q1, q2, theta):
    # the eigenvalues as plain broadcast expressions: the reference whose
    # operations and order post_entropy_grid must reproduce to the bit
    a = 1.0 - (q1 + q2)
    b = 1.0 - 2.0 * (q1 + q2)
    c = q1 - q2
    ct = np.cos(theta)
    act = a * ct
    cst2 = (c * np.sin(theta)) ** 2
    rad_p = np.sqrt((a + b * ct) ** 2 + cst2)
    rad_m = np.sqrt((a - b * ct) ** 2 + cst2)
    return (
        0.25 * (1.0 + act + rad_p),
        0.25 * (1.0 + act - rad_p),
        0.25 * (1.0 - act + rad_m),
        0.25 * (1.0 - act - rad_m),
    )


def _reference_entropy_grid(q1, q2, theta):
    out = 0.0
    for lam in _reference_eigenvalues(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float),
                                      np.asarray(theta, dtype=float)):
        lam = np.clip(lam, 0.0, 1.0)
        out = out - lam * np.log2(np.where(lam > 0.0, lam, 1.0))
    return out


class TestEntropyCurveKernel:
    # the kernel runs the reference's operations in the reference's order on
    # whole arrays, so it matches to the bit, edges and corners included
    THETAS = np.concatenate([np.linspace(0.0, HALF_PI, 129), [-0.4, 1e-9, 2.0, math.pi]])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(closed_triangle_states(), min_size=1, max_size=20))
    @example([StateParams(0.0, 0.0), StateParams(1.0, 0.0), StateParams(0.0, 1.0),
              StateParams(0.5, 0.5), StateParams(1.0 - 1e-12, 1e-12), StateParams(0.0, 5e-324),
              StateParams(0.3, 0.7), StateParams(1e-12, 1e-12)])
    def test_matches_reference_grid(self, states):
        q1 = np.array([[p.q1] for p in states])
        q2 = np.array([[p.q2] for p in states])
        ref = _reference_entropy_grid(q1, q2, self.THETAS)
        assert np.array_equal(post_entropy_grid(q1, q2, self.THETAS), ref)

    @settings(max_examples=200, deadline=None)
    @given(closed_triangle_states())
    @example(StateParams(0.0, 0.0))
    @example(StateParams(1.0, 0.0))
    @example(StateParams(0.5, 0.5))
    def test_post_spectrum_unchanged(self, p):
        lam = post_spectrum(p, self.THETAS)
        assert lam.shape == (len(self.THETAS), 4)
        assert np.array_equal(lam, np.stack(_reference_eigenvalues(p.q1, p.q2, self.THETAS), axis=-1))
        assert post_spectrum(p, 0.3).shape == (4,)


class TestEndpointForms:
    def test_zero_endpoint_dyadic(self):
        assert endpoint_entropy_zero(StateParams(0.5, 0.0)) == pytest.approx(1.5, abs=1e-15)

    def test_zero_endpoint_origin(self):
        assert endpoint_entropy_zero(StateParams(0.0, 0.0)) == 0.0

    def test_halfpi_endpoint_origin(self):
        assert endpoint_entropy_halfpi(StateParams(0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_halfpi_endpoint_center(self):
        assert endpoint_entropy_halfpi(StateParams(0.5, 0.5)) == pytest.approx(2.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(triangle_states())
    @example(StateParams(0.0, 1.5009199758599615e-13))  # weight below EDGE_TOL
    def test_closed_forms_match_curve(self, p):
        assert endpoint_entropy_zero(p) == pytest.approx(post_entropy(p, 0.0), abs=1e-12)
        assert endpoint_entropy_halfpi(p) == pytest.approx(post_entropy(p, HALF_PI), abs=1e-12)

    def test_axis_identity_deficit_equals_weight(self):
        # on either axis the theta=0 deficit equals the Bell weight exactly
        for q in np.linspace(0.0, 1.0, 100):
            p = StateParams(q, 0.0)
            assert endpoint_entropy_zero(p) - pre_entropy(p) == pytest.approx(q, abs=1e-12)

    def test_endpoint_stationarity_central_differences(self):
        h = 1e-5
        qs = triangle_samples(40, seed=3)
        # keep away from the triangle corners where the curve degenerates
        qs = qs[(qs.sum(axis=1) < 0.95) & (qs.sum(axis=1) > 0.05)]
        for q1, q2 in qs:
            p = StateParams(q1, q2)
            d0 = abs(post_entropy(p, h) - post_entropy(p, -h)) / (2 * h)
            dp = abs(post_entropy(p, HALF_PI + h) - post_entropy(p, HALF_PI - h)) / (2 * h)
            assert d0 < 1e-6
            assert dp < 1e-6


U = 2.0**-53


class _Rounded:
    """An exact value of a float computation, and a first-order bound ``e`` on
    the rounding error of its float, in units of U.

    The running error analysis of Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3: each rounded operation adds |result|, at
    most half an ulp, and passes on the errors of its operands with the
    magnitudes of its partial derivatives.  Float constants are exact, and
    so is a negation.
    """

    def __init__(self, x, e=0):
        self.x, self.e = mp_reference.mp.mpf(x), e

    def __neg__(self):
        return _Rounded(-self.x, self.e)

    def __add__(self, other):
        other = _rounded(other)
        x = self.x + other.x
        return _Rounded(x, self.e + other.e + abs(x))

    def __sub__(self, other):
        return self + -_rounded(other)

    def __mul__(self, other):
        other = _rounded(other)
        x = self.x * other.x
        return _Rounded(x, self.e * abs(other.x) + abs(self.x) * other.e + abs(x))

    def __truediv__(self, other):
        other = _rounded(other)
        x = self.x / other.x
        return _Rounded(x, (self.e + abs(x) * other.e) / abs(other.x) + abs(x))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _rounded(other) + -self

    def call(self, f, df, ulps=1.0):
        """f of this value, f a library function within ``ulps`` ulp of its
        result (an ulp is at most 2 U |result|) and df its derivative."""
        x = f(self.x)
        return _Rounded(x, abs(df(self.x)) * self.e + 2.0 * ulps * abs(x))


def _rounded(x):
    return x if isinstance(x, _Rounded) else _Rounded(x)


def slope_rounding_bound(q1: float, q2: float, theta: float):
    """U times the first-order bound on the rounding error of ``post_entropy_slope``.

    The operations of the pair form, in its order, on ``_Rounded`` values:
    sqrt is correctly rounded, and sin, cos, log2 and the square ** 2 are
    taken within 1 ulp.  The rounding of t = q1 + q2 that a = 1 - t carries
    is left out; :func:`slope_error_at` adds it.  In bits per radian.
    """
    mp = mp_reference.mp
    with mp.workdps(30):
        q1r, q2r, th = _Rounded(q1), _Rounded(q2), _Rounded(theta)
        t, c = q1r + q2r, q1r - q2r
        a, b = _Rounded(1 - t.x, abs(1 - t.x)), 1.0 - 2.0 * t
        ct, st = th.call(mp.cos, lambda y: -mp.sin(y)), th.call(mp.sin, mp.cos)
        sh = (0.5 * th).call(mp.sin, mp.cos)
        cst2 = (c * st).call(lambda y: y * y, lambda y: 2 * y)
        h, mixed = 2.0 * sh * sh, 4.0 * q1r * q2r
        log2 = lambda y: y.call(lambda z: mp.log(z, 2), lambda z: 1 / (z * mp.log(2)))
        out = _Rounded(0)
        for s, w in ((1.0, 2.0 - h), (-1.0, h)):
            u = t + b * w
            rad = (u * u + cst2).call(mp.sqrt, lambda y: 1 / (2 * mp.sqrt(y)), ulps=0.5)
            drad = (c * c * ct - s * b * u) / rad if rad.x > 0 else _Rounded(0)
            big = t + a * w + rad
            if big.x > 0:
                dbig = drad - s * a
                small = (2.0 * a * t * w * w + mixed * st * st) / big
                out = out + dbig * log2(big)
                if small.x > 0:
                    out = out + (2.0 * mixed * ct - 4.0 * s * a * t * w - small * dbig) / big * log2(small)
        return U * (-0.25 * st * out).e


def slope_error_at(p: StateParams, theta: float):
    """(error, part, bound) of ``post_entropy_slope`` at one state and angle.

    The error is against dS/dtheta of the density matrix, ``mp.diff`` at 60
    digits, and the derived bound on it is the sum of two parts:
    :func:`slope_rounding_bound`, and the part that the rounding of
    a = 1 - fl(q1 + q2) accounts for, the derivative of S' in a times that
    rounding, taken as the difference of the 60-digit S' at a and at
    1 - fl(q1 + q2).  Beside the hypotenuse the smaller eigenvalue of a
    pair is ~a, so that derivative grows like 1 / a; and where the exact
    q1 + q2 exceeds 1 by float dust, the rounding takes a from below 0,
    where that eigenvalue is skipped, to 0.  Returns the error, the second
    part and the first.
    """
    mp = mp_reference.mp
    with mp.workdps(60):
        q1, q2, x = mp.mpf(p.q1), mp.mpf(p.q2), mp.mpf(theta)
        ref, rounded = (mp.diff(lambda y: mp_reference.entropy(q1, q2, y, a), x)
                        for a in (1 - q1 - q2, 1 - mp.mpf(p.q1 + p.q2)))
        err = abs(post_entropy_slope(p, theta) - ref)
        return float(err), float(abs(rounded - ref)), float(slope_rounding_bound(p.q1, p.q2, theta))


def slope_error(states, thetas):
    """The worst (ratio, error, state, theta) of :func:`slope_error_at` over
    the states and angles, the ratio being the error less the part of the
    rounding of a, over the rounding bound: the error is within its derived
    bound where the ratio is at most 1."""
    worst = (-math.inf, 0.0, None, None)
    for p in states:
        for theta in thetas:
            err, part, bound = slope_error_at(p, theta)
            ratio = (err - part) / bound if bound > 0.0 else (math.inf if err > part else 0.0)
            worst = max(worst, (ratio, err, p, theta), key=lambda w: w[0])
    return worst


# angles of the 60-digit slope check: log-spaced from 1e-12 up to the band
# in which the boundary solves take the deflated slope from S'' instead
SLOPE_ANGLES = tuple(np.logspace(-12.0, math.log10(HALF_PI - _DEFLATION_BAND), 8))


def slope_states(n: int, seed: int) -> list[StateParams]:
    """``n`` seeded states in four equal shares, then fixed ones.

    The shares: uniform on the triangle; on an edge or 1e-12 to 1e-3 inside
    one, the hypotenuse included; within 1e-12 of a corner; and on the
    totals 1/2 + eps, eps from 1e-9 to 1e-2, with q2 < 0.1 eps, where the
    interior minimum lies at ~0.1-0.25 sqrt(eps) rad.  The fixed states are
    the corners, the midpoint of the hypotenuse, 5e-324 beside the origin,
    and the states of the ~1e-7 rad sign loss of the direct form.
    """
    rng = np.random.default_rng(seed)
    k = n // 4
    states = [StateParams(*q) for q in triangle_samples(k, seed)]
    for x, d in zip(rng.random(k), np.where(rng.random(k) < 0.25, 0.0, 10.0 ** rng.uniform(-12, -3, k))):
        edge = rng.integers(3)
        q = [(x * (1 - d), d), (d, x * (1 - d)), (x * (1 - d), (1 - x) * (1 - d))][edge]
        states.append(StateParams(*q))
    for corner, (u, v) in zip(rng.integers(3, size=k), 1e-12 * rng.random((k, 2))):
        states.append(StateParams(*[(u, v), (1 - u - v, v), (u, 1 - u - v)][corner]))
    for eps, f in zip(10.0 ** rng.uniform(-9, -2, n - 3 * k), rng.uniform(0.0, 0.1, n - 3 * k)):
        states.append(StateParams(0.5 + eps - f * eps, f * eps))
    fixed = [(0, 0), (1, 0), (0, 1), (0.5, 0.5), (0.5 + 1e-12, 0.5 - 1e-12), (0, 5e-324),
             (5e-324, 5e-324), (0.6, 0.05), (0.500002, 1e-7), (0.50001, 3e-7), (0.3, 0.25),
             (0.7215, 0.0285), (0.45, 0.1), (0.78912, 0.21088)]
    return states + [StateParams(*q) for q in fixed]


class TestSlope:
    @settings(max_examples=300, deadline=None)
    @given(closed_triangle_states(), st.floats(min_value=1e-3, max_value=HALF_PI - 1e-3))
    @example(StateParams(0.7205, 0.0295), 0.8278086768061)
    @example(StateParams(1.0, 0.0), 0.3)
    @example(StateParams(0.5, 0.5), 1.0)
    def test_matches_central_difference(self, p, theta):
        # fourth-order stencil: truncation ~(h / theta)^4 where S ~ theta^2 log(theta)
        # near theta = 0, rounding of S (a few 1e-15 bit) amplified by 1 / h
        h = min(1e-4, 1e-2 * theta)
        f = lambda t: post_entropy(p, t)
        fd = (8.0 * (f(theta + h) - f(theta - h)) - (f(theta + 2 * h) - f(theta - 2 * h))) / (12 * h)
        assert post_entropy_slope(p, theta) == pytest.approx(fd, rel=1e-7, abs=1e-14 / h)

    @pytest.mark.parametrize("q1,q2,theta", [
        (0.7205, 0.0295, 0.8278086768061),
        (0.7205, 0.0295, 0.002),
        (0.61554, 0.0, 0.6957936574264),
        (0.5604864260123682, 0.004463497532858741, 1e-5),
        (0.3, 0.2, 1.2),
        (0.05, 0.9, 0.4),
        (1.0 - 1e-9, 0.0, 0.7),
        (0.4, 1e-12, 1.5),
        # within ~1e-7 rad of 0 a smallest eigenvalue written as a difference
        # of numbers of order 1 loses the sign of the slope
        (0.6, 0.05, 1e-12),
        (0.7215, 0.0285, 1e-9),
        (0.50001, 3e-7, 1e-7),
        (0.3, 0.25, 1e-9),
        # a = 1 - fl(q1 + q2) beside the hypotenuse, from 0 and from 1e-12
        (0.78912, 0.21088, 1e-9),
        (0.5, 0.5 - 1e-12, 1e-7),
    ])
    def test_matches_mpmath_derivative(self, q1, q2, theta):
        # within the derived bound of slope_error_at: the rounding of the
        # pair form's operations and the rounding of a = 1 - (q1 + q2)
        pytest.importorskip("mpmath")
        err, part, bound = slope_error_at(StateParams(q1, q2), theta)
        assert err <= part + bound

    def test_matches_60_digits_on_closed_triangle(self):
        # the tier-1 share of the CI step "Scalar slope against 60 digits":
        # 54 states, the edges, the corners, 1e-12 from them and totals
        # 1/2 + eps, at 8 angles from 1e-12 rad up; measured ratio 0.17
        pytest.importorskip("mpmath")
        ratio, err, p, theta = slope_error(slope_states(40, seed=36), SLOPE_ANGLES)
        assert ratio <= 1.0, (err, p, theta)

    @settings(max_examples=100, deadline=None)
    @given(closed_triangle_states())
    def test_stationary_ends(self, p):
        assert post_entropy_slope(p, 0.0) == 0.0
        assert abs(post_entropy_slope(p, HALF_PI)) <= 1e-15



def axis_closed_form(q: float) -> float:
    """S''(0) in natural-log units on a Cartesian axis whose one nonzero
    weight is q, 0 < q < 1: the closed form (1-q)(1-2q)/(2-3q) ln(2(1-q)/q),
    the reference of the curvature kernel there."""
    return (1.0 - q) * (1.0 - 2.0 * q) / (2.0 - 3.0 * q) * math.log(2.0 * (1.0 - q) / q)


def axis_curvature_nats(q: float) -> float:
    """The curvature kernel at theta = 0 on the axis state (q, 0), in natural-log units."""
    return post_entropy_curvature(StateParams(q, 0.0), 0.0) * math.log(2.0)


def axis_curvature_error(weights) -> tuple[float, float]:
    """The worst error of :func:`axis_curvature_nats` against
    :func:`axis_closed_form` over the weights, relative with a floor of 1,
    and the weight where it occurs."""
    def error(q):
        ref = axis_closed_form(q)
        return abs(axis_curvature_nats(q) - ref) / max(1.0, abs(ref))
    return max((error(q), q) for q in weights)


# the corners, the edges, the least subnormal and states within 1e-12 of
# them; and the ends of the angle range [0, pi/2], an angle whose
# 2 sin^2(theta/2) underflows to 0, the outermost slope sample 1e-4 and
# angles between
CLOSED_STATES = [
    (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.0), (0.0, 0.7), (0.3, 0.7),
    (5e-324, 0.0), (0.0, 5e-324), (5e-324, 5e-324), (1.0 - 5e-324, 5e-324), (5e-324, 0.6),
    (1e-12, 0.0), (0.0, 1e-12), (1e-12, 1e-12), (1.0 - 1e-12, 0.0), (0.0, 1.0 - 1e-12),
    (1.0 - 1e-12, 1e-12), (0.5, 0.5 - 1e-12), (0.5 + 1e-12, 0.5 - 1e-12), (0.3, 0.7 - 1e-12),
    (0.4, 1e-12), (1e-12, 0.4), (0.5, 0.0), (0.5 + 1e-12, 0.0),
]
CLOSED_ANGLES = (0.0, 1e-300, 1e-12, 1e-4, 1.0, HALF_PI)
SCALAR_FORMS = (post_entropy, post_entropy_slope, post_entropy_curvature, _jump_gap)


class TestClosedTriangle:
    @pytest.mark.parametrize("form", SCALAR_FORMS, ids=lambda f: f.__name__)
    def test_finite_on_corners_edges_and_dust(self, form):
        for q in CLOSED_STATES:
            for theta in CLOSED_ANGLES:
                value = form(StateParams(*q), theta)
                assert type(value) is float and math.isfinite(value), (q, theta, value)

    @settings(max_examples=300, deadline=None)
    @given(closed_triangle_states(), st.sampled_from(CLOSED_ANGLES))
    def test_finite_beside_the_edges(self, p, theta):
        for form in SCALAR_FORMS:
            value = form(p, theta)
            assert type(value) is float and math.isfinite(value), (form.__name__, value)

    def test_limits_their_docstrings_state(self):
        # the slope and the gap vanish at theta = 0 for every state, and the
        # curvature reads 1 at the origin, where S''(0) is +infinity
        for q in CLOSED_STATES:
            assert post_entropy_slope(StateParams(*q), 0.0) == 0.0, q
            assert _jump_gap(StateParams(*q), 0.0) == 0.0, q
        assert post_entropy_curvature(StateParams(0.0, 0.0), 0.0) == 1.0
        assert post_entropy(StateParams(0.0, 0.0), 0.0) == 0.0


class TestCurvature:
    def test_equals_axis_closed_form(self):
        # log-spaced weights down to 1e-150, above which u*u under the radius
        # does not underflow, a uniform grid, and weights 1e-12 below 1
        weights = np.concatenate([np.logspace(-150, -1, 600), np.linspace(0.01, 0.99, 99),
                                  1.0 - 10.0 ** -np.arange(2.0, 13.0)])
        err, q = axis_curvature_error(weights.tolist())
        assert err <= 1e-12, q

    def test_matches_mpmath_second_derivative(self):
        pytest.importorskip("mpmath")
        # seeded states: 120 uniform in the triangle, 90 within 1e-12 to 1e-3
        # of an edge, 30 within 1e-12 of a corner, and the corners and the
        # midpoint of the hypotenuse themselves and 1e-12 from them
        rng = np.random.default_rng(18)
        states = [StateParams(*q) for q in triangle_samples(120, 18)]
        for _ in range(30):
            x, d = rng.random(), 10.0 ** rng.uniform(-12, -3)
            states += [StateParams(x * (1 - d), d), StateParams(d, x * (1 - d)),
                       StateParams(x * (1 - d), (1 - x) * (1 - d))]
        for _ in range(10):
            u, v = 1e-12 * rng.random(2)
            states += [StateParams(u, v), StateParams(1 - 1e-12, u), StateParams(v, 1 - 1e-12)]
        states += [StateParams(q1, q2) for q1, q2 in
                   [(0, 0), (1, 0), (0, 1), (0.5, 0.5), (0.5 + 1e-12, 0.5 - 1e-12),
                    (0.5 - 1e-12, 0.5 - 1e-12), (1 - 1e-12, 0), (1e-12, 1e-12)]]
        for p in states:
            # relative with a floor of 1; below theta = 1e-2 the smallest
            # eigenvalue depends on a = 1 - (q1 + q2), rounded near the
            # hypotenuse, with a weight ~1 / theta^2
            for theta, bound in [(rng.uniform(0.05, 1.5), 1e-11), (HALF_PI, 1e-11),
                                 (10.0 ** rng.uniform(-4, -2), 1e-8)]:
                ref = mp_reference.curvature(p.q1, p.q2, theta)
                err = abs(post_entropy_curvature(p, theta) - ref) / max(1.0, abs(ref))
                assert err <= bound, (p, theta, ref)


# the angles of the array curvature's gate: beside 0, mid angles, beside pi/2
# and pi/2 itself, where the half-pi fan reads it
CURVATURE_ANGLES = (1e-12, 1e-4, 0.3, 1.0, HALF_PI - 1e-8, HALF_PI)


def curvature_states(n: int, seed: int) -> list[StateParams]:
    """The states of ``slope_states`` (seeded ones, the edges, the corners,
    1e-12 from them, the totals 1/2 + eps) and the curve intersection."""
    return slope_states(n, seed) + [curves_intersection()]


def curvature_curve_ulps(states, theta: float) -> float:
    """Largest |curvature_curve - post_entropy_curvature| over ``states`` at
    ``theta``, in ulps relative with a floor of 1."""
    got = curvature_curve(np.array([p.q1 for p in states]), np.array([p.q2 for p in states]), theta)
    ref = np.array([post_entropy_curvature(p, theta) for p in states])
    return float(np.max(np.abs(got - ref) / (np.finfo(float).eps * np.maximum(1.0, np.abs(ref)))))


class TestCurvatureCurve:
    def test_equals_the_scalar_form(self):
        # the same operations on the same cos, sin and h, summed in the same
        # order; only numpy's log and log1p may round otherwise: within 4
        # ulps everywhere, (1/2, 1/2) at pi/2 included
        states = curvature_states(1200, seed=43)
        for theta in CURVATURE_ANGLES:
            assert curvature_curve_ulps(states, theta) <= 4.0, theta

    def test_broadcasts_row_by_row(self):
        q = triangle_samples(40, seed=45)
        theta = np.array(CURVATURE_ANGLES)
        grid = curvature_curve(q[:, :1], q[:, 1:], theta)
        assert grid.shape == (40, len(theta))
        for k, th in enumerate(CURVATURE_ANGLES):
            assert np.array_equal(grid[:, k], curvature_curve(q[:, 0], q[:, 1], th))
        # scalars give a 0-d result, the value of a one-state row
        one = curvature_curve(0.3, 0.2, 1.0)
        assert np.ndim(one) == 0
        assert one == curvature_curve(np.array([0.3]), np.array([0.2]), 1.0)[0]

    def test_nan_in_nan_out(self):
        got = curvature_curve(np.array([math.nan, 0.3, 0.3]), np.array([0.1, math.nan, 0.2]),
                              np.array([0.0, 0.0, math.nan]))
        assert np.isnan(got).all()


def direct_scalar_slope(p: StateParams, theta: float) -> float:
    """dS/dtheta in bits per radian, with the four eigenvalues written directly.

    The scalar slope before its pair form, kept frozen: the operations of
    ``slope_curve`` follow it, so it is the row's reference to a few ulp.
    Within ~1e-7 rad of theta = 0 off the Cartesian axes its smallest
    eigenvalue (~theta^2) cancels against 1 and it loses its sign, and so
    do the row's samples; the row is signed from ``ENDPOINT_MARGIN`` on.
    """
    # the -sum(lam_i')/ln 2 term drops out because the eigenvalues sum to 1;
    # lam_i' comes from differentiating the rad_p and rad_m of the scalar
    # post_entropy, and weights <= 0 contribute nothing, the limit of
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


class TestSlopeCurve:
    # the slope samples of shape classification, and angles beside them
    THETAS = np.concatenate([
        np.linspace(0.0, HALF_PI, 129)[1:-1], [1e-4, HALF_PI - 1e-4, 1e-3, 0.8278086768061]
    ])
    CORNERS = [StateParams(0.0, 0.0), StateParams(1.0, 0.0), StateParams(0.0, 1.0),
               StateParams(0.5, 0.5), StateParams(1.0 - 1e-12, 1e-12), StateParams(0.0, 5e-324),
               StateParams(0.3, 0.7), StateParams(1e-12, 1e-12), StateParams(1.67e-13, 1.0 - 1.67e-13)]

    def _check_matches_scalar(self, p):
        got = slope_curve(p.q1, p.q2, np.cos(self.THETAS), np.sin(self.THETAS))
        ref = np.array([direct_scalar_slope(p, t) for t in self.THETAS])
        # a few ulp of the terms lam' log2(lam): the largest |log2 lam| scales them
        lam = post_spectrum(p, self.THETAS)
        logs = np.abs(np.log2(np.where(lam > 0.0, lam, 1.0))).max(axis=-1)
        scale = np.maximum(1.0, np.abs(ref)) * np.maximum(1.0, logs)
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * scale)

    def test_matches_scalar_slope_on_samples(self):
        for q1, q2 in triangle_samples(300, seed=31):
            self._check_matches_scalar(StateParams(q1, q2))
        for p in self.CORNERS:
            self._check_matches_scalar(p)

    @settings(max_examples=300, deadline=None)
    @given(closed_triangle_states())
    def test_matches_scalar_slope_on_edges(self, p):
        self._check_matches_scalar(p)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(closed_triangle_states(), min_size=1, max_size=20))
    def test_exchange_symmetric_and_row_by_row(self, states):
        q1 = np.array([[p.q1] for p in states])
        q2 = np.array([[p.q2] for p in states])
        ct, st_ = np.cos(self.THETAS), np.sin(self.THETAS)
        ref = slope_curve(q1, q2, ct, st_)
        assert np.array_equal(slope_curve(q2, q1, ct, st_), ref)
        # one state at a time gives the same bits
        for k, p in enumerate(states):
            assert np.array_equal(slope_curve(p.q1, p.q2, ct, st_), ref[k])


def _reference_slope_curve(q1, q2, ct, st) -> np.ndarray:
    # the slope kernel before its eigenvalue pairs ran as (2, ...) blocks,
    # kept frozen: one numpy call per eigenvalue, radius and log term.  The
    # kernel in use must reproduce it to the bit
    shape = np.broadcast_shapes(np.shape(q1), np.shape(q2), np.shape(ct), np.shape(st))
    work, out = np.empty((11,) + shape), np.empty(shape)
    s = q1 + q2
    a = 1.0 - s
    b = 1.0 - 2.0 * s
    c = q1 - q2
    lam0, lam1, lam2, lam3, rad_m = (work[k, ...] for k in range(5))
    np.multiply(c, st, out=lam0)
    np.square(lam0, out=lam0)
    np.multiply(b, ct, out=rad_m)
    np.add(a, rad_m, out=lam1)
    np.subtract(a, rad_m, out=rad_m)
    np.square(lam1, out=lam1)
    np.square(rad_m, out=rad_m)
    np.add(lam1, lam0, out=lam1)
    np.add(rad_m, lam0, out=rad_m)
    np.sqrt(lam1, out=lam1)
    np.sqrt(rad_m, out=rad_m)
    np.multiply(a, ct, out=lam0)
    np.subtract(1.0, lam0, out=lam3)
    np.add(1.0, lam0, out=lam2)
    np.add(lam2, lam1, out=lam0)
    np.subtract(lam2, lam1, out=lam1)
    np.add(lam3, rad_m, out=lam2)
    np.subtract(lam3, rad_m, out=lam3)
    lam = work[:4]
    np.multiply(lam, 0.25, out=lam)
    w0, w1, w2, w3, w4, rad_p, rad_m = (work[k, ...] for k in range(7))
    np.subtract(lam[0, ...], lam[1, ...], out=rad_p)
    np.multiply(rad_p, 2.0, out=rad_p)
    np.subtract(lam[2, ...], lam[3, ...], out=rad_m)
    np.multiply(rad_m, 2.0, out=rad_m)
    logs = work[7:11]
    np.maximum(lam, _LEAST_SUBNORMAL, out=logs)
    np.log2(logs, out=logs)
    np.greater(lam, 0.0, out=lam)
    np.multiply(logs, lam, out=logs)
    l0, l1, l2, l3 = (logs[k, ...] for k in range(4))
    np.add(l0, l1, out=w4)
    np.subtract(l0, l1, out=l0)
    np.subtract(l2, l3, out=l1)
    np.add(l2, l3, out=l2)
    np.subtract(l2, w4, out=l2)
    np.multiply(c * c, st, out=w0)
    np.multiply(w0, ct, out=w0)
    np.multiply(b, st, out=w1)
    np.multiply(b, ct, out=w2)
    np.add(a, w2, out=w3)
    np.subtract(a, w2, out=w2)
    np.multiply(w1, w3, out=w3)
    np.subtract(w0, w3, out=w3)
    np.multiply(w1, w2, out=w2)
    np.add(w0, w2, out=w2)
    np.maximum(rad_p, _LEAST_SUBNORMAL, out=rad_p)
    np.divide(w3, rad_p, out=rad_p)
    np.maximum(rad_m, _LEAST_SUBNORMAL, out=rad_m)
    np.divide(w2, rad_m, out=rad_m)
    np.multiply(a, st, out=w0)
    np.multiply(rad_p, l0, out=out)
    np.multiply(rad_m, l1, out=rad_m)
    np.add(out, rad_m, out=out)
    np.multiply(w0, l2, out=w0)
    np.add(out, w0, out=out)
    np.multiply(out, -0.25, out=out)
    return out[()]


def slope_kernel_mismatches(q1: np.ndarray, q2: np.ndarray, grid_n: int = 512,
                            chunk: int = 16) -> int:
    """How many of the states (q1[k], q2[k]) have a slope row, on the
    ``grid_n + 1`` angles of ``classify_shape``, that differs from the
    frozen reference kernel, computed ``chunk`` states at a time, as the
    sweep's flag pass computes them."""
    _, ct, st_ = _angle_table(grid_n)
    bad = 0
    for start in range(0, len(q1), chunk):
        a, b = q1[start:start + chunk, None], q2[start:start + chunk, None]
        got = slope_curve(a, b, ct, st_)
        bad += int((got != _reference_slope_curve(a, b, ct, st_)).any(axis=-1).sum())
    return bad


def kernel_states() -> tuple[np.ndarray, np.ndarray]:
    """(q1, q2) of seeded triangle states and of the slope-curve corner states."""
    q = triangle_samples(200, seed=23)
    corners = TestSlopeCurve.CORNERS
    return (np.concatenate([q[:, 0], [p.q1 for p in corners]]),
            np.concatenate([q[:, 1], [p.q2 for p in corners]]))


class TestKernelsEqualTheirReferences:
    # the paired-block kernels run the reference's float operations in its
    # order on every element, so every sample matches to the bit in each
    # call form: a state's row, a chunk of rows, and one angle over states
    @pytest.mark.parametrize("grid_n", [128, 512, 1024])
    def test_slope_rows_chunks_and_single_angles(self, grid_n):
        q1, q2 = kernel_states()
        _, ct, st_ = _angle_table(grid_n)
        for a, b in zip(q1.tolist(), q2.tolist()):
            assert np.array_equal(slope_curve(a, b, ct, st_), _reference_slope_curve(a, b, ct, st_))
        assert slope_kernel_mismatches(q1, q2, grid_n) == 0
        for c, s in zip(ct, st_):
            assert np.array_equal(slope_curve(q1, q2, c, s), _reference_slope_curve(q1, q2, c, s))

    @pytest.mark.parametrize("grid_n", [128, 512, 1024])
    def test_entropy_grid_equals_pinned_form(self, grid_n):
        q1, q2 = kernel_states()
        theta = np.linspace(0.0, HALF_PI, grid_n + 1)
        got = post_entropy_grid(q1[:, None], q2[:, None], theta)
        assert np.array_equal(got, _reference_entropy_grid(q1[:, None], q2[:, None], theta))


class TestExactExchangeSymmetry:
    # a and b take q1 + q2 as one sum, q1 - q2 enters only squared or through
    # hypot, and the entropy sums add the two Bell terms first: the q1 <-> q2
    # exchange holds to the bit, which lets the sweep mirror its cells
    @settings(max_examples=300, deadline=None)
    @given(closed_triangle_states(), st.floats(min_value=0.0, max_value=HALF_PI))
    @example(StateParams(0.3, 0.1), 0.7)
    @example(StateParams(1.0 - 1e-12, 0.0), 1e-3)
    def test_post_entropy_and_slope(self, p, theta):
        m = p.swapped()
        assert post_entropy(p, theta) == post_entropy(m, theta)
        assert post_entropy_slope(p, theta) == post_entropy_slope(m, theta)
        thetas = np.linspace(0.0, HALF_PI, 65)
        assert np.array_equal(post_entropy_grid(p.q1, p.q2, thetas),
                              post_entropy_grid(m.q1, m.q2, thetas))

    @settings(max_examples=300, deadline=None)
    @given(closed_triangle_states())
    @example(StateParams(0.3, 0.1))
    @example(StateParams(0.7235826786873963, 0.02641732131260366))  # s2 near its zero
    def test_closed_forms(self, p):
        m = p.swapped()
        for form in (pre_entropy, endpoint_entropy_zero, endpoint_entropy_halfpi):
            assert form(p) == form(m), form.__name__
        for theta in (1e-4, 0.3, 1.2, HALF_PI):
            assert post_entropy_curvature(p, theta) == post_entropy_curvature(m, theta), theta


class TestDiagnostics:
    def test_zero_axis_roots(self):
        assert axis_curvature_nats(0.5) == 0.0
        assert axis_curvature_nats(1.0) == 0.0

    def test_zero_axis_quarter(self):
        # exact closed value 0.3 * ln 6, positive side of the root at 1/2
        val = axis_curvature_nats(0.25)
        assert val == pytest.approx(0.5375278407684164, abs=1e-12)
        assert val > 0

    def test_zero_axis_sign_matches_curvature(self):
        # finite-difference curvature of the entropy curve agrees in sign
        for q, expect_positive in ((0.25, True), (0.75, False)):
            p = StateParams(q, 0.0)
            h = 1e-3
            fd = 2 * (post_entropy(p, h) - post_entropy(p, 0.0)) / h**2
            assert (fd > 0) == expect_positive
            assert (axis_curvature_nats(q) > 0) == expect_positive

    def test_halfpi_curvature_near_axis_root(self):
        val = _halfpi_curvature(StateParams(0.67515, 0.0))
        assert val == pytest.approx(0.0, abs=1e-4)

    def test_halfpi_degenerate_radius_markers(self):
        assert math.isnan(_halfpi_curvature(StateParams(0.5, 0.5)))  # r = 0
        assert math.isnan(_halfpi_curvature(StateParams(0.0, 0.0)))  # r = 1

    def test_diagnostics_fields(self):
        assert axis_curvature_nats(0.25) == pytest.approx(0.5375278407684164, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(triangle_states())
    def test_radius_in_unit_interval(self, p):
        # S(pi/2) = 1 + h((1 + r)/2) bits, in [1, 2] for a radius r in [0, 1]
        assert 1.0 <= endpoint_entropy_halfpi(p) <= 2.0


class TestFidelity:
    def test_landmark_pair(self):
        f = family_fidelity(StateParams(0.5, 0.0), StateParams(0.67515, 0.0))
        assert f == pytest.approx(0.968, abs=1e-3)
        assert f == pytest.approx(0.9683187776504375, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(triangle_states())
    def test_self_fidelity(self, p):
        assert family_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_bell_states(self):
        assert family_fidelity(StateParams(1.0, 0.0), StateParams(0.0, 1.0)) == 0.0

    def test_spectrum_order_fixed(self):
        lam = family_spectrum(StateParams(0.3, 0.2))
        assert lam == pytest.approx([0.5, 0.3, 0.2, 0.0], abs=1e-15)
