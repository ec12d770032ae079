import math

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
    endpoint_diagnostics,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    family_fidelity,
    family_spectrum,
    post_entropy,
    post_spectrum,
    pre_entropy,
    quaternary_entropy,
)
from xdeficit.core import (
    curve_workspace,
    endpoint_entropy_halfpi_grid,
    endpoint_entropy_zero_grid,
    entropy_curve,
    post_entropy_grid,
    post_entropy_slope,
    s2_halfpi,
    s2_halfpi_grid,
    s2_zero_axis,
)

HALF_PI = math.pi / 2

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
    # operations and order entropy_curve must reproduce to the bit
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
        # a reused workspace and output buffer give the same bits
        shape = ref.shape
        work, out = curve_workspace(shape), np.empty(shape)
        for _ in range(2):
            entropy_curve(q1, q2, np.cos(self.THETAS), np.sin(self.THETAS), work, out)
            assert np.array_equal(out, ref)

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


class TestGridForms:
    # numpy's log2, log and hypot may differ from libm's by an ulp, so the
    # broadcast forms match their scalar forms to rounding, not to the bit
    @settings(max_examples=300, deadline=None)
    @given(st.lists(closed_triangle_states(), min_size=1, max_size=16))
    @example([StateParams(0.0, 0.0), StateParams(1.0, 0.0), StateParams(0.0, 1.0),
              StateParams(0.5, 0.5), StateParams(1.0 - 1e-12, 1e-12),
              # 4e-8 in q1 from the half-pi root of q1 + q2 = 0.75: s2 = -9e-8
              StateParams(0.7235826786873963, 0.02641732131260366)])
    def test_match_scalar_forms(self, states):
        q1 = np.array([p.q1 for p in states])
        q2 = np.array([p.q2 for p in states])
        zero = endpoint_entropy_zero_grid(q1, q2)
        halfpi = endpoint_entropy_halfpi_grid(q1, q2)
        s2 = s2_halfpi_grid(q1, q2)
        assert zero.shape == halfpi.shape == s2.shape == q1.shape
        for k, p in enumerate(states):
            assert abs(zero[k] - endpoint_entropy_zero(p)) <= 1e-15
            assert abs(halfpi[k] - endpoint_entropy_halfpi(p)) <= 1e-15
            ref = s2_halfpi(p)
            if ref is None:
                assert math.isnan(s2[k])
            else:
                # s2_halfpi evaluates through s2_halfpi_grid; the tolerance
                # only allows a one-element and a batched ufunc call to round
                # differently (term1 - term2 cancels on the zero set)
                assert s2[k] == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_broadcast_shapes(self):
        q1 = np.linspace(0.0, 0.5, 4)[:, None]
        q2 = np.linspace(0.0, 0.5, 3)[None, :]
        for form in (endpoint_entropy_zero_grid, endpoint_entropy_halfpi_grid, s2_halfpi_grid):
            assert form(q1, q2).shape == (4, 3)
        assert np.ndim(endpoint_entropy_zero_grid(0.3, 0.2)) == 0


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
    ])
    def test_matches_mpmath_derivative(self, q1, q2, theta):
        pytest.importorskip("mpmath")
        ref = mp_reference.slope(q1, q2, theta)
        # the smallest eigenvalue (~theta^2) cancels against 1 with a relative
        # error ~eps / theta^2, which costs ~eps / theta of absolute slope
        assert post_entropy_slope(StateParams(q1, q2), theta) == pytest.approx(
            ref, rel=1e-12, abs=1e-14 + 1e-15 / theta
        )

    @settings(max_examples=100, deadline=None)
    @given(closed_triangle_states())
    def test_stationary_ends(self, p):
        assert post_entropy_slope(p, 0.0) == 0.0
        assert abs(post_entropy_slope(p, HALF_PI)) <= 1e-15


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
        for form in (pre_entropy, endpoint_entropy_zero, endpoint_entropy_halfpi, s2_halfpi):
            assert form(p) == form(m), form.__name__
        for form in (endpoint_entropy_zero_grid, endpoint_entropy_halfpi_grid, s2_halfpi_grid):
            assert np.array_equal(form(p.q1, p.q2), form(m.q1, m.q2), equal_nan=True)


class TestDiagnostics:
    def test_zero_axis_roots(self):
        assert s2_zero_axis(0.5) == 0.0
        assert s2_zero_axis(1.0) == 0.0

    def test_zero_axis_quarter(self):
        # exact closed value 0.3 * ln 6, positive side of the root at 1/2
        val = s2_zero_axis(0.25)
        assert val == pytest.approx(0.5375278407684164, abs=1e-12)
        assert val > 0

    def test_zero_axis_sign_matches_curvature(self):
        # finite-difference curvature of the entropy curve agrees in sign
        for q, expect_positive in ((0.25, True), (0.75, False)):
            p = StateParams(q, 0.0)
            h = 1e-3
            fd = 2 * (post_entropy(p, h) - post_entropy(p, 0.0)) / h**2
            assert (fd > 0) == expect_positive
            assert (s2_zero_axis(q) > 0) == expect_positive

    def test_halfpi_curvature_near_axis_root(self):
        val = s2_halfpi(StateParams(0.67515, 0.0))
        assert val == pytest.approx(0.0, abs=1e-4)

    def test_halfpi_degenerate_radius_markers(self):
        assert s2_halfpi(StateParams(0.5, 0.5)) is None  # r = 0
        assert s2_halfpi(StateParams(0.0, 0.0)) is None  # r = 1

    def test_diagnostics_fields(self):
        d = endpoint_diagnostics(StateParams(0.25, 0.0))
        assert d.s2_zero_axis == pytest.approx(0.5375278407684164, abs=1e-12)
        assert 0.0 <= d.r <= 1.0
        off = endpoint_diagnostics(StateParams(0.3, 0.2))
        assert off.s2_zero_axis is None  # divergent off the axes

    @settings(max_examples=200, deadline=None)
    @given(triangle_states())
    def test_radius_in_unit_interval(self, p):
        assert -1e-15 <= endpoint_diagnostics(p).r <= 1.0 + 1e-15


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
