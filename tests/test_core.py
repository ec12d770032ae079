import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import triangle_samples, triangle_states
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
    endpoint_entropy_halfpi_grid,
    endpoint_entropy_zero_grid,
    post_entropy_grid,
    s2_halfpi,
    s2_halfpi_grid,
    s2_zero_axis,
)

HALF_PI = math.pi / 2

# a weight anywhere in [0, 1], on an edge value, or within 1e-12 of one
_edge_weights = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1e-12),
    st.floats(min_value=1.0 - 1e-12, max_value=1.0),
)


@st.composite
def closed_triangle_states(draw):
    """States of the closed triangle, weighted toward its edges and corners.

    Covers the interior, the three edges (the hypotenuse too), the corners and
    points within 1e-12 of each of them.
    """
    q1 = draw(_edge_weights)
    q2 = draw(st.one_of(
        _edge_weights,
        st.floats(min_value=0.0, max_value=1e-12).map(lambda d: max(1.0 - q1 - d, 0.0)),
    ))
    if q1 + q2 > 1.0:
        q2 = max(1.0 - q1, 0.0)
    return StateParams(q1, q2)


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
