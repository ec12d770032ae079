import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import closed_triangle_states, triangle_samples, triangle_states
from xdeficit import (
    Branch,
    StateParams,
    branch_values,
    naive_deficit,
    one_way_deficit,
    post_entropy,
    pre_entropy,
)
from xdeficit.deficit import TIE_TOL, _pick, endpoint_branch, endpoint_deficit
from xdeficit.shape import golden_minimize

HALF_PI = math.pi / 2


def brute_force_deficit(p: StateParams, n: int = 4096) -> float:
    """Independent dense-grid minimum of the deficit curve, golden-refined."""
    thetas = np.linspace(0.0, HALF_PI, n + 1)
    y = np.asarray(post_entropy(p, thetas))
    i = int(np.argmin(y))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, n)]
    _, val = golden_minimize(lambda t: post_entropy(p, t), lo, hi, 1e-11)
    return min(val, y[0], y[-1]) - pre_entropy(p)


class TestBranchValues:
    def test_axis_half(self):
        delta0, _, _ = branch_values(StateParams(0.5, 0.0))
        assert delta0 == pytest.approx(0.5, abs=1e-12)

    def test_equal_endpoint_state(self):
        delta0, delta_halfpi, interior = branch_values(StateParams(0.61554, 0.0))
        assert delta0 == pytest.approx(0.61554, abs=1e-4)
        assert delta_halfpi == pytest.approx(0.61554, abs=1e-4)
        assert abs(delta0 - delta_halfpi) < 2e-6
        assert interior is not None and interior[0] < delta0

    def test_product_state(self):
        delta0, delta_halfpi, interior = branch_values(StateParams(0.0, 0.0))
        assert delta0 == pytest.approx(0.0, abs=1e-12)
        # measuring the product state along the equator does create entropy
        assert delta_halfpi == pytest.approx(1.0, abs=1e-12)
        assert interior is None


class TestOneWayDeficit:
    def test_pure_bell(self):
        res = one_way_deficit(StateParams(1.0, 0.0))
        assert res.delta == pytest.approx(1.0, abs=1e-12)
        assert res.branch is Branch.AT_ZERO
        assert res.tie  # the deficit curve is constant, both endpoints agree

    def test_equal_endpoint_state_interior_wins(self):
        res = one_way_deficit(StateParams(0.61554, 0.0))
        assert res.delta == pytest.approx(0.60157, abs=5e-4)
        assert res.branch is Branch.INTERIOR
        assert 0.0 < res.optimal_theta < HALF_PI

    def test_product_state(self):
        res = one_way_deficit(StateParams(0.0, 0.0))
        assert res.delta == pytest.approx(0.0, abs=1e-12)
        assert res.branch is Branch.AT_ZERO
        assert not res.tie  # the other endpoint branch sits a full bit higher

    def test_diagonal_mixture_is_classical(self):
        # equal Bell weights give a computational-basis-diagonal state
        res = one_way_deficit(StateParams(0.375, 0.375))
        assert res.delta == pytest.approx(0.0, abs=1e-12)
        assert res.branch is Branch.AT_ZERO

    @pytest.mark.parametrize("q", [0.045, 0.055, 0.105])
    def test_diagonal_deficit_exactly_zero(self, q):
        # pre_entropy and the theta = 0 endpoint sum the same weights in the
        # same order, so no rounding leaves the deficit an ulp below zero
        res = one_way_deficit(StateParams(q, q))
        assert res.delta == 0.0
        assert res.branch is Branch.AT_ZERO

    @settings(max_examples=60, deadline=None)
    @given(triangle_states())
    def test_exchange_symmetry(self, p):
        a = one_way_deficit(p)
        b = one_way_deficit(p.swapped())
        assert a.delta == pytest.approx(b.delta, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(closed_triangle_states())
    @example(StateParams(0.7205, 0.0295))  # interior branch
    @example(StateParams(0.7692692801282028, 0.8 - 0.7692692801282028))  # endpoint tie
    def test_exchange_symmetry_exact(self, p):
        # the closed forms are bit-symmetric, so the grid, the brackets, the
        # root iterates and the tie rule are too
        assert one_way_deficit(p) == one_way_deficit(p.swapped())

    def test_nonnegative_and_matches_brute_force(self):
        for q1, q2 in triangle_samples(500, seed=2024):
            p = StateParams(q1, q2)
            res = one_way_deficit(p)
            assert res.delta >= -1e-10
            assert res.delta == pytest.approx(brute_force_deficit(p), abs=1e-8)

    def test_continuity_through_jump_window(self):
        # the minimized deficit stays continuous across both branch switches
        q1s = np.arange(0.7195, 0.7245, 1e-4)
        deltas = [one_way_deficit(StateParams(q1, 0.75 - q1)).delta for q1 in q1s]
        assert np.max(np.abs(np.diff(deltas))) < 1e-3


class TestTieRule:
    @staticmethod
    def _ranked_reference(delta0, delta_halfpi, interior):
        # the rule as a candidate list sorted by branch preference
        rank = {Branch.AT_ZERO: 0, Branch.AT_HALF_PI: 1, Branch.INTERIOR: 2}
        candidates = [(delta0, Branch.AT_ZERO, 0.0), (delta_halfpi, Branch.AT_HALF_PI, HALF_PI)]
        if interior is not None:
            candidates.append((interior[0], Branch.INTERIOR, interior[1]))
        best = min(c[0] for c in candidates)
        contenders = sorted((c for c in candidates if c[0] - best < TIE_TOL),
                            key=lambda c: rank[c[1]])
        return (*contenders[0], len(contenders) > 1)

    def test_matches_ranked_candidates(self):
        # values on a lattice of TIE_TOL / 2 make ties of every combination
        rng = np.random.default_rng(4)
        for d0, dh, di in 0.1 + 0.5 * TIE_TOL * rng.integers(0, 5, (2000, 3)):
            for interior in (None, (di, 1.2)):
                assert _pick(d0, dh, interior) == self._ranked_reference(d0, dh, interior)

    def test_endpoint_branch_is_endpoint_deficit(self):
        for q1, q2 in triangle_samples(300, seed=12):
            res = endpoint_deficit(StateParams(q1, q2))
            assert endpoint_branch(q1, q2) == (res.delta, res.branch, res.optimal_theta, res.tie)


class TestNaiveRule:
    def test_agrees_on_axis_bifurcation_point(self):
        p = StateParams(0.5, 0.0)
        assert naive_deficit(p).delta == pytest.approx(one_way_deficit(p).delta, abs=1e-9)

    def test_agrees_on_monotone_state(self):
        p = StateParams(0.375, 0.375)
        assert naive_deficit(p).delta == pytest.approx(one_way_deficit(p).delta, abs=1e-12)

    def test_agrees_on_unimodal_axis_state(self):
        # both endpoint curvatures negative, interior minimum correctly taken
        p = StateParams(0.6, 0.0)
        res = naive_deficit(p)
        assert res.branch is Branch.INTERIOR
        assert res.delta == pytest.approx(one_way_deficit(p).delta, abs=1e-9)

    def test_overestimates_on_bimodal_state(self):
        # diverging curvature at theta=0 hides the interior minimum from the
        # rule, which falls back to the endpoint and lands too high
        p = StateParams(0.7217, 0.0283)
        gap = naive_deficit(p).delta - one_way_deficit(p).delta
        assert gap > 1.5e-4

    def test_endpoint_fallback_keeps_tie_rule(self):
        # q1 = 1e-10 past the equal-endpoint root of total 0.8: the endpoint
        # deficits differ by 2.8e-10 < TIE_TOL, a tie that AtZero wins
        q1 = 0.7692692801282028
        p = StateParams(q1, 0.8 - q1)
        res = naive_deficit(p)
        assert res.branch is Branch.AT_ZERO and res.tie
        assert res == one_way_deficit(p)

    def test_certificate_state(self):
        p = StateParams(0.72175, 0.02825)
        gap = naive_deficit(p).delta - one_way_deficit(p).delta
        assert gap > 2.5e-4
        assert naive_deficit(p).branch is not Branch.INTERIOR
        assert one_way_deficit(p).branch is Branch.INTERIOR
