import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import closed_triangle_states, golden_minimize, triangle_samples, triangle_states
from xdeficit import (
    Branch,
    StateParams,
    interior_minimum,
    naive_deficit,
    one_way_deficit,
    post_entropy,
    pre_entropy,
)
from xdeficit.deficit import TIE_TOL, _endpoint_values, _pick, endpoint_columns, endpoint_deficit

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


def branch_values(p: StateParams) -> tuple[float, float, tuple[float, float] | None]:
    """Candidate deficits (delta0, delta_halfpi, interior) in bits, ``interior``
    the (delta, theta) of the interior minimum or None without one."""
    s, delta0, delta_halfpi = _endpoint_values(p)
    ext = interior_minimum(p)
    return delta0, delta_halfpi, None if ext is None else (ext.value - s, ext.theta)


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


def closed_triangle_columns(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(q1, q2) of seeded states over the closed triangle, as ``StateParams``
    keeps them: the interior, the axes, the hypotenuse and the diagonal, the
    corners, states within 1e-12 of each edge, and q2 from 1e-3 down to the
    least subnormal beside the axis."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    d = 1e-12 * rng.random(n)
    tiny = 10.0 ** rng.uniform(-323.3, -3.0, n)
    interior = triangle_samples(n, seed)
    pairs = [
        (interior[:, 0], interior[:, 1]),
        (u, 0.0 * u), (0.0 * u, u),  # the axes
        (u, 1.0 - u),  # the hypotenuse
        (u / 2.0, u / 2.0),  # the diagonal
        (u * (1.0 - d), d), (d, u * (1.0 - d)),  # beside the axes
        (u, np.maximum(1.0 - u - d, 0.0)),  # beside the hypotenuse
        (u / 2.0, u / 2.0 * (1.0 - d)),  # beside the diagonal
        (u * (1.0 - tiny), tiny), (np.array([5e-324, 1.0, 1.0 - 5e-324]), np.array([5e-324] * 3)),
        (np.array([0.0, 1.0, 0.0, 1e-12, 1.0 - 1e-12, 0.0]),
         np.array([0.0, 0.0, 1.0, 0.0, 1e-12, 1.0 - 1e-12])),  # corners
    ]
    states = [StateParams(a, b) for q1, q2 in pairs for a, b in zip(q1.tolist(), q2.tolist())]
    return np.array([p.q1 for p in states]), np.array([p.q2 for p in states])


def endpoint_column_mismatches(q1: np.ndarray, q2: np.ndarray) -> list[tuple[float, float]]:
    """The states (q1[k], q2[k]) where a row of ``endpoint_columns`` is not
    ``==`` to ``endpoint_deficit`` in delta, branch and angle."""
    delta, at_zero, theta = endpoint_columns(q1, q2)
    rows = zip(delta.tolist(), at_zero.tolist(), theta.tolist())
    bad = []
    for a, b, (d, z, t) in zip(q1.tolist(), q2.tolist(), rows):
        res = endpoint_deficit(StateParams(a, b))
        branch = Branch.AT_ZERO if z else Branch.AT_HALF_PI
        if (d, branch, t) != (res.delta, res.branch, res.optimal_theta):
            bad.append((a, b))
    return bad


class TestEndpointColumns:
    def test_equal_to_endpoint_deficit(self):
        # math.log2 and math.hypot per element keep every entry ==; numpy's
        # forms differ in the last bit on a fraction of the states
        q1, q2 = closed_triangle_columns(2000, seed=12)
        assert endpoint_column_mismatches(q1, q2) == []
        # on the diagonal both entropies agree to the last bit: delta is 0
        diagonal = q1 == q2
        assert diagonal.sum() > 2000 and not endpoint_columns(q1[diagonal], q2[diagonal])[0].any()

    @pytest.mark.parametrize("resolution", [100, 101, 137])
    def test_equal_on_the_sweep_columns(self, resolution):
        # the labelled cells of a sweep repeat each q1, q2, 1 - s and s/2
        # many times, so the logarithms taken once per distinct weight are
        # gathered back into many rows
        centers = (np.arange(resolution) + 0.5) / resolution
        i, j = np.nonzero(centers[:, None] + centers <= 1.0)
        q1, q2 = centers[i[j <= i]], centers[j[j <= i]]
        assert np.unique(q1).size <= resolution and q1.size > 20 * resolution
        assert endpoint_column_mismatches(q1, q2) == []

    def test_equal_on_repeated_and_distinct_values(self):
        # unsorted columns of states drawn 3x over, then the distinct states
        # they were drawn from, zero weights among them
        q1, q2 = closed_triangle_columns(200, seed=31)
        k = np.random.default_rng(31).integers(0, q1.size, 3 * q1.size)
        q1, q2 = np.concatenate([q1[k], q1]), np.concatenate([q2[k], q2])
        assert np.unique(q1).size < q1.size / 2
        assert endpoint_column_mismatches(q1, q2) == []


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
