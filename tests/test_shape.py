import logging
import math

import numpy as np
import pytest

import mp_reference
from conftest import triangle_samples
from xdeficit import (
    ShapeClass,
    StateParams,
    classify_shape,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    endpoint_slope_check,
    interior_minimum,
    post_entropy,
)
from xdeficit.shape import (
    ENDPOINT_MARGIN,
    _SPARE_STEPS,
    _angles,
    _extremum_brackets,
    _grid_slopes,
    find_root,
    golden_minimize,
)

HALF_PI = math.pi / 2


class TestClassifyShape:
    @pytest.mark.parametrize(
        "q1,q2,expected",
        [
            (0.375, 0.375, ShapeClass.MONOTONE_INCREASING),
            (0.55, 0.0, ShapeClass.INTERIOR_MINIMUM),
            (0.7205, 0.0295, ShapeClass.BIMODAL),
            (0.7, 0.0, ShapeClass.MONOTONE_DECREASING),
            (0.0, 0.0, ShapeClass.MONOTONE_INCREASING),
            (1.0, 0.0, ShapeClass.FLAT),
            (0.727, 0.023, ShapeClass.INTERIOR_MAXIMUM),
        ],
    )
    def test_landmark_shapes(self, q1, q2, expected):
        assert classify_shape(StateParams(q1, q2)).shape_class is expected

    def test_bimodal_structure(self):
        report = classify_shape(StateParams(0.7205, 0.0295))
        kinds = [e.kind for e in report.extrema]
        assert sorted(kinds) == ["max", "min"]
        thetas = [e.theta for e in report.extrema]
        assert thetas == sorted(thetas)
        for e in report.extrema:
            assert 0.0 < e.theta < HALF_PI

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            classify_shape(StateParams(0.3, 0.2), grid_n=32)
        with pytest.raises(ValueError):
            classify_shape(StateParams(0.3, 0.2), refine_tol=1e-6)

    def test_axis_shape_sequence(self):
        # the axis sweep passes monotone-increasing, interior-minimum and
        # monotone-decreasing windows separated by the weights 0.5 and 0.67515
        for q1 in (0.10, 0.25, 0.45):
            assert (
                classify_shape(StateParams(q1, 0.0)).shape_class
                is ShapeClass.MONOTONE_INCREASING
            )
        for q1 in (0.502, 0.55, 0.674):
            assert (
                classify_shape(StateParams(q1, 0.0)).shape_class
                is ShapeClass.INTERIOR_MINIMUM
            )
        for q1 in (0.677, 0.80, 0.95):
            assert (
                classify_shape(StateParams(q1, 0.0)).shape_class
                is ShapeClass.MONOTONE_DECREASING
            )

    def test_bimodal_ordering_in_window(self):
        # interior maximum sits between the left endpoint and the minimum
        for q1 in (0.7205, 0.7216, 0.7230):
            report = classify_shape(StateParams(q1, 0.75 - q1))
            assert report.shape_class is ShapeClass.BIMODAL
            ext = {e.kind: e for e in report.extrema}
            assert 0.0 < ext["max"].theta < ext["min"].theta < HALF_PI

    def test_extremum_count_bounded(self):
        # no tested state may ever report more than two interior extrema
        for q1, q2 in triangle_samples(300, seed=91):
            report = classify_shape(StateParams(q1, q2))
            assert len(report.extrema) <= 2


def loop_brackets(theta, signs):
    """Reference bracket finder: one pass over consecutive nonzero slopes."""
    out = []
    nz = np.nonzero(signs != 0.0)[0]
    for i, j in zip(nz[:-1], nz[1:]):
        if signs[i] > 0.0 and signs[j] < 0.0:
            out.append(("max", theta[i], theta[j + 1]))
        elif signs[i] < 0.0 and signs[j] > 0.0:
            out.append(("min", theta[i], theta[j + 1]))
    return out


class TestExtremumBrackets:
    def test_matches_loop_reference(self):
        theta = np.linspace(0.0, HALF_PI, 257)
        states = [tuple(q) for q in triangle_samples(300, seed=77)]
        states += [(0.7205, 0.0295), (0.55, 0.0), (0.727, 0.023), (1.0, 0.0), (0.0, 0.0)]
        seen_flips = 0
        for q1, q2 in states:
            signs = _grid_slopes(np.asarray(post_entropy(StateParams(q1, q2), theta)))[0]
            expected = loop_brackets(theta, signs)
            assert _extremum_brackets(theta, signs) == expected
            seen_flips += len(expected)
        assert seen_flips > 0

    def test_flat_runs_between_flips(self):
        theta = np.arange(9.0)
        signs = np.array([1.0, 0.0, 0.0, -1.0, -1.0, 0.0, 1.0, 0.0])
        assert _extremum_brackets(theta, signs) == [("max", 0.0, 4.0), ("min", 4.0, 7.0)]
        assert _extremum_brackets(theta, np.zeros(8)) == []


class TestInteriorMinimum:
    def test_at_jump_landmark(self):
        # verified against a 40-digit evaluation of the entropy curve
        ext = interior_minimum(StateParams(0.721590, 0.028410))
        assert ext is not None
        assert ext.theta == pytest.approx(1.039193, abs=5e-4)

    def test_monotone_state_has_none(self):
        assert interior_minimum(StateParams(0.375, 0.375)) is None

    def test_depth_at_equal_endpoint_state(self):
        p = StateParams(0.61554, 0.0)
        ext = interior_minimum(p)
        depth = endpoint_entropy_zero(p) - ext.value
        assert depth == pytest.approx(0.01397, abs=5e-4)

    def test_first_derivative_vanishes_at_minimum(self):
        ext = interior_minimum(StateParams(0.6, 0.0))
        p = StateParams(0.6, 0.0)
        h = 1e-5
        slope = (post_entropy(p, ext.theta + h) - post_entropy(p, ext.theta - h)) / (2 * h)
        assert abs(slope) < 1e-8


def _recording(fn):
    """fn wrapped to record every (x, fn(x)) it is called with."""
    seen = []

    def f(x):
        y = fn(x)
        seen.append((x, y))
        return y

    return f, seen


def _bracket_width(seen):
    # the tightest sign-change bracket among the evaluated points of an
    # increasing function
    return min(x for x, y in seen if y > 0.0) - max(x for x, y in seen if y < 0.0)


class TestFindRoot:
    XTOL = 1e-10

    def _solve(self, fn, a, b):
        f, seen = _recording(fn)
        fa, fb = f(a), f(b)
        x = find_root(f, a, b, fa, fb, self.XTOL)
        bisection = math.ceil(math.log2((b - a) / self.XTOL))
        return x, seen, bisection

    def test_linear_function(self):
        x, seen, _ = self._solve(lambda x: 3.0 * x - 1.0, 0.0, 1.0)
        assert abs(x - 1.0 / 3.0) <= self.XTOL
        assert len(seen) <= 2 + 2  # the two ends, one secant step, one tol step

    def test_regula_falsi_stall(self):
        # convex and increasing: regula falsi keeps the right end forever
        fn = lambda x: x**10 - 0.5**10
        a, b = 0.0, 1.3
        fa, fb = fn(a), fn(b)
        for _ in range(200):
            x = a - fa * (b - a) / (fb - fa)
            fx = fn(x)
            if fx < 0.0:
                a, fa = x, fx
            else:
                b, fb = x, fx
        assert b == 1.3 and b - a > 0.5  # plain regula falsi has stalled

        x, seen, bisection = self._solve(fn, 0.0, 1.3)
        assert _bracket_width(seen) <= self.XTOL
        assert abs(x - 0.5) <= self.XTOL
        assert len(seen) - 2 <= bisection + _SPARE_STEPS

    def test_triple_root_needs_no_more_than_bisection(self):
        # interpolation converges only linearly on a multiple root; the
        # halving schedule caps the evaluations
        x, seen, bisection = self._solve(lambda x: x**3, -1.0, 2.0)
        assert _bracket_width(seen) <= self.XTOL
        assert abs(x) <= self.XTOL
        assert len(seen) - 2 <= bisection + _SPARE_STEPS

    def test_rejects_a_non_bracket(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, self.XTOL)
        with pytest.raises(ValueError):
            find_root(lambda x: math.nan, -1.0, 2.0, -1.0, 2.0, self.XTOL)


# states of window_queries (seed 11) whose interior maximum sits within the
# first grid cell, near theta = 0.002; the slope there is probed just inside
# the stationary end theta = 0
NEAR_ZERO_MAXIMA = [
    (0.5604864260123682, 0.004463497532858741),
    (0.5367913783753963, 0.00288844267835299),
    (0.5392489323304814, 0.003084351258499796),
    (0.5703794218454357, 0.00536344727836154),
    (0.5721034640882172, 0.005201014292272489),
    (0.510245992242883, 0.0007726214634004229),
]


class TestSlopeRefinement:
    @pytest.mark.parametrize("state", [(0.7205, 0.0295), (0.61554, 0.0), "jump 0.75"])
    def test_minimizer_meets_refine_tol(self, state):
        pytest.importorskip("mpmath")
        if state == "jump 0.75":
            q1, _, _ = mp_reference.jump_point(0.75, 0.721590, 1.0392)
            state = (float(q1), float(0.75 - q1))
        p = StateParams(*state)
        ext = interior_minimum(p)
        root = mp_reference.slope_root(p.q1, p.q2, ext.theta)
        assert abs(ext.theta - root) <= 1e-10  # the default refine_tol

    @pytest.mark.parametrize("q1,q2", NEAR_ZERO_MAXIMA)
    def test_near_zero_maximum_kept(self, q1, q2, caplog):
        with caplog.at_level(logging.DEBUG, logger="xdeficit.shape"):
            report = classify_shape(StateParams(q1, q2))
        assert report.shape_class is ShapeClass.BIMODAL
        ext = {e.kind: e for e in report.extrema}
        assert ENDPOINT_MARGIN < ext["max"].theta < 3e-3
        assert not caplog.records  # found as a slope root, without golden section

    def test_two_extrema_in_one_cell_fall_back_to_golden(self, caplog):
        # near bimodality birth one max bracket of the 1024 grid also holds
        # the minimum, so the slope is positive at both of its ends
        p = StateParams(0.5268753242492676, 0.0031246757507323863)
        theta = _angles(1024)
        brackets = _extremum_brackets(theta, _grid_slopes(np.asarray(post_entropy(p, theta)))[0])
        _, lo, hi = next(b for b in brackets if b[0] == "max")
        with caplog.at_level(logging.DEBUG, logger="xdeficit.shape"):
            report = classify_shape(p, grid_n=1024)
        assert report.shape_class is ShapeClass.BIMODAL
        assert [r.name for r in caplog.records] == ["xdeficit.shape"]
        assert "golden section" in caplog.records[0].getMessage()
        golden, _ = golden_minimize(lambda t: -post_entropy(p, t), lo, hi, 1e-10)
        assert next(e.theta for e in report.extrema if e.kind == "max") == golden


class TestEndpointSlopeCheck:
    @pytest.mark.parametrize("q1,q2", [(0.3, 0.2), (0.7217, 0.0283), (1.0, 0.0)])
    def test_stationary_endpoints(self, q1, q2):
        s0, s1 = endpoint_slope_check(StateParams(q1, q2))
        assert s0 < 1e-6
        assert s1 < 1e-6


class TestGlobalMinimumConsistency:
    def test_against_dense_grid(self):
        # classification plus endpoints must reproduce the brute-force global
        # minimum of the curve for a bulk random sample
        thetas = np.linspace(0.0, HALF_PI, 4097)
        for q1, q2 in triangle_samples(500, seed=171):
            p = StateParams(q1, q2)
            y = np.asarray(post_entropy(p, thetas))
            i = int(np.argmin(y))
            lo = thetas[max(i - 1, 0)]
            hi = thetas[min(i + 1, len(thetas) - 1)]
            _, brute = golden_minimize(lambda t: post_entropy(p, t), lo, hi, 1e-10)
            brute = min(brute, y[0], y[-1])

            candidates = [endpoint_entropy_zero(p), endpoint_entropy_halfpi(p)]
            ext = interior_minimum(p)
            if ext is not None:
                candidates.append(ext.value)
            assert min(candidates) == pytest.approx(brute, abs=1e-9)
