import math

import numpy as np
import pytest

import mp_reference
import xdeficit.shape
from conftest import golden_minimize, triangle_samples
from test_core import kernel_states
from xdeficit import (
    Branch,
    ShapeClass,
    StateParams,
    classify_shape,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    interior_minimum,
    jump_angle_table,
    one_way_deficit,
    TrajectorySpec,
    post_entropy,
    solve_halfpi_boundary,
    sweep,
)
from xdeficit.boundaries import _window_minimum
from xdeficit.core import post_entropy_slope
from xdeficit.shape import (
    ENDPOINT_MARGIN,
    SLOPE_FLOOR,
    UnresolvedShape,
    _SPARE_STEPS,
    _angle_table,
    _extremum_brackets,
    find_root,
    find_roots,
    needs_refinement,
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


def _slopes(p, theta):
    """The scalar dS/dtheta of p at each angle of theta."""
    return np.array([post_entropy_slope(p, t) for t in theta])


def loop_brackets(slopes):
    """Reference bracket finder: one pass over consecutive signed slopes."""
    out = []
    signed = [k for k, s in enumerate(slopes) if abs(s) >= SLOPE_FLOOR]
    for i, j in zip(signed[:-1], signed[1:]):
        if (slopes[i] > 0.0) != (slopes[j] > 0.0):
            out.append((i, j))
    return out


class TestFloatResults:
    def test_angles_are_python_floats(self):
        # the annotated float, not numpy scalars from the slope grid
        report = classify_shape(StateParams(0.7225, 0.0275))
        assert report.shape_class is ShapeClass.BIMODAL
        for ext in report.extrema:
            assert type(ext.theta) is float and type(ext.value) is float
        res = one_way_deficit(StateParams(0.7225, 0.0275))
        assert res.branch is Branch.INTERIOR and type(res.optimal_theta) is float
        assert all(type(rec.jump_angle) is float for rec in jump_angle_table())
        cells = sweep(100, theta_grid=128).cells
        assert {type(c.theta_opt) for c in cells if c.branch == "Interior"} == {float}


class TestExtremumBrackets:
    def test_matches_loop_reference(self):
        theta = _angle_table(256)[0]
        states = [tuple(q) for q in triangle_samples(300, seed=77)]
        states += [(0.7205, 0.0295), (0.55, 0.0), (0.727, 0.023), (1.0, 0.0), (0.0, 0.0)]
        seen_flips = 0
        for q1, q2 in states:
            slopes = _slopes(StateParams(q1, q2), theta)
            expected = loop_brackets(slopes)
            assert _extremum_brackets(slopes) == expected
            seen_flips += len(expected)
        assert seen_flips > 0

    def test_flat_runs_between_flips(self):
        slopes = np.array([1.0, 0.0, 1e-13, -1.0, -1.0, -1e-13, 1.0, 0.0])
        assert _extremum_brackets(slopes) == [(0, 3), (4, 6)]
        assert _extremum_brackets(np.zeros(8)) == []
        assert _extremum_brackets(np.full(8, 0.5 * SLOPE_FLOOR)) == []


class TestNeedsRefinement:
    @staticmethod
    def _states():
        # random states interleaved with states of the jump window and the
        # two sides of the axis half-pi root, so that flags of both values
        # fall in every chunk
        rng = np.random.default_rng(21)
        root = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
        window = [(t - d, d) for t, d in zip(rng.uniform(0.55, 0.77, 48), rng.uniform(0.0, 0.04, 48))]
        window += [(root + 1e-6, 0.0), (root - 1e-6, 0.0)]
        mixed = [x for pair in zip(map(tuple, triangle_samples(50, seed=9)), window) for x in pair]
        q = np.array(mixed)
        return q[:, 0], q[:, 1]

    @pytest.mark.parametrize("grid_n", [128, 512])
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 100])
    def test_matches_grid_slopes_rule(self, grid_n, count):
        # reference: signed scalar slopes of both signs on the sample angles
        q1, q2 = (a[-count:] for a in self._states())
        theta = _angle_table(grid_n)[0]
        expected = []
        for a, b in zip(q1, q2):
            s = _slopes(StateParams(a, b), theta)
            expected.append(s.max() >= SLOPE_FLOOR and s.min() <= -SLOPE_FLOOR)
        flags = needs_refinement(q1, q2, grid_n)
        assert flags.dtype == bool and flags.shape == (count,)
        assert flags.tolist() == expected
        if count == 100:
            assert 0 < flags.sum() < count


class TestAngleTable:
    def test_cached_and_read_only(self):
        table = _angle_table(512)
        assert _angle_table(512) is table
        theta, ct, st = table
        grid = np.linspace(0.0, HALF_PI, 513)
        assert np.array_equal(theta[1:-1], grid[1:-1])
        assert (theta[0], theta[-1]) == (ENDPOINT_MARGIN, HALF_PI - ENDPOINT_MARGIN)
        assert np.array_equal(ct, np.cos(theta)) and np.array_equal(st, np.sin(theta))
        for a in table:
            with pytest.raises(ValueError):
                a[0] = 1.0


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

    @pytest.mark.parametrize("grid_n", [128, 512, 1024])
    def test_is_the_classified_minimum(self, grid_n):
        # refining the minimum's bracket alone gives the minimum that
        # classify_shape reports, to the bit; the paths add bimodal states
        q1, q2 = kernel_states()
        on_path = np.linspace(0.70, 0.745, 46)
        states = [StateParams(a, b) for a, b in zip(q1.tolist(), q2.tolist())]
        states += [StateParams(a, 0.75 - a) for a in on_path] + [StateParams(a - 0.2, 0.0) for a in on_path]
        kinds = set()
        for p in states:
            report = classify_shape(p, grid_n=grid_n)
            kinds.add(report.shape_class)
            minima = [ext for ext in report.extrema if ext.kind == "min"]
            assert interior_minimum(p, grid_n=grid_n) == (minima[0] if minima else None)
        assert {ShapeClass.BIMODAL, ShapeClass.INTERIOR_MINIMUM, ShapeClass.INTERIOR_MAXIMUM} <= kinds

    def test_raises_as_classify_shape(self, monkeypatch):
        p = StateParams(0.3, 0.2)
        for fn in (classify_shape, interior_minimum):
            with pytest.raises(ValueError, match="slope grid must have at least 64 intervals, got 63"):
                fn(p, grid_n=63)
        # a slope row with three sign changes, cos(6 theta), brackets three
        # extrema: the maximum's brackets are counted even where only the
        # minimum is refined
        monkeypatch.setattr(xdeficit.shape, "slope_curve",
                            lambda q1, q2, ct, st: np.cos(6.0 * np.arctan2(st, ct)))
        messages = []
        for fn in (classify_shape, interior_minimum):
            with pytest.raises(UnresolvedShape) as exc:
                fn(p)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and messages[0].startswith("3 interior extrema")


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

    # pure-arithmetic functions of x with one sign change, at r, and a
    # parameter c, so that a float and an array lane round alike: a simple
    # and a triple root, a rational, a step, and a step with a plateau of zeros
    FAMILY = [
        lambda x, r, c: (x - r) * (1.0 + c * x * x),
        lambda x, r, c: (x - r) * (x - r) * (x - r),
        lambda x, r, c: (x - r) / (c + x * x),
        lambda x, r, c: (x >= r) - 0.5,
        lambda x, r, c: (x >= r) - 0.5 + (x >= r + c) - 0.5,
    ]

    def test_array_lanes_equal_the_scalar_solve(self):
        rng = np.random.default_rng(40)
        n = 200
        kind = rng.integers(0, len(self.FAMILY), n)
        r, c = rng.uniform(-1.0, 1.0, n), rng.uniform(0.01, 0.3, n)
        sign = rng.choice([-1.0, 1.0], n)
        lo, hi = r - rng.uniform(1e-3, 2.0, n), r + rng.uniform(1e-3, 2.0, n)
        swap = rng.random(n) < 0.3  # brackets given high end first
        lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
        # a plateau lane with its upper end on the zeros, and its mirror
        # with its lower end there: each end is its lane's root
        kind[:2], sign[:2] = 4, (1.0, -1.0)
        lo[:2], hi[:2] = (r[0] - 1.0, r[1] + 0.5 * c[1]), (r[0] + 0.5 * c[0], r[1] + 1.0)

        def lane(k):
            fn, rk, ck, sk = self.FAMILY[kind[k]], r.item(k), c.item(k), sign.item(k)
            return lambda x: sk * fn(x, rk, ck)

        def f(x, lanes):
            out = np.empty_like(x)
            for i, fn in enumerate(self.FAMILY):
                m = kind[lanes] == i
                out[m] = sign[lanes[m]] * fn(x[m], r[lanes[m]], c[lanes[m]])
            return out

        roots = find_roots(f, lo, hi, self.XTOL)
        for k in range(n):
            g, a, b = lane(k), lo.item(k), hi.item(k)
            fa, fb = g(a), g(b)
            # a zero end counts as non-negative: beside a positive end it
            # brackets nothing, and the lane's root is NaN
            ref = find_root(g, a, b, fa, fb, self.XTOL) if (fa < 0.0) != (fb < 0.0) else math.nan
            assert roots[k] == ref or math.isnan(roots[k]) and math.isnan(ref), k
        assert roots[0] == hi[0] and roots[1] == lo[1]

    @pytest.mark.parametrize("name", ["cube", "tenth power", "steep tanh"])
    def test_array_lanes_keep_the_halving_schedule(self, name):
        # every lane within bisection's count plus the spare steps, on the
        # multiple root, the regula falsi stall and a step-like function
        fn, root, brackets = {
            "cube": (lambda x: x**3, 0.0, [(-1.0, 2.0), (2.0, -1.0), (-0.5, 2.0), (-3.0, 1.0)]),
            "tenth power": (lambda x: x**10 - 0.5**10, 0.5, [(0.0, 1.3), (1.3, 0.0), (0.2, 1.3), (0.45, 2.0)]),
            "steep tanh": (lambda x: np.tanh(1e6 * (x - 0.3)), 0.3, [(0.0, 1.0), (1.0, 0.0), (0.29, 0.5), (-1.0, 2.0)]),
        }[name]
        points = [set() for _ in brackets]  # the distinct points of each lane

        def f(x, lanes):
            for k, v in zip(lanes.tolist(), x.tolist()):
                points[k].add(v)
            return fn(x)

        lo, hi = np.array(brackets).T
        roots = find_roots(f, lo, hi, self.XTOL)
        for k, (a, b) in enumerate(brackets):
            assert abs(roots[k] - root) <= self.XTOL
            assert len(points[k]) - 2 <= math.ceil(math.log2(abs(b - a) / self.XTOL)) + _SPARE_STEPS

    def test_returns_an_end_where_f_is_zero(self):
        def never(x):
            raise AssertionError("no evaluation expected")

        assert find_root(never, 0.0, 1.0, 0.0, 1.0, self.XTOL) == 0.0
        assert find_root(never, 0.0, 1.0, -1.0, 0.0, self.XTOL) == 1.0

    def test_rejects_xtol_below_the_float_resolution(self):
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1000:
                raise AssertionError("the bracket cannot shrink to xtol")
            return x - 1.0

        with pytest.raises(ValueError, match="float resolution"):
            find_root(f, 0.5, 2.0, -0.5, 1.0, 1e-17)
        assert calls == []

    def test_rejects_a_non_bracket(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, self.XTOL)
        with pytest.raises(ValueError):
            find_root(lambda x: math.nan, -1.0, 2.0, -1.0, 2.0, self.XTOL)


# states of window_queries (seed 11) whose interior maximum sits within the
# first grid cell, near theta = 0.002, above the first slope sample at
# ENDPOINT_MARGIN
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
        assert abs(ext.theta - root) <= 1e-10  # shape.REFINE_TOL

    @pytest.mark.parametrize("q1,q2", NEAR_ZERO_MAXIMA)
    def test_near_zero_maximum_kept(self, q1, q2):
        report = classify_shape(StateParams(q1, q2))
        assert report.shape_class is ShapeClass.BIMODAL
        ext = {e.kind: e for e in report.extrema}
        assert ENDPOINT_MARGIN < ext["max"].theta < 3e-3

    def test_pair_near_birth_matches_40_digit_roots(self):
        # near bimodality birth the pair sits 1.8e-3 rad apart, in two
        # neighbouring cells of the 1024 grid; S differences on that grid
        # saw both in one cell
        pytest.importorskip("mpmath")
        p = StateParams(0.5268753242492676, 0.0031246757507323863)
        report = classify_shape(p, grid_n=1024)
        assert report.shape_class is ShapeClass.BIMODAL
        for e in report.extrema:
            assert abs(e.theta - mp_reference.slope_root(p.q1, p.q2, e.theta)) <= 1e-10


class TestSlopeSigns:
    def test_states_near_corners_resolve(self):
        # within ~1e-12 of a corner rounding noise flips the sign of the
        # near-zero slope; SLOPE_FLOOR keeps those samples unsigned
        rng = np.random.default_rng(13)
        d = 10.0 ** rng.uniform(-16, -9, 300)
        u = rng.uniform(0.0, 1.0, 300)
        states = list(zip(d * u, d * (1.0 - u))) + list(zip(1.0 - d, d * u)) + list(zip(d * u, 1.0 - d))
        for q1, q2 in states:
            report = classify_shape(StateParams(q1, q2))
            assert len(report.extrema) <= 2

    @pytest.mark.parametrize("total", [0.692, 0.694, 0.6965])
    def test_first_cell_maximum_of_window_probe(self, total):
        # the maximum lies below the first grid angle (3.1e-3 rad) and above
        # ENDPOINT_MARGIN; S differences on the grid missed it
        pytest.importorskip("mpmath")
        traj = TrajectorySpec(total)
        p = traj.state(_window_minimum(traj, 1e-4)[0])  # the jump's window start
        report = classify_shape(p, grid_n=512)
        assert report.shape_class is ShapeClass.BIMODAL
        ext = report.extrema[0]
        assert ext.kind == "max" and ENDPOINT_MARGIN < ext.theta < HALF_PI / 512
        assert abs(ext.theta - mp_reference.slope_root(p.q1, p.q2, ext.theta)) <= 1e-10

    def test_halfpi_root_keeps_requested_grid(self):
        # on the half-pi boundary the extremum sits at pi/2, outside the samples
        p = solve_halfpi_boundary(TrajectorySpec(0.75)).p
        report = classify_shape(p, grid_n=1024)
        assert report.grid_n == 1024
        assert all(e.theta < HALF_PI - ENDPOINT_MARGIN for e in report.extrema)


class TestEndpointSlopeCheck:
    @pytest.mark.parametrize("q1,q2", [(0.3, 0.2), (0.7217, 0.0283), (1.0, 0.0)])
    def test_stationary_endpoints(self, q1, q2):
        # symmetric difference quotients across both ends: the closed form
        # extends smoothly past them (even around 0, reflective around pi/2)
        f = lambda t: post_entropy(StateParams(q1, q2), t)
        h = 1e-5
        assert abs(f(h) - f(-h)) / (2.0 * h) < 1e-6
        assert abs(f(HALF_PI + h) - f(HALF_PI - h)) / (2.0 * h) < 1e-6


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
