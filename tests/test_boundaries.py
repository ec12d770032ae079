import math

import numpy as np
import pytest

import mp_reference
from conftest import triangle_samples
from test_acceptance import REFERENCE_TABLE, TABLE_TOTALS
from test_core import axis_curvature_nats, slope_error_at
import xdeficit.boundaries as boundaries_module
import xdeficit.diagram as diagram_module
import xdeficit.shape as shape_module
from xdeficit import (
    BoundaryKind,
    ConvergenceError,
    ShapeClass,
    StateParams,
    TrajectorySpec,
    bimodality_birth,
    classify_shape,
    curves_intersection,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    interior_minimum,
    jump_angle_table,
    solve_equal_endpoints,
    solve_halfpi_boundary,
    solve_jump_boundary,
    trace_boundaries,
    zero_boundary_axis,
)
from xdeficit.boundaries import (
    _FANS,
    _INVERSION_STEPS,
    _JUMP_TOP_REACH,
    _WINDOW_SCALE,
    CORNER_TOL,
    Q1_TOL,
    _binary_entropy_bits,
    _bracket_root,
    _corrected_jump,
    _deflated_slope,
    _halfpi_curvature,
    _jump_gap,
    _jump_gap_dq1,
    _minimizer_near,
    _tracked_root,
    _window_minimum,
    _window_tol,
    boundary_fan,
    jump_curve,
)
from xdeficit.core import (
    post_entropy_curvature,
    post_entropy_grid,
    post_entropy_slope,
)
from xdeficit.shape import ENDPOINT_MARGIN, REFINE_TOL, ROOT_RESOLUTION, SLOPE_FLOOR, find_roots
from xdeficit.shape import find_root as _bisect

HALF_PI = math.pi / 2

# the bracket width of the classification-flip births that
# TestBimodalityBirth::test_table_totals_stable pins as references
BIRTH_Q1_TOL = 1e-5

# radii r within this of 0 and 1, where the r-form of halfpi_curvature_grid
# is 0/0 or takes log(0); the package's pair form is finite there
SAMPLER_RADIUS_MASK = 1e-9

# the bottom of the per-path jump and birth on the totals 1/2 + eps: the eps
# at which the tolerance _WINDOW_SCALE * eps meets the float resolution
# ROOT_RESOLUTION * q1 of find_root, at q1 ~ 1/2
BOTTOM = 0.5 * ROOT_RESOLUTION / _WINDOW_SCALE


def halfpi_curvature_grid(q1, q2):
    """S''(pi/2) in natural-log units over (q1, q2) arrays broadcast together.

    A closed form of its own, in the radius r = hypot(1 - q1 - q2, q1 - q2),
    and NaN within ``SAMPLER_RADIUS_MASK`` of r = 0 and 1: the array
    sampler of the sign scans below, fast enough for the 41M samples of
    their CI step, which a scalar kernel is not.  ``TestHalfPiSampler`` pins
    it to ``_halfpi_curvature``.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    r = np.hypot(1.0 - (q1 + q2), q1 - q2)
    ok = (r >= SAMPLER_RADIUS_MASK) & (r <= 1.0 - SAMPLER_RADIUS_MASK)
    r = np.where(ok, r, 0.5)  # keeps the masked lanes free of 0/0 and log(0)
    a = 1.0 - (q1 + q2)
    b = 1.0 - 2.0 * (q1 + q2)
    c = q1 - q2
    term1 = c * c / (2.0 * r**3) * (r * r - b * b) * np.log((1.0 + r) / (1.0 - r))
    term2 = a * a / (1.0 - r * r) * (1.0 - 2.0 * b * (1.0 - b / (2.0 * r * r)))
    return np.where(ok, term1 - term2, np.nan)


def _brackets_loop(vals):
    """Sign-change scan as a plain loop, the reference scan of TestArrayScan.

    Indices i where samples i and i + 1 are both non-NaN and differ in sign,
    a zero counting as non-negative.
    """
    out = []
    prev = None
    for i, v in enumerate(vals):
        if math.isnan(v):
            prev = None
            continue
        if prev is not None and (prev < 0.0) != (v < 0.0):
            out.append(i - 1)
        prev = v
    return out


class TestTrajectorySpec:
    def test_diagonal_range(self):
        traj = TrajectorySpec(0.75)
        lo, hi = traj.q1_range()
        assert (lo, hi) == (0.375, 0.75)
        assert traj.state(0.7).q2 == pytest.approx(0.05)

    def test_axis(self):
        traj = TrajectorySpec.on_axis()
        assert traj.state(0.3) == StateParams(0.3, 0.0)

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            TrajectorySpec(0.0)
        with pytest.raises(ValueError):
            TrajectorySpec(1.2)


# samples of the per-sample reference scan
_LOOP_SAMPLES = 2048


def _solve_loop(traj, residual, lo, hi):
    """Boundary scan as a per-sample loop, the reference for the one-bracket solvers.

    Returns (q1, degenerate) of the rightmost root, or None.
    """
    f = lambda q1: residual(traj.state(q1))
    qs = np.linspace(lo, hi, _LOOP_SAMPLES)
    vals = [f(q) for q in qs]
    idx = _brackets_loop(vals)
    if not idx:
        return None
    i = idx[-1]
    p = traj.state(_bisect(f, qs[i], qs[i + 1], vals[i], vals[i + 1], Q1_TOL))
    return p.q1, min(1.0 - p.q1, 1.0 - p.q2) < CORNER_TOL


class TestArrayScan:
    # 0.752 and 0.9102 are paths of trace_boundaries(5000)
    PATHS = [TrajectorySpec.on_axis()] + [TrajectorySpec(t) for t in
                                          [k / 100 for k in range(1, 100)] + [0.752, 0.9102]]

    @staticmethod
    def _assert_matches(bp, ref, traj):
        assert (bp is None) == (ref is None), traj
        if bp is not None:
            assert bp.degenerate == ref[1], traj
            assert abs(bp.p.q1 - ref[0]) <= 1e-12, traj

    def test_equal_endpoints_match_loop(self):
        gap = lambda p: endpoint_entropy_zero(p) - endpoint_entropy_halfpi(p)
        for traj in self.PATHS:
            ref = _solve_loop(traj, gap, *traj.q1_range())
            self._assert_matches(solve_equal_endpoints(traj), ref, traj)

    def test_halfpi_match_loop(self):
        for traj in self.PATHS:
            lo, hi = traj.q1_range()
            ref = _solve_loop(traj, _halfpi_curvature, lo + 1e-9, hi - 1e-9)
            self._assert_matches(solve_halfpi_boundary(traj), ref, traj)


def _sign_changes(vals):
    vals = vals[~np.isnan(vals)]
    return int(np.count_nonzero((vals[:-1] < 0.0) != (vals[1:] < 0.0)))


def residual_sign_changes(traj, samples):
    """Sign changes along ``traj`` of the equal-endpoint gap and of the half-pi curvature.

    Each residual is sampled at ``samples`` points over the range its solver
    brackets, the half-pi one between the 1e-9 nudged ends; NaN samples are
    skipped.  The equal-endpoint gap is S(0) - S(pi/2) from the entropy
    kernel at the two end angles.
    """
    lo, hi = traj.q1_range()

    def path(a, b):
        q1 = np.linspace(a, b, samples)
        return q1, (np.zeros_like(q1) if traj.axis else traj.total - q1)

    s_zero, s_half = post_entropy_grid(*path(lo, hi), np.array([[0.0], [HALF_PI]]))
    curvature = halfpi_curvature_grid(*path(lo + 1e-9, hi - 1e-9))
    return _sign_changes(s_zero - s_half), _sign_changes(curvature)


def intersection_sign_changes(samples):
    """Sign changes of the residual of ``curves_intersection`` over its bracket.

    The residual is the half-pi curvature at the equal-endpoint root of the
    path q1 + q2 = t, sampled at ``samples`` totals t spanning
    ``_INTERSECTION_TOTALS``; every sample must have a root and a value.
    """
    totals = np.linspace(*boundaries_module._INTERSECTION_TOTALS, samples)
    roots = [solve_equal_endpoints(TrajectorySpec(t)).p for t in totals]
    h = halfpi_curvature_grid([p.q1 for p in roots], [p.q2 for p in roots])
    assert not np.isnan(h).any()
    return _sign_changes(h)


def worst_path_residual(totals):
    """Largest residual of the equal-endpoint and half-pi roots on the paths q1 + q2 = t."""
    points = [solver(TrajectorySpec(t)) for t in totals
              for solver in (solve_equal_endpoints, solve_halfpi_boundary)]
    return max(bp.residual for bp in points if bp is not None)


def per_path_fan(kind, totals):
    """The fan of ``kind`` from the per-path solver, as ``trace_boundaries``
    took it before the array fans: the axis root, then the non-degenerate
    root of each diagonal path."""
    solver = _FANS[kind][0]
    roots = [solver(TrajectorySpec.on_axis())] + [solver(TrajectorySpec(t)) for t in totals]
    return [bp for bp in roots if bp is not None and not bp.degenerate]


def fan_deviation(totals):
    """The array fans against the per-path solvers on the paths q1 + q2 = t.

    Returns (the totals on which the two disagree whether a non-degenerate
    root exists, the largest |q1 - per-path q1|, the largest residual of
    the fans' points) over both kinds.  ``boundary_fan`` must start with
    the per-path axis root and hold the array roots of the other totals,
    in their order.
    """
    t = np.array(totals, dtype=float)
    differ, dq, worst = [], 0.0, 0.0
    for kind, (solver, array_roots) in _FANS.items():
        q1, _ = array_roots(t)
        points = boundary_fan(kind, t)
        assert points[0] == solver(TrajectorySpec.on_axis())
        points = iter(points[1:])
        for total, root in zip(t.tolist(), q1.tolist()):
            ref = solver(TrajectorySpec(total))
            kept = not math.isnan(root) and min(1.0 - root, 1.0 - (total - root)) >= CORNER_TOL
            bp = next(points) if kept else None
            if kept != (ref is not None and not ref.degenerate):
                differ.append((kind.value, total))
            elif kept:
                assert (bp.p.q1, bp.kind, bp.degenerate) == (root, kind, False)
                dq, worst = max(dq, abs(root - ref.p.q1)), max(worst, bp.residual)
        assert next(points, None) is None
    return differ, dq, worst


# distances x below pi/2 at which the deflated slope is checked: the
# quotient route, both sides of the band edge 1e-2, the quadrature band
# down to the float nearest pi/2, and pi/2 itself
DEFLATION_OFFSETS = (0.3, 1e-2, 1e-2 * (1 - 1e-15), 3e-3, 1e-5, 1e-8, 1e-12, 0.0)


def deflation_states(n, seed):
    """``n`` seeded states of the triangle, then states on and within 1e-12 of
    its edges, its corners and the midpoint of the hypotenuse, and the curve
    intersection, where the deflated slope vanishes at pi/2."""
    rng = np.random.default_rng(seed)
    states = [StateParams(*q) for q in triangle_samples(n, seed)]
    x = rng.random(3)
    states += [StateParams(x[0], 1e-12), StateParams(1e-12, x[1]),
               StateParams(x[2] * (1 - 1e-12), (1 - x[2]) * (1 - 1e-12))]
    states += [StateParams(q1, q2) for q1, q2 in
               [(0.5, 0.5), (0.5 + 1e-12, 0.5 - 1e-12), (0.5 - 1e-12, 0.5 - 1e-12),
                (0, 0), (1, 0), (1 - 1e-12, 0), (1e-12, 1e-12), (0.3, 0)]]
    return states + [curves_intersection()]


def deflated_slope_error(states):
    """Largest error of ``_deflated_slope`` against a 40-digit S'/cos theta.

    Relative with a floor of 1, over ``states`` and every angle
    pi/2 - x of ``DEFLATION_OFFSETS``.  Returns (error, state, x).
    """
    worst = (0.0, None, None)
    for p in states:
        for x in DEFLATION_OFFSETS:
            ref = mp_reference.deflated_slope(p.q1, p.q2, HALF_PI - x)
            err = abs(_deflated_slope(p, HALF_PI - x) - ref) / max(1.0, abs(ref))
            worst = max(worst, (err, p, x), key=lambda w: w[0])
    return worst


def assert_matches_per_path(rec, ref):
    """A jump record of ``jump_curve`` against the per-path record ``ref`` on its path.

    q1 within the root tolerance tol = ``_window_tol`` of the total, and the
    jump angle within REFINE_TOL + |dtheta*/dq1| tol, theta* the interior
    minimizer.  |dtheta*/dq1| tol is taken as the spread of the minimizers
    at the per-path root -+ tol/2 (``_minimizer_near``, each within
    REFINE_TOL), plus their two REFINE_TOL; where the minimum has merged
    into pi/2 at the upper end, within tol/2 of the root just below t*,
    that end's minimizer is pi/2.
    """
    p, total = ref.boundary.p, ref.boundary.p.q1 + ref.boundary.p.q2
    tol = _window_tol(total)
    traj = TrajectorySpec(total)
    assert rec.boundary.p.q1 + rec.boundary.p.q2 == pytest.approx(total, abs=1e-15)
    assert abs(rec.boundary.p.q1 - p.q1) <= tol, total
    ends = [_minimizer_near(_deflated_slope, traj.state(p.q1 + d), ref.jump_angle)
            for d in (-0.5 * tol, 0.5 * tol)]
    spread = abs(ends[0] - (HALF_PI if math.isnan(ends[1]) else ends[1]))
    assert abs(rec.jump_angle - ref.jump_angle) <= 3 * REFINE_TOL + spread, total


def jump_fan_deviation(resolution):
    """The continued jump fan of ``trace_boundaries`` against the per-path solve,
    on its totals k/resolution: :func:`continued_fan_deviation`."""
    return continued_fan_deviation([k / resolution for k in range(1, resolution)])


def continued_fan_deviation(totals):
    """The fan of ``jump_curve(totals)``, its records between the two anchors,
    against the per-path solve.

    Asserts that the fan holds one record, and no None, on each total t of
    ``totals`` above the bottom of the per-path solve (``_window_tol``) and
    below t* - ``_JUMP_TOP_REACH``, t* the total of the curve intersection,
    in their order, and that the per-path solve returns a record on each of
    them, each fan record matching it (:func:`assert_matches_per_path`).
    Returns the number of per-path fallbacks the fan took and the largest
    differences in q1 and in jump angle.
    """
    p_star = curves_intersection()
    t_star = p_star.q1 + p_star.q2
    kept = [t for t in totals if _window_tol(t) and t < t_star - _JUMP_TOP_REACH]
    reference = [solve_jump_boundary(TrajectorySpec(t)) for t in kept]
    fallbacks = []
    per_path = boundaries_module.solve_jump_boundary
    boundaries_module.solve_jump_boundary = lambda traj: (fallbacks.append(traj), per_path(traj))[1]
    try:
        fan = jump_curve(totals)[1:-1]
    finally:
        boundaries_module.solve_jump_boundary = per_path
    assert None not in fan and None not in reference
    assert [rec.boundary.p.q1 + rec.boundary.p.q2 for rec in fan] == pytest.approx(kept, abs=1e-15)
    pairs = list(zip(fan, reference))
    for rec, ref in pairs:
        assert_matches_per_path(rec, ref)
    return (
        len(fallbacks),
        max(abs(a.boundary.p.q1 - b.boundary.p.q1) for a, b in pairs),
        max(abs(a.jump_angle - b.jump_angle) for a, b in pairs),
    )


def window_minimum_deviation(resolution):
    """The jump's window start against a 1024-interval slope row there.

    On every total k/resolution in (0.5, t*), t* the total of the curve
    intersection, asserts that ``_window_minimum(traj, 1e-4)`` returns None
    exactly where ``interior_minimum`` on the 1024-interval grid finds no
    minimum at the same start, 1e-4 in q1 below the half-pi root or at the
    axis contact, and that both start there.  Returns the number of windows
    and the largest difference in theta_min.  Above t* the two part: on
    0.8028 and 0.803 the row sees a minimum at ~1.15 rad that the walk
    from pi/2 steps over together with its maximum.
    """
    p_star = curves_intersection()
    t_star = p_star.q1 + p_star.q2
    windows, worst = 0, 0.0
    for t in (k / resolution for k in range(1, resolution)):
        if not 0.5 < t < t_star:
            continue
        traj = TrajectorySpec(t)
        hp = solve_halfpi_boundary(traj)
        q = hp.p.q1 - 1e-4 if hp is not None and not hp.degenerate else t
        ext = interior_minimum(traj.state(q), grid_n=1024)
        window = _window_minimum(traj, 1e-4)
        assert (window is None) == (ext is None), t
        if window is not None:
            assert window[0] == q, t
            windows += 1
            worst = max(worst, abs(window[1] - ext.theta))
    return windows, worst


def jump_gap_states(seed):
    """States and angles around the jump roots: seeded ones near (0.5, 0),
    where the gap is ~1e-11 bit at 1e-3 rad, beside the five trajectory
    rows of the reference table, and toward the curve intersection p*."""
    rng = np.random.default_rng(seed)
    states = []
    for eps in 10.0 ** rng.uniform(-8, -3, 8):
        q2 = rng.uniform(0.0, 0.2) * eps
        states.append((0.5 + eps - q2, q2, rng.uniform(0.05, 2.0) * math.sqrt(eps)))
    for total, (q1, theta) in zip(TABLE_TOTALS, REFERENCE_TABLE[1:-1]):
        dq = rng.uniform(-1e-3, 1e-3, 2)
        states += [(q1 + d, total - q1 - d, theta * rng.uniform(0.9, 1.1)) for d in dq]
    p_star = curves_intersection()
    for d in 10.0 ** rng.uniform(-6, -2, 4):
        # the jump root of t* - d lies 0.0822 d below p* in q1, ~4 sqrt(d) below pi/2
        states.append((p_star.q1 - 0.08 * d, p_star.q2 - 0.92 * d,
                       HALF_PI - 4.0 * math.sqrt(d) * rng.uniform(0.5, 1.5)))
    return states


class TestHalfPiSampler:
    def test_matches_the_kernel(self):
        # the sampler is in nats, the kernel in bits; relative with a floor of
        # 1, on seeded states, beside the edges and near the radii 0 and 1.
        # Toward the midpoint (1/2, 1/2) of the hypotenuse, where r -> 0,
        # the sampler's first term cancels and loses ~1e-17 / r, which the
        # kernel does not (checked against mpmath in test_core).  On the
        # sampler's masked radii the kernel must be finite
        rng = np.random.default_rng(18)
        q = triangle_samples(2000, 18)
        d = 10.0 ** rng.uniform(-12, -3, 300)
        x = rng.random(300)
        q = np.vstack([q, np.c_[x * (1 - d), d], np.c_[x * (1 - d), (1 - x) * (1 - d)],
                       np.c_[0.5 + d * (x - 0.5), 0.5 - d * x],
                       [(0.5, 0.5), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
        grid = halfpi_curvature_grid(q[:, 0], q[:, 1])
        assert np.isnan(grid).sum() >= 4
        for (q1, q2), ref in zip(q, grid):
            val = _halfpi_curvature(StateParams(q1, q2)) * math.log(2.0)
            if math.isnan(ref):
                assert math.isfinite(val), (q1, q2)
            else:
                r = math.hypot(1.0 - (q1 + q2), q1 - q2)
                assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)) + 1e-16 / r, (q1, q2)


class TestOneSignChange:
    """The premise of the one-bracket solves: each residual changes sign at most once per path."""

    def test_axis_once(self):
        assert residual_sign_changes(TrajectorySpec.on_axis(), 4097) == (1, 1)

    def test_diagonals_at_most_once(self):
        for k in range(1, 1001):
            traj = TrajectorySpec(k / 1000)
            assert max(residual_sign_changes(traj, 4097)) <= 1, traj


class TestCornerResiduals:
    """Roots polished to Q1_TOL keep small residuals even where they curve strongly near (1, 0)."""

    def test_near_the_corner(self):
        totals = np.random.default_rng(5).uniform(0.99999, 1.0, 300)
        assert worst_path_residual(totals) <= 1e-10

    def test_away_from_the_corner(self):
        totals = np.random.default_rng(5).uniform(1e-6, 0.99999, 300)
        assert worst_path_residual(totals) <= 1e-12


class TestBracketRoots:
    """The lane rule of ``shape.find_roots``, the array solver of the half-pi fan."""

    @staticmethod
    def _lane(f, k):
        return lambda x: float(f(np.array([x]), np.array([k]))[0])

    def test_lanes_without_a_bracket_as_the_scalar_rule(self):
        # a bracket, a NaN end, one sign, a zero end with the other end
        # positive (one sign: a zero counts as non-negative) and negative
        lo = np.array([0.0, math.nan, 0.6, 0.5, 0.0, 0.25])
        hi = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
        f = lambda x, k: x - 0.5
        roots = find_roots(f, lo, hi, Q1_TOL)
        for k in range(len(lo)):
            ref = _bracket_root(self._lane(f, k), lo[k], hi[k])
            assert (ref is None) == math.isnan(roots[k]), k
            if ref is not None:
                assert roots[k] == ref, k

    @pytest.mark.parametrize("name", ["smooth", "steep", "flat", "step"])
    def test_roots_to_the_tolerance(self, name):
        # interpolation fits the smooth ones; the flat root of (x - r)^9 and
        # a step, which no interpolation fits, fall back to bisection
        r = np.array([0.1, 1 / 3, 0.5, 0.77, 0.999999, 0.3])
        g = {"smooth": lambda x, k: np.exp(x) - np.exp(r[k]),
             "steep": lambda x, k: np.tanh(1e6 * (x - r[k])),
             "flat": lambda x, k: (x - r[k]) ** 9,
             "step": lambda x, k: np.where(x < r[k], -1.0, 1.0)}[name]
        calls = []

        def f(x, k):
            calls.append(len(x))
            return g(x, k)

        roots = find_roots(f, np.zeros(6), np.ones(6), Q1_TOL)
        assert np.all(np.abs(roots - r) <= Q1_TOL)
        # the ends, then at most bisection's 30 halvings of [0, 1] to Q1_TOL
        # and the 3 spare steps
        assert len(calls) <= 1 + 33

    def test_empty(self):
        roots = find_roots(lambda x, k: x, np.array([]), np.array([]), Q1_TOL)
        assert roots.size == 0


class TestBoundaryFan:
    def test_matches_the_per_path_solves(self):
        # the same totals keep a non-degenerate root, every root within
        # Q1_TOL of the per-path one, and every residual at most 1e-12, the
        # bound of the corner residuals below total 0.99999
        differ, dq, worst = fan_deviation([k / 1000 for k in range(1, 1000)])
        assert not differ
        assert dq <= Q1_TOL
        assert worst <= 1e-12

    @pytest.mark.parametrize("resolution", [100, 137, 400])
    def test_trace_matches_the_per_path_fans(self, monkeypatch, resolution):
        curves = trace_boundaries(resolution)
        monkeypatch.setattr(diagram_module, "boundary_fan", per_path_fan)
        ref = trace_boundaries(resolution)
        assert [(c.kind, len(c.points), c.gaps) for c in curves] == [
            (c.kind, len(c.points), c.gaps) for c in ref]
        for curve, ref_curve in zip(curves, ref):
            for bp, rp in zip(curve.points, ref_curve.points):
                assert (bp.kind, bp.degenerate) == (rp.kind, rp.degenerate)
                assert abs(bp.p.q1 - rp.p.q1) <= Q1_TOL and abs(bp.p.q2 - rp.p.q2) <= Q1_TOL

    def test_inversion_reaches_the_rounding_floor(self):
        # the equal-endpoint fan's Newton steps on h(p) = h(t) - (1 - t):
        # from Topsoe's bound the start lies at or below the root, and on
        # dense totals, toward 1 and about the lowest total with a root
        # (0.2271) too, the fifth step moves no p by more than 1e-16, so
        # the sixth of _INVERSION_STEPS is the margin
        t = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 100001), 1 - np.logspace(-16, -1, 10001),
                            0.2271 + np.linspace(-1e-3, 1e-3, 10001)])
        with np.errstate(divide="ignore", invalid="ignore"):
            y = _binary_entropy_bits(t) - (1.0 - t)
            z = np.where(y > 0.0, y, math.nan) ** math.log(4.0)
            p = z / (2.0 * (1.0 + np.sqrt(1.0 - z)))
            assert np.all(_binary_entropy_bits(p[y > 0.0]) <= y[y > 0.0])
            steps = []
            for _ in range(_INVERSION_STEPS):
                step = (y - _binary_entropy_bits(p)) / np.log2((1.0 - p) / p)
                p = p + step
                steps.append(np.nanmax(np.abs(step)))
        assert steps[4] <= 1e-16 and steps[5] <= 1e-16

    def test_axis_first_and_totals_checked(self):
        for kind, (solver, _) in _FANS.items():
            assert boundary_fan(kind, []) == [solver(TrajectorySpec.on_axis())]
            for bad in ([0.0], [1.5], [math.nan]):
                with pytest.raises(ValueError):
                    boundary_fan(kind, bad)
        with pytest.raises(KeyError):
            boundary_fan(BoundaryKind.JUMP_BOUNDARY, [0.6])


class TestEqualEndpoints:
    def test_axis_root(self):
        bp = solve_equal_endpoints(TrajectorySpec.on_axis())
        assert bp.p.q1 == pytest.approx(0.61554, abs=1e-4)
        assert bp.p.q1 == pytest.approx(0.6155418, abs=2e-6)
        assert bp.residual < 1e-6

    def test_total_08(self):
        bp = solve_equal_endpoints(TrajectorySpec(0.8))
        assert bp.p.q1 == pytest.approx(0.769269, abs=1e-4)

    def test_no_root_on_low_total(self):
        assert solve_equal_endpoints(TrajectorySpec(0.2)) is None

    def test_mirror_symmetry_of_defining_gap(self):
        bp = solve_equal_endpoints(TrajectorySpec(0.8))
        mirror = bp.p.swapped()
        gap = endpoint_entropy_zero(mirror) - endpoint_entropy_halfpi(mirror)
        assert abs(gap) == pytest.approx(bp.residual, abs=1e-15)


class TestHalfPiBoundary:
    def test_axis_root(self):
        bp = solve_halfpi_boundary(TrajectorySpec.on_axis())
        assert bp.p.q1 == pytest.approx(0.67515, abs=1e-4)

    def test_total_075(self):
        bp = solve_halfpi_boundary(TrajectorySpec(0.75))
        assert bp.p.q1 == pytest.approx(0.72358, abs=1e-4)
        assert bp.residual < 1e-6

    def test_total_at_intersection(self):
        bp = solve_halfpi_boundary(TrajectorySpec(0.769095))
        assert bp.p.q1 == pytest.approx(0.739409, abs=1e-3)

    def test_mirror_symmetry(self):
        bp = solve_halfpi_boundary(TrajectorySpec(0.75))
        m = bp.p.swapped()
        assert abs(_halfpi_curvature(m)) == pytest.approx(bp.residual, abs=1e-15)

    @pytest.mark.parametrize("total", [1e-12, 1.5e-9, 2e-9])
    def test_tiny_total_has_no_root(self, total):
        # the path is shorter than the two 1e-9 nudges off its ends; the
        # fan keeps no point there either
        assert solve_halfpi_boundary(TrajectorySpec(total)) is None
        assert boundary_fan(BoundaryKind.HALFPI_BIFURCATION, [total])[1:] == []


class TestZeroBoundaryAxis:
    def test_four_points_with_tiny_residuals(self):
        points = zero_boundary_axis()
        coords = {(bp.p.q1, bp.p.q2) for bp in points}
        assert coords == {(0.5, 0.0), (0.0, 0.5), (1.0, 0.0), (0.0, 1.0)}
        for bp in points:
            assert bp.kind is BoundaryKind.ZERO_BIFURCATION_AXIS
            assert bp.residual < 1e-10

    def test_off_root_value_nonzero(self):
        assert abs(axis_curvature_nats(0.75)) > 0.1


class TestJumpBoundary:
    @pytest.mark.parametrize(
        "total,ref_q1,ref_angle",
        [
            # angles cross-checked by 40-digit evaluation of the curve
            (0.55, 0.544535, 0.126695),
            (0.65, 0.631766, 0.402041),
            (0.75, 0.721590, 1.039193),
        ],
    )
    def test_landmark_totals(self, total, ref_q1, ref_angle):
        rec = solve_jump_boundary(TrajectorySpec(total))
        assert rec is not None
        assert rec.boundary.p.q1 == pytest.approx(ref_q1, abs=1e-4)
        assert rec.jump_angle == pytest.approx(ref_angle, abs=5e-4)
        assert rec.boundary.residual < 1e-6

    def test_no_window_on_low_total(self):
        assert solve_jump_boundary(TrajectorySpec(0.4)) is None

    def test_axis_rejected(self):
        with pytest.raises(ValueError):
            solve_jump_boundary(TrajectorySpec.on_axis())

    @pytest.mark.parametrize("total", [0.77, 0.8])
    def test_none_above_intersection(self, total):
        assert solve_jump_boundary(TrajectorySpec(total)) is None

    @pytest.mark.parametrize("total", [0.768, 0.769])
    def test_root_above_probe_just_below_intersection(self, total):
        # the jump root lies between the window probe, 1e-4 below the half-pi
        # root, and that root, where the minimizer merges into pi/2
        pytest.importorskip("mpmath")
        traj = TrajectorySpec(total)
        hp_root = solve_halfpi_boundary(traj).p.q1
        rec = solve_jump_boundary(traj)
        assert rec is not None
        assert hp_root - 1e-4 < rec.boundary.p.q1 < hp_root
        q1, theta, curvature = mp_reference.jump_point(
            total, rec.boundary.p.q1, rec.jump_angle
        )
        assert abs(rec.boundary.p.q1 - float(q1)) <= 1e-10
        assert abs(rec.jump_angle - float(theta)) <= 1e-8
        assert curvature > 0

    @pytest.mark.parametrize("k", range(9, 15))
    def test_reaches_the_intersection(self, k):
        # on t* - 10^-k the jump angle lies 3.96 * 10^(-k/2) below pi/2,
        # inside the ENDPOINT_MARGIN of the slope grid from k = 10 on; the
        # minimum there is so flat (S'' ~ 6 * 10^-(k+1)) that the angle is
        # only good to ~2e-8
        pytest.importorskip("mpmath")
        p_star = curves_intersection()
        total = p_star.q1 + p_star.q2 - 10.0 ** -k
        rec = solve_jump_boundary(TrajectorySpec(total))
        assert rec is not None
        q1, theta, curvature = mp_reference.jump_point(
            total, rec.boundary.p.q1, rec.jump_angle
        )
        assert abs(rec.boundary.p.q1 - float(q1)) <= 1e-12
        assert abs(rec.jump_angle - float(theta)) <= 1e-7
        assert curvature > 0

    def test_every_total_near_the_intersection_solves(self):
        # 201 log-spaced distances d below t*: the jump angle closes on pi/2
        # like sqrt(d), with a ratio near 3.96
        p_star = curves_intersection()
        for d in np.logspace(-4, -14, 201):
            rec = solve_jump_boundary(TrajectorySpec(p_star.q1 + p_star.q2 - d))
            assert rec is not None, d
            assert 3.5 <= (HALF_PI - rec.jump_angle) / math.sqrt(d) <= 4.5, d

    @pytest.mark.parametrize("offset", [0.0, 1e-12])
    def test_none_from_the_intersection_up(self, offset):
        # on t* itself and just above, the minimum merges into pi/2 before
        # the gap changes sign
        p_star = curves_intersection()
        assert solve_jump_boundary(TrajectorySpec(p_star.q1 + p_star.q2 + offset)) is None

    @pytest.mark.parametrize("total", [0.52, 0.57, 0.62, 0.68, 0.72, 0.76])
    def test_fan_matches_40_digit_solve(self, total):
        # off-table totals of the trace_boundaries fan, below the intersection
        pytest.importorskip("mpmath")
        rec = solve_jump_boundary(TrajectorySpec(total))
        q1, theta, curvature = mp_reference.jump_point(
            total, rec.boundary.p.q1, rec.jump_angle
        )
        assert abs(rec.boundary.p.q1 - float(q1)) <= 1e-10
        assert abs(rec.jump_angle - float(theta)) <= 1e-8
        assert curvature > 0

    @pytest.mark.parametrize("total", [0.5002, 3001 / 6000])
    def test_near_half_total_matches_40_digit_solve(self, total):
        # the minimum at ~3e-3 rad lies 1.1e-11 bit below the maximum before
        # it, and dtheta*/dq1 ~ 3000 here: the gap must not cancel (read
        # 6.5e-12 and 9.7e-11 rad against 9.7e-9 and 6.1e-9 with the
        # difference of the two entropies)
        pytest.importorskip("mpmath")
        rec = solve_jump_boundary(TrajectorySpec(total))
        assert rec is not None
        q1, theta, curvature = mp_reference.jump_point(
            total, rec.boundary.p.q1, rec.jump_angle
        )
        assert abs(rec.boundary.p.q1 - float(q1)) <= 1e-10
        assert abs(rec.jump_angle - float(theta)) <= 1e-8
        assert curvature > 0

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 2e-5, 1e-4],
                             ids=lambda eps: repr(0.5 + eps))
    def test_beside_the_reach_matches_80_digit_solve(self, eps):
        # down to 1/2 + 1e-9 above the bottom, where the 40-digit solve is not
        # good to 1e-10 in q1: the root within its tolerance
        # min(Q1_TOL, _WINDOW_SCALE eps), and 1e-10 (measured 1.1e-16,
        # 1.1e-16, 1.2e-14, 3.7e-14 and 2.1e-13).  At the reported state the
        # angle errs from the minimizer by REFINE_TOL plus the shift of the
        # root that the slope's derived rounding bound (test_core) allows
        # over S'' there; it errs besides by the error in q1 times
        # dtheta*/dq1 (2.8e6, 2.3e5, 1.8e4, 1.2e4 and 4.7e3), a central
        # difference of 40-digit minimizers _WINDOW_SCALE eps apart in q1,
        # well inside the window of the minimum
        pytest.importorskip("mpmath")
        total = 0.5 + eps
        rec = solve_jump_boundary(TrajectorySpec(total))
        p, angle = rec.boundary.p, rec.jump_angle
        q1, theta, curvature = mp_reference.jump_point(total, p.q1, angle, dps=80)
        q1, theta = float(q1), float(theta)
        assert abs(p.q1 - q1) <= min(1e-10, _WINDOW_SCALE * eps)
        h = 0.5 * _WINDOW_SCALE * eps
        dtheta_dq1 = (mp_reference.slope_root(q1 + h, total - q1 - h, theta)
                      - mp_reference.slope_root(q1 - h, total - q1 + h, theta)) / (2 * h)
        _, a_part, rounding = slope_error_at(p, angle)
        at_state = REFINE_TOL + (rounding + a_part) / post_entropy_curvature(p, angle)
        assert abs(angle - theta) <= abs(dtheta_dq1) * abs(p.q1 - q1) + at_state
        assert curvature > 0

    @pytest.mark.parametrize("total", [0.5002, 3001 / 6000, 0.5005, 0.5 + 2e-5, 0.5 + 1e-4])
    def test_near_half_total_angle_is_the_minimizer_at_the_root(self, total):
        # at the reported state itself, so that the error in q1, which
        # dtheta*/dq1 ~ 3000 amplifies here, drops out: the angle is refined
        # to REFINE_TOL, and the slope's rounding, below its noise floor
        # SLOPE_FLOOR, moves the root by at most that floor over S''
        pytest.importorskip("mpmath")
        rec = solve_jump_boundary(TrajectorySpec(total))
        p = rec.boundary.p
        ref = mp_reference.slope_root(p.q1, p.q2, rec.jump_angle)
        bound = REFINE_TOL + SLOPE_FLOOR / post_entropy_curvature(p, rec.jump_angle)
        assert abs(rec.jump_angle - ref) <= bound

    def test_step_cap_raises(self, monkeypatch):
        # the solve on 0.7 needs 6 Newton steps
        monkeypatch.setattr(boundaries_module, "_NEWTON_STEPS", 2)
        with pytest.raises(ConvergenceError):
            solve_jump_boundary(TrajectorySpec(0.7))

    def test_start_off_the_path_raises(self):
        # q1 = 0.3 lies below the path's lower end, total/2 = 0.375
        with pytest.raises(ConvergenceError, match="q1 = 0.3"):
            _tracked_root(TrajectorySpec(0.75), _deflated_slope, _jump_gap, 1.0, 0.3, "jump gap")

    def test_continued_fan_matches_per_path(self):
        # every jump total of trace_boundaries(1000): the same None pattern,
        # no per-path fallback, q1 within the root tolerance and the angle
        # within the 1e-7 rad of C04/C05 against the 40-digit reference
        fallbacks, dq1, dangle = jump_fan_deviation(1000)
        assert fallbacks == 0
        assert dq1 <= Q1_TOL
        assert dangle <= 1e-7

    def test_window_minimum_matches_the_slope_row(self):
        # every jump total of trace_boundaries(1000); measured 4.1e-13 rad
        windows, worst = window_minimum_deviation(1000)
        assert windows == 269
        assert worst <= 1e-9

    def test_gap_matches_60_digit_difference(self):
        # To first order the float gap errs by the rounding of its summands,
        # d ln L0 and L log1p(d / L0) (L ln L where L0 = 0), and by the error
        # of each increment d = L - L0, which they carry with the weight
        # |ln L + 1|.  No path from the inputs to a summand passes more than
        # 32 rounded operations, each within u = 2^-53 of its result, so
        # 32 u M bounds the error, M being the sum of those magnitudes.  A
        # difference of the two ~1.5-bit entropies errs by ~u instead, which
        # near (0.5, 0) is 1e3-1e9 times this bound
        mp = pytest.importorskip("mpmath")
        for q1, q2, theta in jump_gap_states(41):
            with mp.workdps(60):
                x1, x2, x = mp.mpf(q1), mp.mpf(q2), mp.mpf(theta)
                ref = mp_reference.entropy(x1, x2, 0) - mp_reference.entropy(x1, x2, x)
                scale = 0
                for lam0, lam in zip(mp_reference.spectrum(x1, x2, 0),
                                     mp_reference.spectrum(x1, x2, x)):
                    l0, l, d = 4 * lam0, 4 * lam, 4 * (lam - lam0)
                    if l0 > 0:
                        scale += abs(d * mp.log(l0)) + abs(l * mp.log1p(d / l0))
                    if l > 0:
                        scale += (0 if l0 > 0 else abs(l * mp.log(l))) + abs(mp.log(l) + 1) * abs(d)
                bound = 32 * 2.0**-53 * scale / (4 * mp.log(2))
                assert abs(_jump_gap(StateParams(q1, q2), theta) - ref) <= bound, (q1, q2, theta)

    def test_gap_q1_slope_matches_60_digit_derivative(self):
        # dG/dq1 along the diagonal against a 60-digit derivative of S(0) -
        # S(theta) in q1 at fixed total, one-sided into the triangle on the
        # axis contact q2 = 0.  The closed form is
        # c sin^2 / (2 ln 2) sum of T = log1p(2 rad / l) / rad over the
        # pairs.  To first order it errs by the rounding of T and of the
        # prefactor, and by the errors of rad and l that T carries with the
        # weights |dT/drad| and |dT/dl|.  rad = hypot(u, c sin) errs by the
        # rounding of u = t + b w, whose terms may cancel, so at most in
        # proportion to t + |b| w + rad, and l, a sum of non-negative terms
        # over another, in proportion to itself.  No path from the inputs to
        # one of these passes more than 32 rounded operations, each within
        # u = 2^-53, so 32 u M bounds the error, M being the sum of those
        # magnitudes and weights
        mp = pytest.importorskip("mpmath")
        states = jump_gap_states(43)
        # the axis contact on the table totals, and beside (0.5, 0)
        states += [(total, 0.0, theta) for total, (_, theta) in zip(TABLE_TOTALS, REFERENCE_TABLE[1:-1])]
        for eps in (1e-9, 1e-6, 1e-3):
            theta = 0.1 * math.sqrt(eps)
            states += [(0.5 + eps, 0.0, theta), (0.5 + eps - 0.03 * eps, 0.03 * eps, theta)]
        for q1, q2, theta in states:
            with mp.workdps(60):
                x1, x2, x = mp.mpf(q1), mp.mpf(q2), mp.mpf(theta)
                total = x1 + x2
                gap = lambda y: (mp_reference.entropy(y, total - y, 0)
                                 - mp_reference.entropy(y, total - y, x))
                ref = mp.diff(gap, x1, direction=-1 if q2 == 0.0 else 0)
                c, a, b = x1 - x2, 1 - total, 1 - 2 * total
                st, scale = mp.sin(x), 0
                for w in (1 + mp.cos(x), 1 - mp.cos(x)):
                    u = total + b * w
                    rad = mp.sqrt(u * u + (c * st) ** 2)
                    small = (2 * a * total * w * w + 4 * x1 * x2 * st * st) / (total + a * w + rad)
                    y = 2 * rad / small
                    term = mp.log1p(y) / rad
                    d_rad = (y / (1 + y) - mp.log1p(y)) / rad**2
                    d_small = y / (rad * small * (1 + y))
                    scale += term + abs(d_rad) * (total + abs(b) * w + rad) + d_small * small
                bound = 32 * 2.0**-53 * abs(c) * st**2 / (2 * mp.log(2)) * scale
                assert abs(_jump_gap_dq1(StateParams(q1, q2), theta) - ref) <= bound, (q1, q2, theta)

    def test_jump_ties_endpoint_and_interior(self):
        rec = solve_jump_boundary(TrajectorySpec(0.75))
        p = rec.boundary.p
        ext = interior_minimum(p, grid_n=2048)
        assert endpoint_entropy_zero(p) == pytest.approx(ext.value, abs=1e-8)


class TestMinimizerNear:
    def test_matches_classification(self):
        p = StateParams(0.7215, 0.75 - 0.7215)
        ext = interior_minimum(p, grid_n=2048)
        # warm starts off by far more than the initial bracket
        for theta0 in (ext.theta - 0.3, ext.theta, ext.theta + 0.3):
            assert _minimizer_near(_deflated_slope, p, theta0) == pytest.approx(ext.theta, abs=1e-9)

    def test_nan_without_interior_minimum(self):
        p = StateParams(0.6, 0.1)
        assert interior_minimum(p, grid_n=2048) is None
        assert math.isnan(_minimizer_near(_deflated_slope, p, 0.8))

    def test_minimum_beside_half_pi(self):
        # the jump root on total t* - 1e-12 (40-digit solve, rounded): its
        # minimum lies 4.0e-6 below pi/2, beyond the slope grid's
        # ENDPOINT_MARGIN; it is so flat there (S'' ~ 6e-13) that the
        # rounding of D alone moves the root by ~1e-9
        pytest.importorskip("mpmath")
        p = StateParams(0.739409091903172, 0.029686451640762113)
        ref = mp_reference.slope_root(p.q1, p.q2, HALF_PI - 4e-6)
        assert 3.9e-6 < HALF_PI - ref < ENDPOINT_MARGIN
        for theta0 in (ref - 0.3, ref - 1e-3, HALF_PI):
            assert abs(_minimizer_near(_deflated_slope, p, theta0) - ref) <= 1e-8

    def test_nan_where_the_first_bracket_holds_a_maximum(self):
        # a bimodal state started at its maximum: walked on, the bracket
        # would move downhill onto the minimum beyond it
        p = StateParams(0.7215, 0.0285)
        report = classify_shape(p, grid_n=2048)
        assert report.shape_class is ShapeClass.BIMODAL
        maximum = next(e.theta for e in report.extrema if e.kind == "max")
        assert math.isnan(_minimizer_near(_deflated_slope, p, maximum))

    def test_nan_where_the_minimum_merged_into_half_pi(self):
        # 1e-6 in q1 above the half-pi root of total 0.8, S''(pi/2) > 0: the
        # curve falls all the way into pi/2, and the walk ends there
        p = solve_halfpi_boundary(TrajectorySpec(0.8)).p
        p = StateParams(p.q1 + 1e-6, 0.8 - (p.q1 + 1e-6))
        assert _deflated_slope(p, HALF_PI) < 0.0
        assert math.isnan(_minimizer_near(_deflated_slope, p, 1.5))


class TestDeflatedSlope:
    def test_matches_40_digit_quotient(self):
        # 120 evaluations: three seeded states and the edge, corner, midpoint
        # and intersection states, at each offset below pi/2
        pytest.importorskip("mpmath")
        err, p, x = deflated_slope_error(deflation_states(3, 22))
        assert err <= 1e-12, (p, x)

    def test_end_value_is_the_half_pi_curvature(self):
        for p in deflation_states(40, 23):
            assert _deflated_slope(p, HALF_PI) == -post_entropy_curvature(p, HALF_PI)


class TestBimodalityBirth:
    # grid-512 classification-flip births, which trail the fold by up to 8.1e-6
    @pytest.mark.parametrize(
        "total,ref_q1",
        [
            (0.55, 0.5443710551),
            (0.60, 0.5876635742),
            (0.65, 0.6309770255),
            (0.70, 0.6749171221),
            (0.75, 0.7200807868),
        ],
    )
    def test_table_totals_stable(self, total, ref_q1):
        bp = bimodality_birth(TrajectorySpec(total))
        assert abs(bp.p.q1 - ref_q1) <= BIRTH_Q1_TOL

    def test_total_075(self):
        bp = bimodality_birth(TrajectorySpec(0.75))
        assert bp is not None
        assert bp.p.q1 == pytest.approx(0.72008, abs=2e-4)
        # |dS/dtheta| at the inflection
        assert bp.residual <= 1e-12

    def test_total_065(self):
        bp = bimodality_birth(TrajectorySpec(0.65))
        assert bp.p.q1 == pytest.approx(0.631, abs=1e-3)

    def test_no_transition_on_low_total(self):
        assert bimodality_birth(TrajectorySpec(0.4)) is None

    @pytest.mark.parametrize(
        "total,theta0",
        [
            # near total 1/2 the pair is born within 1e-3 rad of theta = 0
            (0.500005, 0.0002426),
            (0.50001, 0.0003612),
            (0.50005, 0.0009221),
            (0.5003, 0.002692),
            (0.51, 0.02590),
            (0.55, 0.08947),
            (0.60, 0.1733),
            (0.65, 0.2783),
            # the window probe's maximum lies in the first grid cell
            (0.694, 0.4018),
            (0.70, 0.4220),
            (0.75, 0.6407),
            (0.78, 0.8510),
            (0.803, 1.124),
        ],
    )
    def test_matches_40_digit_fold(self, total, theta0):
        # theta0: the fold angle to four digits, a seed independent of the package
        pytest.importorskip("mpmath")
        bp = bimodality_birth(TrajectorySpec(total))
        q1, theta = mp_reference.birth_point(total, bp.p.q1, theta0)
        assert abs(float(theta) - theta0) <= 1e-3
        assert abs(bp.p.q1 - float(q1)) <= 1e-10

    @pytest.mark.parametrize("eps,theta0", [(1e-9, 2.144e-6), (1e-7, 2.683e-5), (1e-5, 3.612e-4)])
    def test_down_to_the_bottom_matches_80_digit_fold(self, eps, theta0):
        # the birth within its tolerance min(Q1_TOL, _WINDOW_SCALE eps) of an
        # 80-digit fold solve (measured 0, 1.1e-16 and 1.6e-15); theta0 as
        # in test_matches_40_digit_fold, to four digits
        pytest.importorskip("mpmath")
        total = 0.5 + eps
        bp = bimodality_birth(TrajectorySpec(total))
        q1, theta = mp_reference.birth_point(total, bp.p.q1, theta0, dps=80)
        assert abs(float(theta) - theta0) <= 1e-3 * theta0
        assert abs(bp.p.q1 - float(q1)) <= min(Q1_TOL, _WINDOW_SCALE * eps)

    def test_seed_bracket_below_the_margin_is_half_the_minimum(self, monkeypatch):
        # on 0.5 + 1e-9 the minimum theta_min = 1.6e-5 lies below
        # ENDPOINT_MARGIN, so the maximum's bracket [ENDPOINT_MARGIN,
        # theta_min - 1e-6] has crossing ends and brackets nothing: the
        # inflection walk starts from theta_min / 2, not from a root between
        # the crossed ends (which is theta_min itself)
        traj = TrajectorySpec(0.5 + 1e-9)
        _, theta_min = _window_minimum(traj, Q1_TOL)
        assert theta_min - 1e-6 < ENDPOINT_MARGIN
        seeds = []
        tracked = boundaries_module._tracked_root
        monkeypatch.setattr(boundaries_module, "_tracked_root",
                            lambda traj, deriv, value, theta0, q, what:
                            (seeds.append(theta0), tracked(traj, deriv, value, theta0, q, what))[1])
        assert bimodality_birth(traj) is not None
        assert seeds == [0.5 * theta_min]

    def test_bracket_with_crossing_ends_is_none(self):
        # as find_roots takes a lane whose ends cross
        f = lambda x: x - 0.5
        assert _bracket_root(f, 0.0, 1.0) == pytest.approx(0.5, abs=Q1_TOL)
        assert _bracket_root(f, 1.0, 0.0) is None
        assert _bracket_root(f, 0.5, 0.5) is None

    def test_every_total_of_its_run_at_resolution_1000(self):
        # one run of 315 births from 0.501; the seed bracket keeps its low
        # end at ENDPOINT_MARGIN, as on 0.681 a bracket from 1e-12 finds a
        # maximum at 2.3e-12 rad and the inflection is lost at the start
        births = {k: bimodality_birth(TrajectorySpec(k / 1000)) for k in range(501, 1000)}
        ks = [k for k, bp in births.items() if bp is not None]
        assert ks == list(range(501, 816)) and 681 in ks

    @pytest.mark.parametrize("total", [0.5001, 0.50005])
    def test_near_half_total(self, total):
        # on 0.5001 the window is 5e-6 wide in q1 and the pair is born
        # 1.4e-3 rad from theta = 0; on 0.50005 the inflection lies within
        # 1e-3 rad of the maximum of dS/dtheta
        bp = bimodality_birth(TrajectorySpec(total))
        assert bp is not None
        assert bp.residual <= 1e-12

    @pytest.mark.parametrize(
        "total,theta0",
        [(0.8032, 1.128), (0.804, 1.142), (0.81, 1.270), (0.8152, 1.492), (0.8154, 1.517)],
    )
    def test_narrow_window_matches_40_digit_fold(self, total, theta0):
        # windows narrower than 1e-4 in q1 (8.6e-5 wide on 0.804, 8.5e-8 on
        # 0.8152), which a start 1e-4 below the half-pi root would miss;
        # theta0 as in test_matches_40_digit_fold
        pytest.importorskip("mpmath")
        bp = bimodality_birth(TrajectorySpec(total))
        q1, theta = mp_reference.birth_point(total, bp.p.q1, theta0)
        assert abs(float(theta) - theta0) <= 1e-3
        assert abs(bp.p.q1 - float(q1)) <= 1e-12

    @pytest.mark.parametrize("total", [0.804, 0.81])
    def test_birth_below_a_bimodal_state_beside_the_half_pi_root(self, total):
        traj = TrajectorySpec(total)
        q = solve_halfpi_boundary(traj).p.q1 - 1e-6
        assert bimodality_birth(traj).p.q1 < q
        assert classify_shape(traj.state(q), grid_n=8192).shape_class is ShapeClass.BIMODAL

    def test_inflection_lost_at_the_start_raises(self, monkeypatch):
        # the walk over S'' finds no inflection; the walk to the minimum is untouched
        original = boundaries_module._minimizer_near

        def walk(deriv, p, theta0):
            if deriv is post_entropy_curvature:
                return math.nan
            return original(deriv, p, theta0)

        monkeypatch.setattr(boundaries_module, "_minimizer_near", walk)
        with pytest.raises(ConvergenceError, match="at the start"):
            bimodality_birth(TrajectorySpec(0.75))

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(boundaries_module, "_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match="kept its sign"):
            bimodality_birth(TrajectorySpec(0.75))

    def test_classification_flips_across(self):
        bp = bimodality_birth(TrajectorySpec(0.75))
        q = bp.p.q1
        below = classify_shape(StateParams(q - 3e-5, 0.75 - (q - 3e-5)))
        above = classify_shape(StateParams(q + 3e-5, 0.75 - (q + 3e-5)))
        assert below.shape_class is not ShapeClass.BIMODAL
        assert above.shape_class is ShapeClass.BIMODAL


class TestOrderingOnTrajectory:
    @pytest.mark.parametrize("total", [0.7, 0.75])
    def test_birth_jump_death_ordering(self, total):
        traj = TrajectorySpec(total)
        birth = bimodality_birth(traj).p.q1
        jump = solve_jump_boundary(traj).boundary.p.q1
        death = solve_halfpi_boundary(traj).p.q1
        assert birth < jump < death

    @pytest.mark.parametrize("total", [0.5 + 1e-9, 0.5 + 1e-7, 0.5 + 1e-5, 0.5003, 0.501, 0.51])
    def test_birth_before_jump_near_half(self, total):
        # by ten times the tolerance scale at least, the premise of that
        # scale (measured 16.4 times at 1/2 + 1e-9)
        traj = TrajectorySpec(total)
        birth = bimodality_birth(traj).p.q1
        jump = solve_jump_boundary(traj).boundary.p.q1
        assert birth < jump - 10.0 * _WINDOW_SCALE * (total - 0.5)


class TestCurvesIntersection:
    def test_landmark(self):
        p = curves_intersection()
        assert p.q1 == pytest.approx(0.739409, abs=2e-4)
        assert p.q2 == pytest.approx(0.029686, abs=2e-4)
        assert p.q1 + p.q2 == pytest.approx(0.769095, abs=3e-4)

    def test_mirrored_intersection_satisfies_both_equations(self):
        p = curves_intersection().swapped()
        assert abs(endpoint_entropy_zero(p) - endpoint_entropy_halfpi(p)) < 1e-5
        assert abs(_halfpi_curvature(p)) < 1e-4

    def test_no_seed_raises(self, monkeypatch):
        # no equal-endpoint root on total 0.3
        monkeypatch.setattr(boundaries_module, "_INTERSECTION_TOTALS", (0.3, 0.4))
        with pytest.raises(ConvergenceError):
            curves_intersection()

    @pytest.mark.parametrize("t_lo,t_hi", [(0.70, 0.76), (0.78, 0.80)])
    def test_root_off_the_totals_raises(self, monkeypatch, t_lo, t_hi):
        # the intersection lies at total ~0.7691, outside the bracket
        monkeypatch.setattr(boundaries_module, "_INTERSECTION_TOTALS", (t_lo, t_hi))
        with pytest.raises(ConvergenceError):
            curves_intersection()

    def test_one_sign_change_over_the_totals(self):
        # the premise of the bracketed solve, at 401 totals
        assert intersection_sign_changes(401) == 1

    def test_matches_40_digit_solve(self):
        pytest.importorskip("mpmath")
        p = curves_intersection()
        q1, q2 = mp_reference.curves_intersection(0.739409, 0.769095)
        assert abs(p.q1 - q1) <= 1e-12
        assert abs(p.q2 - q2) <= 1e-12


class TestJumpAngleTable:
    def test_seven_rows_against_reference(self):
        table = jump_angle_table()
        assert len(table) == 7
        ref_q1 = [0.5, 0.544535, 0.588104, 0.631766, 0.676082, 0.721590, 0.739409]
        for rec, q1 in zip(table, ref_q1):
            assert rec.boundary.p.q1 == pytest.approx(q1, abs=1e-4)
        assert table[0].jump_angle == 0.0
        assert table[-1].jump_angle == pytest.approx(HALF_PI, abs=1e-12)

    def test_angles_increase_with_total(self):
        table = jump_angle_table()
        angles = [rec.jump_angle for rec in table]
        assert angles == sorted(angles)

    def test_boundary_points_satisfy_their_equations(self):
        for rec in jump_angle_table():
            assert rec.boundary.residual < 1e-6

    def test_rows_match_40_digit_solve(self):
        # the solve of test_reference_table_matches_40_digit_solve, seeded the same way
        pytest.importorskip("mpmath")
        rows = jump_angle_table()[1:-1]
        for total, (ref_q1, ref_angle), rec in zip(TABLE_TOTALS, REFERENCE_TABLE[1:-1], rows):
            q1, theta, _ = mp_reference.jump_point(total, ref_q1, ref_angle)
            assert abs(rec.boundary.p.q1 - float(q1)) <= 1e-9, total
            assert abs(rec.jump_angle - float(theta)) <= 1e-9, total

    def test_rows_within_an_ulp_of_40_digit_solve(self):
        # each corrector ends on one Newton step in q1 alone, so the rows keep
        # the digits of the per-path solve's polished roots (measured: all
        # five the float nearest the 40-digit root; 2.3 ulps off on 0.75
        # without that step, which moves table1's printed deviation there)
        pytest.importorskip("mpmath")
        for total, rec in zip(TABLE_TOTALS, jump_angle_table()[1:-1]):
            q1, _, _ = mp_reference.jump_point(total, rec.boundary.p.q1, rec.jump_angle)
            assert abs(rec.boundary.p.q1 - float(q1)) <= math.ulp(float(q1)), total

    def test_rows_match_the_per_path_solve(self, monkeypatch):
        # the five rows are one continued fan over the table totals, which
        # runs the per-path solve on none of them
        assert boundaries_module._TABLE_TOTALS == TABLE_TOTALS
        reference = [solve_jump_boundary(TrajectorySpec(t)) for t in TABLE_TOTALS]
        fallbacks = []
        per_path = boundaries_module.solve_jump_boundary
        monkeypatch.setattr(
            boundaries_module,
            "solve_jump_boundary",
            lambda traj: (fallbacks.append(traj), per_path(traj))[1],
        )
        rows = jump_angle_table()[1:-1]
        assert fallbacks == []
        for total, rec, ref in zip(TABLE_TOTALS, rows, reference):
            assert abs(rec.boundary.p.q1 - ref.boundary.p.q1) <= 1e-12, total
            assert abs(rec.jump_angle - ref.jump_angle) <= 1e-9, total


class TestCorrectedJump:
    """The Newton corrector in (q1, theta) of ``jump_curve`` on one path."""

    @pytest.mark.parametrize("total", TABLE_TOTALS)
    def test_from_the_per_path_root_matches_it(self, total):
        ref = solve_jump_boundary(TrajectorySpec(total))
        rec = _corrected_jump(TrajectorySpec(total), ref.boundary.p.q1, ref.jump_angle)
        assert_matches_per_path(rec, ref)
        assert rec.boundary.kind is BoundaryKind.JUMP_BOUNDARY
        assert rec.boundary.residual == abs(_jump_gap(rec.boundary.p, rec.jump_angle))

    @pytest.mark.parametrize("total", [0.6, 0.7, 0.75])
    def test_from_the_interior_maximum_is_none(self, total):
        # at the jump root, the slope's other root below the minimum, where
        # S'' < 0: no certified record, so the per-path solve stands in
        traj = TrajectorySpec(total)
        ref = solve_jump_boundary(traj)
        p, theta_min = ref.boundary.p, ref.jump_angle
        theta_max = _bisect(lambda x: post_entropy_slope(p, x), 1e-3, 0.5 * theta_min,
                            post_entropy_slope(p, 1e-3), post_entropy_slope(p, 0.5 * theta_min),
                            REFINE_TOL)
        assert post_entropy_curvature(p, theta_max) < 0
        assert _corrected_jump(traj, p.q1, theta_max) is None

    def test_start_off_the_path_is_none(self):
        # q1 = 0.3 lies below the path's lower end, total/2 = 0.375
        assert _corrected_jump(TrajectorySpec(0.75), 0.3, 1.0) is None

    def test_stalled_steps_are_not_certified(self, monkeypatch):
        # with dG/dq1 a million times too large the steps in q1 shrink below
        # the tolerance 1e-7 short of the root, at its minimizer: the gap
        # keeps its sign within tol/2 of where they stop, so no record
        traj = TrajectorySpec(0.7)
        q = solve_jump_boundary(traj).boundary.p.q1 + 1e-7
        theta = _minimizer_near(_deflated_slope, traj.state(q), 0.6)
        slope = boundaries_module._jump_gap_dq1
        monkeypatch.setattr(boundaries_module, "_jump_gap_dq1", lambda p, t: 1e6 * slope(p, t))
        assert _corrected_jump(traj, q, theta) is None

    def test_angles_beside_half_pi(self):
        # on t* - d, d log-spaced in [1e-10, 1e-8], the jump angle lies within
        # 2e-4 rad of pi/2, where S' is a difference of rounded terms that
        # vanish; read as cos(theta) D, the angles stay within 1e-8 rad of the
        # per-path solve (measured 2.4e-10; S' itself gives 7.3e-7)
        p_star = curves_intersection()
        t_star = p_star.q1 + p_star.q2
        fallbacks, _, dangle = continued_fan_deviation((t_star - np.logspace(-8, -10, 21)).tolist())
        assert fallbacks == 0
        assert dangle <= 1e-8

    def test_step_cap_is_none(self, monkeypatch):
        # from the window start, the corrector on 0.6 needs 8 steps
        traj = TrajectorySpec(0.6)
        start = _window_minimum(traj, boundaries_module._JUMP_OFFSET)
        assert_matches_per_path(_corrected_jump(traj, *start), solve_jump_boundary(traj))
        monkeypatch.setattr(boundaries_module, "_NEWTON_STEPS", 7)
        assert _corrected_jump(traj, *start) is None


class TestJumpCurve:
    def test_anchors_and_the_fan_between(self):
        # 0.3 and 0.5 lie at or below the axis end, 0.77 above t* ~ 0.769096
        axis, mid, star = jump_curve([0.3, 0.5, 0.6, 0.77, 0.9])
        p_star = curves_intersection()
        assert p_star.q1 + p_star.q2 < 0.77
        assert axis.boundary.p == StateParams(0.5, 0.0) and axis.jump_angle == 0.0
        assert axis.boundary.residual == abs(post_entropy_curvature(StateParams(0.5, 0.0), 0.0))
        # the first kept total, corrected from its window start
        assert_matches_per_path(mid, solve_jump_boundary(TrajectorySpec(0.6)))
        assert star.boundary.p == p_star and star.jump_angle == HALF_PI
        gap = endpoint_entropy_zero(p_star) - endpoint_entropy_halfpi(p_star)
        assert star.boundary.residual == abs(gap)
        for rec in (axis, mid, star):
            assert rec.boundary.kind is BoundaryKind.JUMP_BOUNDARY

    def test_no_none_toward_either_end(self):
        # 0.5 + k * 1e-6 for k <= 2000, all above the bottom, the 201 totals
        # t* - d with d log-spaced in [1e-14, 1e-4], and 0.5 + eps with eps
        # log-spaced in [1e-13, 1e-9], whose totals at or below the bottom
        # are left to the axis anchor
        p_star = curves_intersection()
        t_star = p_star.q1 + p_star.q2
        for totals in ([0.5 + k * 1e-6 for k in range(1, 2001)],
                       (t_star - np.logspace(-4, -14, 201)).tolist(),
                       (0.5 + np.logspace(-13, -9, 41)).tolist()):
            kept = [t for t in totals if _window_tol(t) and t < t_star - _JUMP_TOP_REACH]
            curve = jump_curve(totals)
            assert None not in curve and len(curve) == len(kept) + 2
            first = curve[1].boundary.p
            assert first.q1 + first.q2 == pytest.approx(kept[0], abs=1e-15)
            assert kept[0] - 0.5 > BOTTOM

    def test_repeated_totals(self):
        # a repeated total has no secant through the last two records; each
        # record still matches the per-path solve
        curve = jump_curve([0.6, 0.6, 0.7, 0.7])
        assert len(curve) == 6
        for rec in curve[1:-1]:
            p = rec.boundary.p
            assert_matches_per_path(rec, solve_jump_boundary(TrajectorySpec(p.q1 + p.q2)))

    def test_table_and_trace_share_the_anchors(self):
        table = jump_angle_table()
        traced = [c for c in trace_boundaries(100) if c.kind is BoundaryKind.JUMP_BOUNDARY][0]
        assert table[0].boundary == traced.points[0]
        assert table[-1].boundary == traced.points[-1]


# 300 log-spaced eps of the reach scans of the per-path solves on 1/2 + eps
REACH_SCAN = np.logspace(-13, -3, 300).tolist()


def bottom_scan(solver, eps_values):
    """``solver``, the per-path jump or birth, on the totals 1/2 + eps.

    Asserts that it returns a record on every total above the bottom, where
    _WINDOW_SCALE eps exceeds find_root's float resolution ROOT_RESOLUTION
    q1 at q1 = total, and raises ConvergenceError naming the bottom, never
    ValueError, on every total at or below it.  Returns the records of the
    totals above the bottom, in order, and the number at or below it.
    """
    records, below = [], 0
    for eps in eps_values:
        traj = TrajectorySpec(0.5 + eps)
        if _WINDOW_SCALE * (traj.total - 0.5) > ROOT_RESOLUTION * traj.total:
            records.append(solver(traj))
            assert records[-1] is not None, eps
        else:
            with pytest.raises(ConvergenceError, match=f"bottom {BOTTOM:.2g} of 1/2"):
                solver(traj)
            below += 1
    return records, below


class TestReach:
    """The per-path jump and birth solve down to their bottom near 1/2 and raise at and below it."""

    @pytest.mark.parametrize("solver", [solve_jump_boundary, bimodality_birth],
                             ids=["jump", "birth"])
    def test_raise_below_the_reach_and_solve_above(self, solver):
        # 220 of the 300 eps lie above the bottom 4.4e-11, every one solved
        records, below = bottom_scan(solver, REACH_SCAN)
        assert 0 < below < len(REACH_SCAN) and len(records) + below == len(REACH_SCAN)

    @pytest.mark.parametrize("solver", [solve_jump_boundary, bimodality_birth],
                             ids=["jump", "birth"])
    def test_total_at_the_reach_raises_and_half_is_none(self, solver):
        # the eps a ten-thousandth below and above the bottom, whose totals
        # lie 80 ulps of 1/2 apart
        records, below = bottom_scan(solver, [BOTTOM * (1 - 1e-4), BOTTOM * (1 + 1e-4)])
        assert below == 1 and len(records) == 1
        assert solver(TrajectorySpec(0.5)) is None


# 300 log-spaced distances d of the top-reach scan of the per-path jump on t* - d
TOP_REACH_SCAN = np.logspace(-17, -11, 300).tolist()


class TestTopReach:
    """Below t* the per-path jump returns a record or raises, naming the top
    reach within it; ``jump_curve`` leaves that reach to the p* anchor."""

    def test_raise_within_the_top_reach_and_solve_below(self):
        p_star = curves_intersection()
        t_star = p_star.q1 + p_star.q2
        raised = solved = 0
        for d in TOP_REACH_SCAN:
            traj = TrajectorySpec(t_star - d)
            if traj.total >= t_star:  # d below half an ulp of t*
                assert solve_jump_boundary(traj) is None
            elif t_star - traj.total <= _JUMP_TOP_REACH:
                try:
                    assert solve_jump_boundary(traj) is not None, d
                except ConvergenceError as exc:
                    assert f"top reach {_JUMP_TOP_REACH}" in str(exc)
                    raised += 1
            else:
                assert solve_jump_boundary(traj) is not None, d
                solved += 1
        assert raised > 0 and solved > 0

    def test_curve_anchors_at_p_star_within_the_top_reach(self):
        p_star = curves_intersection()
        t_star = p_star.q1 + p_star.q2
        for d in TOP_REACH_SCAN:
            curve = jump_curve([0.7, t_star - d])
            assert curve[-1].boundary.p == p_star
            assert len(curve) == 3 + (t_star - d < t_star - _JUMP_TOP_REACH), d

    def test_no_root_below_the_top_reach_raises(self, monkeypatch):
        monkeypatch.setattr(boundaries_module, "_tracked_root", lambda *args: None)
        with pytest.raises(ConvergenceError, match="no root found below t"):
            solve_jump_boundary(TrajectorySpec(0.6))
        assert solve_jump_boundary(TrajectorySpec(0.8)) is None


class TestSolveCost:
    """Deterministic work counts of the Newton solves."""

    @staticmethod
    def _count(monkeypatch, module, name, targets):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for target in targets:
            monkeypatch.setattr(target, name, counted)
        return calls

    def _slope_rows(self, monkeypatch):
        # classify_shape and interior_minimum each compute exactly one row
        return self._count(monkeypatch, shape_module, "_slope_row", [shape_module])

    def _window_walks(self, monkeypatch):
        # the walks of the deflated slope down from pi/2, one per window start;
        # the tracked walks start from the last angle instead
        calls = self._count(monkeypatch, boundaries_module, "_minimizer_near", [boundaries_module])
        return lambda: sum(deriv is _deflated_slope and theta0 == HALF_PI
                           for deriv, _, theta0 in calls)

    @pytest.mark.parametrize("solver,residual,bound", [
        (solve_halfpi_boundary, "post_entropy_curvature", 12),
        (solve_equal_endpoints, "_equal_endpoints_gap", 11),
    ], ids=["halfpi", "equal_endpoints"])
    def test_axis_root_evaluations(self, monkeypatch, solver, residual, bound):
        # the two ends, the steps of find_root and the residual at the root
        calls = self._count(monkeypatch, boundaries_module, residual, [boundaries_module])
        assert solver(TrajectorySpec.on_axis()) is not None
        assert len(calls) <= bound

    def test_jump_angle_table_classifications(self, monkeypatch):
        # one continued fan: the window start of its first total only, and no slope row
        rows, walks = self._slope_rows(monkeypatch), self._window_walks(monkeypatch)
        jump_angle_table()
        assert len(rows) == 0
        assert walks() == 1

    @pytest.mark.parametrize("total", TABLE_TOTALS)
    def test_jump_one_classification(self, monkeypatch, total):
        # the window start; the angle at the root is the one the solve tracked
        rows, walks = self._slope_rows(monkeypatch), self._window_walks(monkeypatch)
        assert solve_jump_boundary(TrajectorySpec(total)) is not None
        assert len(rows) == 0
        assert walks() == 1

    @pytest.mark.parametrize("total", TABLE_TOTALS)
    def test_birth_one_classification_on_table_totals(self, monkeypatch, total):
        # the birth walks the deflated slope from pi/2 and takes no slope row
        rows, walks = self._slope_rows(monkeypatch), self._window_walks(monkeypatch)
        assert bimodality_birth(TrajectorySpec(total)) is not None
        assert len(rows) == 0
        assert walks() == 1

    @pytest.mark.parametrize("total", [0.8033, 0.85, 0.95])
    @pytest.mark.parametrize("solver", [solve_jump_boundary, bimodality_birth], ids=["jump", "birth"])
    def test_windowless_path_one_classification(self, monkeypatch, solver, total):
        rows, walks = self._slope_rows(monkeypatch), self._window_walks(monkeypatch)
        result = solver(TrajectorySpec(total))
        # one walk from pi/2 at the window start, and no slope row
        assert len(rows) == 0
        assert walks() == 1
        if solver is solve_jump_boundary:
            # the walk finds no interior minimum, and nothing else is tried
            assert result is None
        else:
            # on 0.8033 the window, narrower than the jump's 1e-4 offset
            # below the half-pi root, holds a birth
            if total == 0.8033:
                assert result.p.q1 == pytest.approx(0.7703460, abs=1e-7)
            else:
                assert result is None

    def test_trace_one_probe_no_fallback(self, monkeypatch):
        # the continued jump fan: only its first total takes the window start,
        # the 25 others start from the last two records, and none runs the
        # per-path solve
        rows, walks = self._slope_rows(monkeypatch), self._window_walks(monkeypatch)
        fallbacks = self._count(
            monkeypatch, boundaries_module, "solve_jump_boundary", [boundaries_module]
        )
        trace_boundaries(100)
        assert len(rows) == 0
        assert walks() == 1
        assert len(fallbacks) == 0

    def test_continued_curve_evaluations(self, monkeypatch):
        # jump_curve on k/100 (26 totals), window start included: at most a
        # third of the 1059 S' and 0.6 of the 254 gap evaluations that the
        # nested corrector (a tracked per-path solve from each prediction)
        # took; measured 306 and 148
        slopes = self._count(monkeypatch, boundaries_module, "post_entropy_slope", [boundaries_module])
        gaps = self._count(monkeypatch, boundaries_module, "_jump_gap", [boundaries_module])
        jump_curve([k / 100 for k in range(1, 100)])
        assert len(slopes) <= 1059 // 3
        assert len(gaps) <= 0.6 * 254

    def test_fan_falls_back_where_the_gap_is_nan(self, monkeypatch):
        # the first gap evaluation on total 0.6 (the corrector's, at its
        # prediction) is NaN: the per-path solve stands in there alone
        target = 0.6
        totals = [k / 100 for k in range(51, 77)]
        expected = solve_jump_boundary(TrajectorySpec(target))
        original = boundaries_module._jump_gap
        forced = []

        def gap(p, theta):
            if not forced and abs(p.q1 + p.q2 - target) < 1e-12:
                forced.append(p)
                return math.nan
            return original(p, theta)

        monkeypatch.setattr(boundaries_module, "_jump_gap", gap)
        fallbacks = self._count(
            monkeypatch, boundaries_module, "solve_jump_boundary", [boundaries_module]
        )
        records = jump_curve(totals)[1:-1]
        assert len(forced) == 1
        assert [traj.total for traj, in fallbacks] == [target]
        assert records[totals.index(target)] == expected

    def test_intersection_scans(self, monkeypatch):
        # equal-endpoint solves only: the bracket's ends, the Brent steps and the root
        calls = self._count(
            monkeypatch, boundaries_module, "solve_equal_endpoints", [boundaries_module]
        )
        curves_intersection()
        assert len(calls) <= 9
