import logging
import math

import numpy as np
import pytest

import mp_reference
from test_acceptance import REFERENCE_TABLE, TABLE_TOTALS
import xdeficit.boundaries as boundaries_module
import xdeficit.shape as shape_module
from xdeficit import (
    BoundaryKind,
    ConvergenceError,
    StateParams,
    TrajectorySpec,
    bimodality_birth,
    curves_intersection,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    interior_minimum,
    jump_angle_table,
    solve_equal_endpoints,
    solve_halfpi_boundary,
    solve_jump_boundary,
    zero_boundary_axis,
)
from xdeficit.boundaries import (
    BIRTH_Q1_TOL,
    CORNER_TOL,
    Q1_TOL,
    SCAN_SAMPLES,
    _brackets,
    _find_window_probe,
    _minimizer_near,
)
from xdeficit.core import s2_halfpi, s2_zero_axis
from xdeficit.shape import find_root as _bisect

HALF_PI = math.pi / 2


def _brackets_loop(vals):
    """Sign-change scan as a plain loop, kept as the reference for _brackets."""
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


class TestBrackets:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            vals = rng.normal(size=rng.integers(1, 40))
            vals[rng.random(vals.size) < 0.2] = math.nan
            vals[rng.random(vals.size) < 0.1] = 0.0
            assert _brackets(vals).tolist() == _brackets_loop(vals)

    def test_nan_stretch_breaks_a_bracket(self):
        vals = np.array([1.0, math.nan, -1.0, -2.0, 3.0, 0.0, -0.0, -1.0])
        assert _brackets(vals).tolist() == [3, 6]


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

    @pytest.mark.parametrize(
        "traj", [TrajectorySpec.on_axis(), TrajectorySpec(1.0), TrajectorySpec(0.75)]
    )
    def test_states_match_state(self, traj):
        lo, hi = traj.q1_range()
        # the range ends and the half-pi scan's nudged ends
        ends = [lo, hi, lo + 1e-9, hi - 1e-9]
        qs = np.concatenate([np.linspace(lo, hi, 257), ends])
        q1, q2 = traj.states(qs)
        ref = [traj.state(q) for q in qs]
        assert q1.tolist() == [p.q1 for p in ref]
        assert q2.tolist() == [p.q2 for p in ref]


def _solve_loop(traj, residual, lo, hi):
    """Boundary scan as a per-sample loop, kept as the reference for the array scan.

    Returns (state, residual, degenerate) of the rightmost root, or None.
    """
    f = lambda q1: residual(traj.state(q1))
    qs = np.linspace(lo, hi, SCAN_SAMPLES)
    vals = np.array([f(q) for q in qs], dtype=float)
    idx = _brackets(vals)
    if idx.size == 0:
        return None
    i = idx[-1]
    root = _bisect(f, qs[i], qs[i + 1], vals[i], vals[i + 1], Q1_TOL)
    p = traj.state(root)
    return p, abs(f(root)), min(1.0 - p.q1, 1.0 - p.q2) < CORNER_TOL


class TestArrayScan:
    PATHS = [TrajectorySpec.on_axis()] + [TrajectorySpec(k / 100) for k in range(1, 100)]

    @staticmethod
    def _as_tuple(bp):
        return None if bp is None else (bp.p, bp.residual, bp.degenerate)

    def test_equal_endpoints_match_loop(self):
        gap = lambda p: endpoint_entropy_zero(p) - endpoint_entropy_halfpi(p)
        for traj in self.PATHS:
            ref = _solve_loop(traj, gap, *traj.q1_range())
            assert self._as_tuple(solve_equal_endpoints(traj)) == ref, traj

    def test_halfpi_match_loop(self):
        def curvature(p):
            val = s2_halfpi(p)
            return math.nan if val is None else val

        for traj in self.PATHS:
            lo, hi = traj.q1_range()
            ref = _solve_loop(traj, curvature, lo + 1e-9, hi - 1e-9)
            assert self._as_tuple(solve_halfpi_boundary(traj)) == ref, traj


class TestWindowProbeFallback:
    def test_silent_on_table_totals(self, caplog):
        caplog.set_level(logging.DEBUG, logger="xdeficit.boundaries")
        jump_angle_table()
        assert [r for r in caplog.records if r.name == "xdeficit.boundaries"] == []

    @pytest.mark.parametrize("total", TABLE_TOTALS)
    def test_birth_silent_on_table_totals(self, total, caplog):
        # 0.55 misses every probe offset; the jump root lies in its window
        caplog.set_level(logging.DEBUG, logger="xdeficit.boundaries")
        assert bimodality_birth(TrajectorySpec(total)) is not None
        assert [r for r in caplog.records if r.name == "xdeficit.boundaries"] == []

    def test_logged_when_probes_miss(self, caplog):
        caplog.set_level(logging.DEBUG, logger="xdeficit.boundaries")
        traj = TrajectorySpec(0.75)
        lo, hi = traj.q1_range()
        probe = _find_window_probe(traj, hi, lo, lambda p: p.q1 < lo + 0.01)
        assert lo < probe < lo + 0.01
        messages = [r.getMessage() for r in caplog.records if r.name == "xdeficit.boundaries"]
        assert len(messages) == 1 and "scanning 2048 points" in messages[0]


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
        val = s2_halfpi(bp.p.swapped())
        assert abs(val) == pytest.approx(bp.residual, abs=1e-15)


class TestZeroBoundaryAxis:
    def test_four_points_with_tiny_residuals(self):
        points = zero_boundary_axis()
        coords = {(bp.p.q1, bp.p.q2) for bp in points}
        assert coords == {(0.5, 0.0), (0.0, 0.5), (1.0, 0.0), (0.0, 1.0)}
        for bp in points:
            assert bp.kind is BoundaryKind.ZERO_BIFURCATION_AXIS
            assert bp.residual < 1e-10

    def test_off_root_value_nonzero(self):
        assert abs(s2_zero_axis(0.75)) > 0.1


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
        # root, and that root, where the gap S(0) - S(pi/2) is still positive
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
            assert _minimizer_near(p, theta0) == pytest.approx(ext.theta, abs=1e-9)

    def test_nan_without_interior_minimum(self):
        p = StateParams(0.6, 0.1)
        assert interior_minimum(p, grid_n=2048) is None
        assert math.isnan(_minimizer_near(p, 0.8))


class TestBimodalityBirth:
    # births before the jump root became a window probe candidate
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
        assert bp.residual <= 1e-5 + 1e-12

    def test_total_065(self):
        bp = bimodality_birth(TrajectorySpec(0.65))
        assert bp.p.q1 == pytest.approx(0.631, abs=1e-3)

    def test_no_transition_on_low_total(self):
        assert bimodality_birth(TrajectorySpec(0.4)) is None

    def test_classification_flips_across(self):
        from xdeficit import ShapeClass, classify_shape

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


class TestCurvesIntersection:
    def test_landmark(self):
        p = curves_intersection()
        assert p.q1 == pytest.approx(0.739409, abs=2e-4)
        assert p.q2 == pytest.approx(0.029686, abs=2e-4)
        assert p.q1 + p.q2 == pytest.approx(0.769095, abs=3e-4)

    def test_mirrored_intersection_satisfies_both_equations(self):
        p = curves_intersection().swapped()
        assert abs(endpoint_entropy_zero(p) - endpoint_entropy_halfpi(p)) < 1e-5
        assert abs(s2_halfpi(p)) < 1e-4

    def test_no_seed_raises(self):
        with pytest.raises(ConvergenceError):
            curves_intersection(0.3, 0.4)

    @pytest.mark.parametrize("t_lo,t_hi", [(0.70, 0.76), (0.78, 0.80)])
    def test_root_off_the_totals_raises(self, t_lo, t_hi):
        # Newton converges to the intersection at total ~0.7691, outside [t_lo, t_hi]
        with pytest.raises(ConvergenceError):
            curves_intersection(t_lo, t_hi)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(boundaries_module, "_NEWTON_STEPS", 2)
        with pytest.raises(ConvergenceError):
            curves_intersection()

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

    def test_jump_angle_table_classifications(self, monkeypatch):
        # interior_minimum reaches classify_shape through the shape module
        calls = self._count(
            monkeypatch, shape_module, "classify_shape", [shape_module, boundaries_module]
        )
        jump_angle_table()
        assert len(calls) <= 25

    def test_intersection_scans(self, monkeypatch):
        calls = self._count(monkeypatch, boundaries_module, "_last_root", [boundaries_module])
        curves_intersection()
        assert len(calls) <= 2
