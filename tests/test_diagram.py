import math

import numpy as np
import pytest

import xdeficit.diagram
from xdeficit import (
    BoundaryKind,
    StateParams,
    TrajectorySpec,
    classify_shape,
    one_way_deficit,
    post_entropy,
    solve_halfpi_boundary,
    solve_jump_boundary,
    sweep,
    trace_boundaries,
    trajectory_profile,
)
from xdeficit.diagram import PhaseCell
from xdeficit.shape import _angles, _extremum_brackets, _grid_slopes, needs_refinement

HALF_PI = math.pi / 2
RES = 120


@pytest.fixture(scope="module")
def small_grid():
    return sweep(resolution=RES, theta_grid=256, threads=1)


@pytest.fixture(scope="module")
def curves():
    return trace_boundaries(resolution=100)


class TestSweep:
    def test_cells_inside_triangle(self, small_grid):
        for cell in small_grid.cells:
            assert cell.q1 + cell.q2 <= 1.0

    def test_area_fraction_near_one_percent(self, small_grid):
        assert 0.005 <= small_grid.area_fraction_interior <= 0.02

    def test_no_unresolved_cells(self, small_grid):
        assert small_grid.unresolved_cells == 0

    def test_branch_labels_mirror_symmetric(self, small_grid):
        labels = {}
        for cell in small_grid.cells:
            i = round(cell.q1 * RES - 0.5)
            j = round(cell.q2 * RES - 0.5)
            labels[(i, j)] = cell.branch
        for (i, j), branch in labels.items():
            assert labels[(j, i)] == branch

    def test_known_cells(self, small_grid):
        by_index = {
            (round(c.q1 * RES - 0.5), round(c.q2 * RES - 0.5)): c for c in small_grid.cells
        }
        center = by_index[(45, 45)]  # cell containing (0.375, 0.375)
        assert center.branch == "AtZero"
        near_axis = by_index[(108, 0)]  # deep inside the half-pi lobe
        assert near_axis.branch == "AtHalfPi"

    def test_interior_cells_confined_to_jump_window(self, small_grid):
        interior = [c for c in small_grid.cells if c.branch == "Interior"]
        assert interior, "expected a nonempty interior phase"
        width = 1.5 / RES
        # spot-check a deterministic subset; each solve costs a trajectory scan
        for cell in interior[:: max(1, len(interior) // 6)]:
            q1, q2 = (cell.q1, cell.q2) if cell.q1 >= cell.q2 else (cell.q2, cell.q1)
            total = q1 + q2
            rec = solve_jump_boundary(TrajectorySpec(total))
            hp = solve_halfpi_boundary(TrajectorySpec(total))
            upper = hp.p.q1 if hp is not None else total
            assert rec is not None
            assert rec.boundary.p.q1 - width <= q1 <= upper + width

    def test_deterministic_across_worker_counts(self):
        a = sweep(resolution=100, theta_grid=128, threads=1)
        b = sweep(resolution=100, theta_grid=128, threads=2)
        assert a.cells == b.cells

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            sweep(resolution=50)
        with pytest.raises(ValueError):
            sweep(resolution=100, theta_grid=32)


class TestBlockRoute:
    @pytest.mark.parametrize("theta_grid", [128, 512])
    def test_matches_per_cell_route(self, theta_grid):
        grid = sweep(resolution=100, theta_grid=theta_grid)
        assert len(grid.cells) == 5050
        for cell in grid.cells:
            res = one_way_deficit(
                StateParams(cell.q1, cell.q2), grid_n=theta_grid, refine_tol=1e-8
            )
            assert (cell.branch, cell.delta, cell.theta_opt) == (
                res.branch.value, res.delta, res.optimal_theta
            )
            assert cell.delta >= 0.0

    def test_scalar_route_only_where_flagged(self, monkeypatch):
        refined = []
        full = xdeficit.diagram.one_way_deficit

        def recording(p, **kwargs):
            refined.append((p.q1, p.q2))
            return full(p, **kwargs)

        monkeypatch.setattr(xdeficit.diagram, "one_way_deficit", recording)
        grid = sweep(resolution=100, theta_grid=128)
        q1 = np.array([c.q1 for c in grid.cells])
        q2 = np.array([c.q2 for c in grid.cells])
        flagged = needs_refinement(q1, q2, 128)
        assert flagged.sum() == 142
        # only the labelled half, q2 <= q1, runs the scalar route, in cell order
        lower = flagged & (q2 <= q1)
        assert refined == list(zip(q1[lower], q2[lower]))
        assert {c.branch for c, f in zip(grid.cells, flagged) if not f} == {"AtZero", "AtHalfPi"}

    def test_cells_above_diagonal_mirror_their_twins(self):
        grid = sweep(resolution=100, theta_grid=128)
        by_point = {(c.q1, c.q2): c for c in grid.cells}
        upper = [c for c in grid.cells if c.q2 > c.q1]
        assert len(upper) == sum(1 for c in grid.cells if c.q2 < c.q1) > 0
        for cell in upper:
            twin = by_point[cell.q2, cell.q1]
            assert cell == PhaseCell(twin.q2, twin.q1, twin.branch, twin.delta, twin.theta_opt)

    def test_odd_resolution_matches_per_cell_route(self):
        # an odd resolution puts the cell (0.5, 0.5) on both the diagonal and
        # the hypotenuse, beside the other cells with i + j + 1 = resolution,
        # whose membership rests on the rounding of q1 + q2
        grid = sweep(resolution=101, theta_grid=128)
        assert (0.5, 0.5) in {(c.q1, c.q2) for c in grid.cells}
        assert any(c.q1 + c.q2 == 1.0 and c.q1 != c.q2 for c in grid.cells)
        for cell in grid.cells:
            res = one_way_deficit(StateParams(cell.q1, cell.q2), grid_n=128, refine_tol=1e-8)
            assert (cell.branch, cell.delta, cell.theta_opt) == (
                res.branch.value, res.delta, res.optimal_theta
            )

    @staticmethod
    def _grid_brackets(p, n):
        theta = _angles(n)
        return _extremum_brackets(theta, _grid_slopes(np.asarray(post_entropy(p, theta)))[0])

    def test_suspicious_grid_takes_scalar_route(self):
        # just past the axis root of the half-pi boundary the curvature at pi/2
        # nearly vanishes: no slope flips on the grid, but the last slopes are
        # flat enough for classify_shape to double the grid
        root = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
        p = StateParams(root + 1e-6, 0.0)
        assert self._grid_brackets(p, 512) == []
        assert classify_shape(p, grid_n=512).grid_n > 512
        assert needs_refinement(np.array([p.q1]), np.array([p.q2]), 512).tolist() == [True]

    def test_near_endpoint_bracket_takes_scalar_route(self):
        # just before that root the grid brackets a minimum at pi/2 that the
        # scalar classification merges into the endpoint
        root = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
        p = StateParams(root - 1e-6, 0.0)
        assert [b[0] for b in self._grid_brackets(p, 512)] == ["min"]
        assert classify_shape(p, grid_n=512).extrema == ()
        assert needs_refinement(np.array([p.q1]), np.array([p.q2]), 512).tolist() == [True]

    def test_monotone_curves_take_endpoint_route(self):
        q1 = np.array([0.1, 0.375, 0.9, 0.0])
        q2 = np.array([0.1, 0.375, 0.05, 0.0])
        assert needs_refinement(q1, q2, 512).tolist() == [False] * 4


class TestTrajectoryProfile:
    def test_branch_sequence_on_075(self):
        profile = trajectory_profile(TrajectorySpec(0.75), samples=2000)
        kinds = [(t[1], t[2]) for t in profile.transitions]
        assert kinds == [("AtZero", "Interior"), ("Interior", "AtHalfPi")]
        assert profile.transitions[0][0] == pytest.approx(0.721590, abs=1e-3)
        assert profile.transitions[1][0] == pytest.approx(0.72358, abs=1e-3)

    def test_single_fracture_on_08(self):
        profile = trajectory_profile(TrajectorySpec(0.8), samples=2000)
        assert [(t[1], t[2]) for t in profile.transitions] == [("AtZero", "AtHalfPi")]
        assert profile.transitions[0][0] == pytest.approx(0.769269, abs=1e-3)

    def test_no_transitions_on_low_total(self):
        profile = trajectory_profile(TrajectorySpec(0.2), samples=200)
        assert profile.transitions == []

    def test_deficit_continuous_along_075(self):
        profile = trajectory_profile(TrajectorySpec(0.75), samples=2000)
        deltas = np.array([row.delta for row in profile.rows])
        q2s = np.array([row.q2 for row in profile.rows])
        step = profile.rows[1].q1 - profile.rows[0].q1
        diffs = np.abs(np.diff(deltas))
        # bounded slope through both branch switches; the last fraction of the
        # path is excluded because d(delta)/dq1 grows like log(1/q2) toward
        # the axis contact (the entropy itself, not a branch discontinuity)
        away_from_axis = q2s[:-1] > 5e-3
        assert np.max(diffs[away_from_axis]) < 10.0 * step
        assert np.max(diffs) < 3e-3  # continuous everywhere, just steeper

    def test_fracture_visible_on_08_but_not_on_axis(self):
        h = 1e-4

        def slope_break(fn, q):
            left = (fn(q - h) - fn(q - 2 * h)) / h
            right = (fn(q + 2 * h) - fn(q + h)) / h
            return abs(right - left)

        on_08 = lambda q1: one_way_deficit(StateParams(q1, 0.8 - q1)).delta
        on_axis = lambda q1: one_way_deficit(StateParams(q1, 0.0)).delta
        assert slope_break(on_08, 0.7692693) > 0.05
        assert slope_break(on_axis, 0.5) < 1e-3
        assert slope_break(on_axis, 0.6751510) < 1e-3

    def test_axis_branch_sequence(self):
        profile = trajectory_profile(TrajectorySpec.on_axis(), samples=400)
        for row in profile.rows:
            if 0.01 < row.q1 < 0.49:
                assert row.branch == "AtZero"
            elif 0.51 < row.q1 < 0.665:
                assert row.branch == "Interior"
            elif 0.686 < row.q1 < 0.99:
                assert row.branch == "AtHalfPi"

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            trajectory_profile(TrajectorySpec(0.75), samples=10)

    @pytest.mark.parametrize("traj", [TrajectorySpec(0.75), TrajectorySpec.on_axis()])
    def test_matches_per_sample_route(self, traj):
        # one flag pass over the path, the endpoint branches on the unflagged
        # samples: the same rows as one_way_deficit sample by sample
        profile = trajectory_profile(traj)
        lo, hi = (0.0, 1.0) if traj.axis else traj.q1_range()
        rows = []
        for k in range(1000):
            p = traj.state(lo + (hi - lo) * k / 999)
            res = one_way_deficit(p, grid_n=512, refine_tol=1e-8)
            rows.append(PhaseCell(p.q1, p.q2, res.branch.value, res.delta, res.optimal_theta))
        assert profile.rows == rows
        transitions = [
            (0.5 * (a.q1 + b.q1), a.branch, b.branch)
            for a, b in zip(rows, rows[1:]) if a.branch != b.branch
        ]
        assert profile.transitions == transitions
        assert {r.branch for r in rows} >= {"AtZero", "Interior", "AtHalfPi"}


class TestTraceBoundaries:
    def _curves_of(self, curves, kind):
        return [c for c in curves if c.kind is kind and len(c.points) > 1]

    def test_curve_inventory(self, curves):
        assert len(self._curves_of(curves, BoundaryKind.EQUAL_ENDPOINTS)) == 2
        assert len(self._curves_of(curves, BoundaryKind.HALFPI_BIFURCATION)) == 2
        assert len(self._curves_of(curves, BoundaryKind.JUMP_BOUNDARY)) == 2
        marks = [c for c in curves if c.kind is BoundaryKind.ZERO_BIFURCATION_AXIS]
        assert len(marks) == 4 and all(len(c.points) == 1 for c in marks)

    def test_equal_endpoint_curve_anchors(self, curves):
        curve = self._curves_of(curves, BoundaryKind.EQUAL_ENDPOINTS)[0]
        assert curve.points[0].p.q1 == pytest.approx(0.61554, abs=1e-3)
        assert curve.points[0].p.q2 == pytest.approx(0.0, abs=1e-9)
        assert curve.points[-1].p.q1 == pytest.approx(1.0, abs=1e-3)

    def test_halfpi_curve_anchors(self, curves):
        curve = self._curves_of(curves, BoundaryKind.HALFPI_BIFURCATION)[0]
        assert curve.points[0].p.q1 == pytest.approx(0.67515, abs=1e-3)
        assert curve.points[-1].p.q1 == pytest.approx(1.0, abs=1e-3)

    def test_jump_curve_anchors(self, curves):
        curve = self._curves_of(curves, BoundaryKind.JUMP_BOUNDARY)[0]
        assert (curve.points[0].p.q1, curve.points[0].p.q2) == (0.5, 0.0)
        assert curve.points[-1].p.q1 == pytest.approx(0.739409, abs=1e-3)
        assert curve.points[-1].p.q2 == pytest.approx(0.029686, abs=1e-3)

    def test_polylines_have_no_gaps(self, curves):
        for curve in curves:
            assert curve.gaps == []

    def test_residuals_within_tolerance(self, curves):
        for curve in curves:
            for bp in curve.points:
                if not bp.degenerate and bp.kind is not BoundaryKind.BIMODALITY_BIRTH:
                    assert bp.residual < 1e-6

    def test_curve_order_and_exact_mirrors(self, curves):
        kinds = (
            [BoundaryKind.EQUAL_ENDPOINTS] * 2
            + [BoundaryKind.HALFPI_BIFURCATION] * 2
            + [BoundaryKind.JUMP_BOUNDARY] * 2
            + [BoundaryKind.ZERO_BIFURCATION_AXIS] * 4
        )
        assert [c.kind for c in curves] == kinds
        for curve, mirror in zip(curves[0:6:2], curves[1:6:2]):
            swapped = [(bp.p.q2, bp.p.q1, bp.kind, bp.residual, bp.degenerate)
                       for bp in curve.points]
            assert swapped == [(bp.p.q1, bp.p.q2, bp.kind, bp.residual, bp.degenerate)
                               for bp in mirror.points]
            assert curve.gaps == mirror.gaps

    def test_mirror_curves_are_mirrors(self, curves):
        eq = self._curves_of(curves, BoundaryKind.EQUAL_ENDPOINTS)
        first = [(bp.p.q1, bp.p.q2) for bp in eq[0].points]
        second = [(bp.p.q2, bp.p.q1) for bp in eq[1].points]
        assert first == second

    def test_boundary_curves_meet_near_intersection(self, curves):
        eq = self._curves_of(curves, BoundaryKind.EQUAL_ENDPOINTS)[0]
        hp = self._curves_of(curves, BoundaryKind.HALFPI_BIFURCATION)[0]
        closest = min(
            math.hypot(a.p.q1 - b.p.q1, a.p.q2 - b.p.q2)
            for a in eq.points
            for b in hp.points
        )
        assert closest < 5e-4
