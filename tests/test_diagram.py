import dataclasses
import math
import warnings

import numpy as np
import pytest

import xdeficit.diagram
from xdeficit import (
    BoundaryKind,
    BoundaryPoint,
    ShapeClass,
    StateParams,
    TrajectorySpec,
    classify_shape,
    curves_intersection,
    interior_minimum,
    one_way_deficit,
    solve_halfpi_boundary,
    solve_jump_boundary,
    sweep,
    trace_boundaries,
    trajectory_profile,
)
from xdeficit.core import slope_curve
from xdeficit.diagram import PhaseCell, _chain
from xdeficit.shape import ENDPOINT_MARGIN, SLOPE_FLOOR, _angle_table, needs_refinement

HALF_PI = math.pi / 2
RES = 120


def outermost_slope(q1, q2):
    """dS/dtheta at pi/2 - ENDPOINT_MARGIN, the last slope sample of classify_shape."""
    _, ct, st = _angle_table(128)
    return slope_curve(q1, q2, ct[-1], st[-1])


@pytest.fixture(scope="module")
def small_grid():
    return sweep(resolution=RES, theta_grid=256)


@pytest.fixture(scope="module")
def curves():
    return trace_boundaries(resolution=100)


def _recorded_sweep(monkeypatch, resolution, theta_grid):
    """The sweep and the states it sent to the scalar route, in call order."""
    refined = []
    full = xdeficit.diagram._row_deficit

    def recording(p, row):
        refined.append((p.q1, p.q2))
        return full(p, row)

    monkeypatch.setattr(xdeficit.diagram, "_row_deficit", recording)
    return sweep(resolution=resolution, theta_grid=theta_grid), refined


def _counted_rows(monkeypatch):
    """A list that counts the slope rows computed from here on, by call: the
    states of each ``slope_curve`` call over a grid of angles."""
    counts = []
    for module in (xdeficit.shape, xdeficit.diagram):
        def counting(q1, q2, ct, st, _full=module.slope_curve):
            out = _full(q1, q2, ct, st)
            if np.ndim(ct) > 0:
                counts.append(out.size // np.shape(ct)[-1])
            return out
        monkeypatch.setattr(module, "slope_curve", counting)
    return counts


class TestPhaseCell:
    """The record contract that the CLI writer and the benchmark's
    self-test rely on: a frozen dataclass whose fields keep what is given."""

    def test_positional_and_keyword_construction(self):
        a = PhaseCell(0.25, 0.125, "AtZero", 0.5, 0.0)
        b = PhaseCell(q1=0.25, q2=0.125, branch="AtZero", delta=0.5, theta_opt=0.0)
        assert a == b and hash(a) == hash(b)
        assert (a.q1, a.q2, a.branch, a.delta, a.theta_opt) == (0.25, 0.125, "AtZero", 0.5, 0.0)
        assert a != PhaseCell(0.25, 0.125, "AtHalfPi", 0.5, 0.0)
        with pytest.raises(TypeError):
            PhaseCell(0.25, 0.125, "AtZero", 0.5)

    def test_generated_repr(self):
        cell = PhaseCell(0.25, 0.125, "Interior", 0.0625, 1.5)
        assert repr(cell) == "PhaseCell(q1=0.25, q2=0.125, branch='Interior', delta=0.0625, theta_opt=1.5)"

    def test_dataclass_fields_and_replace(self):
        cell = PhaseCell(0.25, 0.125, "AtZero", 0.5, 0.0)
        assert dataclasses.is_dataclass(cell)
        names = [f.name for f in dataclasses.fields(PhaseCell)]
        assert names == ["q1", "q2", "branch", "delta", "theta_opt"]
        moved = dataclasses.replace(cell, branch="AtHalfPi", theta_opt=HALF_PI)
        assert moved == PhaseCell(0.25, 0.125, "AtHalfPi", 0.5, HALF_PI)
        assert cell.branch == "AtZero"

    def test_frozen(self):
        cell = PhaseCell(0.25, 0.125, "AtZero", 0.5, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cell.delta = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del cell.q1

    def test_fields_kept_as_given(self):
        # no coercion: an int stays an int, NaN stays NaN
        cell = PhaseCell(1, 0, "Unresolved", math.nan, math.nan)
        assert type(cell.q1) is int and type(cell.q2) is int
        assert math.isnan(cell.delta) and math.isnan(cell.theta_opt)


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
        # threads is deprecated and ignored, and warns when passed
        with pytest.warns(DeprecationWarning, match="threads"):
            a = sweep(resolution=100, theta_grid=128, threads=1)
        with pytest.warns(DeprecationWarning, match="threads"):
            b = sweep(resolution=100, theta_grid=128, threads=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            c = sweep(resolution=100, theta_grid=128)
        assert a.cells == b.cells == c.cells

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            sweep(resolution=50)
        with pytest.raises(ValueError):
            sweep(resolution=100, theta_grid=32)

    def test_integer_arguments(self):
        # a float would otherwise pass the range checks and size a wrong grid
        with pytest.raises(TypeError):
            sweep(100.0)
        with pytest.raises(TypeError):
            sweep(100, theta_grid=128.0)
        with pytest.raises(TypeError):
            trajectory_profile(TrajectorySpec(0.75), samples=100.0)
        assert len(trajectory_profile(TrajectorySpec(0.75), samples=np.int64(100)).rows) == 100
        with pytest.raises(TypeError):
            trace_boundaries(100.0)

    @pytest.mark.parametrize("n", [100, 101, 137])
    def test_cell_order_and_field_types(self, n):
        # the CLI writes its CSV and JSON rows in cell order; np.float64
        # fields would change their repr under numpy 2 and fail json.dumps
        grid = sweep(n, theta_grid=128)
        centers = [(k + 0.5) / n for k in range(n)]
        inside = [
            (centers[i], centers[j]) for i in range(n) for j in range(n)
            if centers[i] + centers[j] <= 1.0
        ]
        assert [(c.q1, c.q2) for c in grid.cells] == inside
        for c in grid.cells:
            assert (type(c.q1), type(c.q2), type(c.branch), type(c.delta), type(c.theta_opt)) == (
                float, float, str, float, float
            )
        assert type(grid.area_fraction_interior) is float and type(grid.unresolved_cells) is int


class TestBlockRoute:
    @pytest.mark.parametrize("theta_grid", [128, 512])
    def test_matches_per_cell_route(self, theta_grid):
        grid = sweep(resolution=100, theta_grid=theta_grid)
        assert len(grid.cells) == 5050
        for cell in grid.cells:
            res = one_way_deficit(StateParams(cell.q1, cell.q2), grid_n=theta_grid)
            assert (cell.branch, cell.delta, cell.theta_opt) == (
                res.branch.value, res.delta, res.optimal_theta
            )
            assert cell.delta >= 0.0

    def test_scalar_route_only_where_flagged(self, monkeypatch):
        grid, refined = _recorded_sweep(monkeypatch, 100, 128)
        q1 = np.array([c.q1 for c in grid.cells])
        q2 = np.array([c.q2 for c in grid.cells])
        flagged = needs_refinement(q1, q2, 128)
        assert flagged.sum() == 146
        # four of the flagged cells carry only a maximum within 2e-3 rad of
        # theta = 0, and fall into pi/2 (outermost slope sample signed
        # negative), outside the walked band
        near_zero_maxima = {(0.005, 0.945), (0.005, 0.955), (0.945, 0.005), (0.955, 0.005)}
        for c in grid.cells:
            if (c.q1, c.q2) in near_zero_maxima:
                report = classify_shape(StateParams(c.q1, c.q2), grid_n=128)
                assert report.shape_class is ShapeClass.INTERIOR_MAXIMUM
                assert ENDPOINT_MARGIN < report.extrema[0].theta < 2e-3
                assert outermost_slope(c.q1, c.q2) <= -SLOPE_FLOOR
        # the walked band: flagged cells of the labelled half, q2 <= q1, whose
        # outermost slope sample is signed positive, in cell order
        band = flagged & (outermost_slope(q1, q2) >= SLOPE_FLOOR) & (q2 <= q1)
        assert refined == list(zip(q1[band], q2[band]))
        assert {c.branch for c, f in zip(grid.cells, flagged) if not f} == {"AtZero", "AtHalfPi"}

    def test_walked_rows_are_computed_once(self, monkeypatch):
        # sweep(100) walks 128 slope rows and flags 28 of those cells; their
        # deficits read the walked rows, so no row is computed for them again
        # (a per-cell deficit would take 156 rows in all).  The candidate
        # call, one angle per labelled cell, computes no row
        counts = _counted_rows(monkeypatch)
        _, refined = _recorded_sweep(monkeypatch, 100, 512)
        assert len(refined) == 28
        assert sum(counts) == 128

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
            res = one_way_deficit(StateParams(cell.q1, cell.q2), grid_n=128)
            assert (cell.branch, cell.delta, cell.theta_opt) == (
                res.branch.value, res.delta, res.optimal_theta
            )

    def test_suspicious_grid_takes_scalar_route(self):
        # just past the axis root of the half-pi boundary the curvature at pi/2
        # nearly vanishes: the slope keeps its sign up to the last sample, so
        # the curve is monotone on the requested grid and needs no refinement
        root = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
        p = StateParams(root + 1e-6, 0.0)
        report = classify_shape(p, grid_n=512)
        assert report.grid_n == 512
        assert (report.shape_class, report.extrema) == (ShapeClass.MONOTONE_DECREASING, ())
        assert needs_refinement(np.array([p.q1]), np.array([p.q2]), 512).tolist() == [False]

    def test_near_endpoint_bracket_takes_scalar_route(self):
        # just before that root the minimum sits 3.7e-3 rad below pi/2,
        # within the last two grid cells and below pi/2 - ENDPOINT_MARGIN
        root = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
        p = StateParams(root - 1e-6, 0.0)
        report = classify_shape(p, grid_n=512)
        assert report.grid_n == 512
        assert report.shape_class is ShapeClass.INTERIOR_MINIMUM
        assert HALF_PI - 2.0 * HALF_PI / 512 < report.extrema[0].theta < HALF_PI - ENDPOINT_MARGIN
        assert needs_refinement(np.array([p.q1]), np.array([p.q2]), 512).tolist() == [True]

    def test_monotone_curves_take_endpoint_route(self):
        q1 = np.array([0.1, 0.375, 0.9, 0.0])
        q2 = np.array([0.1, 0.375, 0.05, 0.0])
        assert needs_refinement(q1, q2, 512).tolist() == [False] * 4


class TestDiagonalWalk:
    @pytest.mark.parametrize(
        "resolution,theta_grid",
        [(r, g) for r in (100, 101, 160) for g in (128, 256, 512)] + [(400, 512)],
    )
    def test_band_covers_every_interior_minimum(self, monkeypatch, resolution, theta_grid):
        grid, refined = _recorded_sweep(monkeypatch, resolution, theta_grid)
        lower = [c for c in grid.cells if c.q2 <= c.q1]
        # reference: the full flag pass over the labelled half, then the
        # classification of every flagged cell
        flags = needs_refinement(np.array([c.q1 for c in lower]),
                                 np.array([c.q2 for c in lower]), theta_grid)
        minima = [
            (c.q1, c.q2) for c, f in zip(lower, flags.tolist())
            if f and interior_minimum(StateParams(c.q1, c.q2), grid_n=theta_grid) is not None
        ]
        assert minima
        assert set(minima) <= set(refined)
        if resolution == 400:
            assert grid.unresolved_cells == 0

    def test_positive_halfpi_curvature_has_no_interior_minimum(self):
        # the walk's premise: off the axes the curve rises from theta = 0, so
        # a curve whose outermost slope sample is signed negative, falling
        # into pi/2 (S''(pi/2) > 0 beyond the slope floor), leaves room for a
        # single interior maximum only; states crowd the half-pi boundary and
        # lie within 1e-12 of the edges
        rng = np.random.default_rng(12)
        states = []
        for total in rng.uniform(0.68, 0.999, 40):
            root = solve_halfpi_boundary(TrajectorySpec(total)).p.q1
            for q1 in root + 10.0 ** rng.uniform(-12, -2, 4):
                if q1 < total:
                    states.append((q1, total - q1))
        q1 = rng.uniform(0.0, 1.0, 120)
        tiny = 10.0 ** rng.uniform(-15, -12, 120)
        states += list(zip(q1 * (1.0 - tiny), tiny))  # beside the axis q2 = 0
        states += list(zip(q1 * (1.0 - tiny), (1.0 - q1) * (1.0 - tiny)))  # the hypotenuse
        states += [(b, a) for a, b in states]  # and their mirrors
        q1s, q2s = np.array(states).T
        positive = [
            (a, b) for a, b, d in zip(q1s, q2s, outermost_slope(q1s, q2s))
            if a > 0.0 and b > 0.0 and d <= -SLOPE_FLOOR
        ]
        assert len(positive) > 200
        for a, b in positive:
            assert interior_minimum(StateParams(a, b)) is None, (a, b)

    def test_unsigned_halfpi_sample_has_no_winning_minimum(self):
        # the walk's candidates exclude the states whose outermost slope
        # sample carries no sign (|S''(pi/2)| below ~1e-8): seeded within
        # 1e-13 to 1e-6 of the half-pi root on either side, dense where the
        # birth curve meets the half-pi curve, some of them bracket a minimum,
        # at totals above the intersection, where it never wins
        rng = np.random.default_rng(13)
        totals = np.concatenate([rng.uniform(0.5, 1.0, 200), rng.uniform(0.805, 0.83, 300)])
        states = []
        for total in totals:
            root = solve_halfpi_boundary(TrajectorySpec(total))
            if root is None:
                continue
            offsets = rng.choice([-1.0, 1.0], 12) * 10.0 ** rng.uniform(-13, -6, 12)
            states += [(q1, total - q1) for q1 in root.p.q1 + offsets if q1 < total]
        q1s, q2s = np.array(states).T
        unsigned = [
            StateParams(a, b) for a, b, d in zip(q1s, q2s, outermost_slope(q1s, q2s))
            if abs(d) < SLOPE_FLOOR
        ]
        assert len(unsigned) > 1000
        with_minimum = []
        for p in unsigned:
            for grid_n in (128, 256, 512):
                assert one_way_deficit(p, grid_n=grid_n).branch.value != "Interior", (p, grid_n)
            if interior_minimum(p) is not None:
                with_minimum.append(p.q1 + p.q2)
        star = curves_intersection()
        assert with_minimum and min(with_minimum) > star.q1 + star.q2


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

    def test_profile_walks_only_its_window(self, monkeypatch):
        # the walk computes the slope rows of the window's samples and of the
        # one that ends it: 10 of 1000 on total 0.75, and on the axis the 175
        # Interior samples and one more, below the flat corner q1 = 1
        counts = _counted_rows(monkeypatch)
        trajectory_profile(TrajectorySpec(0.75))
        assert sum(counts) == 10
        counts.clear()
        rows = trajectory_profile(TrajectorySpec.on_axis()).rows
        assert sum(counts) == 176 == 1 + sum(r.branch == "Interior" for r in rows)

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            trajectory_profile(TrajectorySpec(0.75), samples=10)

    def test_last_sample_is_the_path_end(self):
        # lo + (hi - lo) * (n - 1) / (n - 1) rounds one ulp past hi on ~3% of
        # (total, samples) pairs, which put q2 = total - q1 below 0; the scan
        # of 0.49382384283175956 at 100 samples is one.  The last sample is hi
        # itself, with the row one_way_deficit gives, on either route: paths
        # with totals in (0.501, 0.675) end on axis states that take the full
        # deficit, the others mostly on states that do not
        rng = np.random.default_rng(22)
        pairs = [(0.49382384283175956, 100)]
        for a, b in ((0.05, 1.0), (0.501, 0.675)):
            found = []
            while len(found) < 12:
                total, n = rng.uniform(a, b), int(rng.integers(100, 400))
                lo, hi = TrajectorySpec(total).q1_range()
                if lo + (hi - lo) * (n - 1) / (n - 1) > hi:
                    found.append((total, n))
            pairs += found
        totals = np.array([total for total, _ in pairs])
        flagged = needs_refinement(totals, np.zeros_like(totals), 512)
        assert 0 < np.count_nonzero(flagged) < len(pairs)
        for total, n in pairs:
            traj = TrajectorySpec(total)
            rows = trajectory_profile(traj, samples=n).rows
            hi = traj.q1_range()[1]
            assert rows[-1].q1 == hi, (total, n)
            assert min(r.q2 for r in rows) >= 0.0, (total, n)
            p = traj.state(hi)
            res = one_way_deficit(p, grid_n=512)
            assert rows[-1] == PhaseCell(p.q1, p.q2, res.branch.value, res.delta, res.optimal_theta)

    @pytest.mark.parametrize("traj,samples,branches", [
        pytest.param(*case, id=f"traj{k}") for k, case in enumerate([
            (TrajectorySpec(0.75), 1000, {"AtZero", "Interior", "AtHalfPi"}),
            (TrajectorySpec.on_axis(), 1000, {"AtZero", "Interior", "AtHalfPi"}),
            (TrajectorySpec.on_axis(), 1777, {"AtZero", "Interior", "AtHalfPi"}),
            (TrajectorySpec(0.55), 1000, {"AtZero", "Interior"}),
            (TrajectorySpec(0.6), 1000, {"AtZero", "Interior"}),
            (TrajectorySpec(0.7), 1000, {"AtZero", "Interior", "AtHalfPi"}),
            (TrajectorySpec(0.8), 1000, {"AtZero", "AtHalfPi"}),
            (TrajectorySpec(0.8154), 1000, {"AtZero", "AtHalfPi"}),
            (TrajectorySpec(1.0), 1000, {"AtZero"}),
        ])
    ])
    def test_matches_per_sample_route(self, traj, samples, branches):
        # one walk along the path, the endpoint branches on the samples it
        # does not flag: the same rows as one_way_deficit sample by sample;
        # on the axis the walk starts below the flat corner q1 = 1
        profile = trajectory_profile(traj, samples)
        lo, hi = (0.0, 1.0) if traj.axis else traj.q1_range()
        rows = []
        for k in range(samples):
            # the last sample is hi itself, which the formula can miss by one ulp
            p = traj.state(lo + (hi - lo) * k / (samples - 1) if k < samples - 1 else hi)
            res = one_way_deficit(p, grid_n=512)
            rows.append(PhaseCell(p.q1, p.q2, res.branch.value, res.delta, res.optimal_theta))
        assert profile.rows == rows
        transitions = [
            (0.5 * (a.q1 + b.q1), a.branch, b.branch)
            for a, b in zip(rows, rows[1:]) if a.branch != b.branch
        ]
        assert profile.transitions == transitions
        assert {r.branch for r in rows} == branches


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

    def test_resolution_below_100_raises(self):
        with pytest.raises(ValueError, match="at least 100"):
            trace_boundaries(99)

    def test_chain_flags_a_gap_wider_than_two_cells(self):
        # at resolution 100 the bound is 0.02: the steps 0.01 and 0.015 pass
        kind = BoundaryKind.JUMP_BOUNDARY
        points = [BoundaryPoint(p=StateParams(q1, 0.0), kind=kind, residual=0.0)
                  for q1 in (0.5, 0.51, 0.525, 0.555)]
        assert _chain(kind, points, 100).gaps == [2]

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
