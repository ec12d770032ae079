"""Acceptance suite: quantitative landmark reproductions and property checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``) before asserting, so the whole scorecard is readable even when
individual criteria fail.  Every tolerance is pinned here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

import mp_reference
from conftest import golden_minimize, triangle_samples
from xdeficit import (
    StateParams,
    TrajectorySpec,
    bimodality_birth,
    curves_intersection,
    endpoint_entropy_halfpi,
    endpoint_entropy_zero,
    equivalence_sweep,
    family_fidelity,
    interior_minimum,
    jump_angle_table,
    naive_deficit,
    one_way_deficit,
    oracle_post_entropy,
    post_entropy,
    post_spectrum,
    pre_entropy,
    solve_equal_endpoints,
    solve_halfpi_boundary,
    solve_jump_boundary,
    sweep,
    zero_boundary_axis,
)

HALF_PI = math.pi / 2

# (q1, jump angle) per row.  The published table prints 0.6252 and 1.0409 for
# the rows q1 = 0.676082 and 0.721590.  Those are the interior minimizers at
# q1 = 0.6760677 and 0.72160, not at the printed boundary points: there the
# minimizer moves by ~95 and ~174 rad per unit q1, so a 1e-5 slip in q1 accounts
# for the whole difference.  The angles at the boundary points, from the 40-digit
# solve in test_reference_table_matches_40_digit_solve, are used instead.
REFERENCE_TABLE = [
    (0.5, 0.0),
    (0.544535, 0.1267),
    (0.588104, 0.2470),
    (0.631766, 0.4020),
    (0.676082, 0.6266),
    (0.721590, 1.0392),
    (0.739409, HALF_PI),
]
TABLE_TOTALS = (0.55, 0.60, 0.65, 0.70, 0.75)


def check(checks, cid, description):
    failures = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {cid} {status}: {description}")
    for msg in failures:
        print(f"    failed: {msg}")
    assert not failures, f"{cid}: " + "; ".join(failures)


def brute_force_deficit(p: StateParams, n: int = 4096) -> float:
    thetas = np.linspace(0.0, HALF_PI, n + 1)
    y = np.asarray(post_entropy(p, thetas))
    i = int(np.argmin(y))
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, n)]
    _, val = golden_minimize(lambda t: post_entropy(p, t), lo, hi, 1e-11)
    return min(val, y[0], y[-1]) - pre_entropy(p)


def test_c01_axis_landmarks():
    eq = solve_equal_endpoints(TrajectorySpec.on_axis()).p.q1
    hp = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
    check(
        [
            (abs(eq - 0.61554) < 1e-4, f"equal-endpoint axis root {eq:.6f} vs 0.61554"),
            (abs(hp - 0.67515) < 1e-4, f"half-pi axis root {hp:.6f} vs 0.67515"),
        ],
        "C01",
        "axis landmarks of the two boundary curves",
    )


def test_c02_entropy_landmark():
    p = StateParams(0.61554, 0.0)
    s0 = endpoint_entropy_zero(p)
    sp = endpoint_entropy_halfpi(p)
    check(
        [
            (abs(s0 - 1.57667) < 1e-4, f"entropy at zero end {s0:.6f} vs 1.57667"),
            (abs(sp - 1.57667) < 1e-4, f"entropy at half-pi end {sp:.6f} vs 1.57667"),
        ],
        "C02",
        "endpoint entropies at the equal-endpoint axis state",
    )


def test_c03_interior_minimum_depth():
    p = StateParams(0.61554, 0.0)
    ext = interior_minimum(p)
    depth = endpoint_entropy_zero(p) - ext.value
    delta0 = endpoint_entropy_zero(p) - pre_entropy(p)
    rel = depth / delta0
    check(
        [
            (abs(depth - 0.01397) < 5e-4, f"depth {depth:.5f} vs 0.01397"),
            (abs(rel - 0.023) < 0.002, f"relative correction {rel:.4f} vs 0.023"),
        ],
        "C03",
        "interior-minimum depth and relative correction",
    )


def test_c04_jump_angle_table():
    table = jump_angle_table()
    checks = [(len(table) == 7, f"expected 7 rows, got {len(table)}")]
    for rec, (ref_q1, ref_angle) in zip(table, REFERENCE_TABLE):
        q1 = rec.boundary.p.q1
        checks.append(
            (abs(q1 - ref_q1) < 1e-4, f"row q1 {q1:.6f} vs reference {ref_q1:.6f}")
        )
        checks.append(
            (
                abs(rec.jump_angle - ref_angle) < 5e-4,
                f"jump angle {rec.jump_angle:.4f} vs reference {ref_angle:.4f} "
                f"(row q1 {ref_q1:.6f})",
            )
        )
    check(checks, "C04", "seven-row jump-angle table against reference values")


def test_reference_table_matches_40_digit_solve():
    """Pin every trajectory row of REFERENCE_TABLE to a route free of the package.

    The post-measured spectrum comes from the explicit density matrix
    (``mp_reference``).  A 40-digit Newton solve of {dS/dtheta = 0,
    S(theta) = S(0)} in (q1, theta), seeded at the reference row, then gives
    the boundary point and its jump angle.
    """
    mp = pytest.importorskip("mpmath")

    for total, (ref_q1, ref_angle) in zip(TABLE_TOTALS, REFERENCE_TABLE[1:-1]):
        q1, theta, curvature = mp_reference.jump_point(total, ref_q1, ref_angle)
        assert 0 < theta < mp.pi / 2 and curvature > 0, f"row {ref_q1}: not an interior minimum"
        assert abs(float(q1) - ref_q1) < 1e-6, f"q1 {mp.nstr(q1, 10)} vs reference {ref_q1}"
        assert abs(float(theta) - ref_angle) < 5e-5, (
            f"angle {mp.nstr(theta, 10)} vs reference {ref_angle} (row q1 {ref_q1})"
        )


def test_c05_trajectory_075_narrative():
    traj = TrajectorySpec(0.75)
    birth = bimodality_birth(traj).p.q1
    rec = solve_jump_boundary(traj)
    death = solve_halfpi_boundary(traj).p.q1
    check(
        [
            (abs(birth - 0.72015) < 5e-4, f"bimodality birth {birth:.5f} vs 0.72015"),
            (
                abs(rec.boundary.p.q1 - 0.721590) < 1e-4,
                f"jump position {rec.boundary.p.q1:.6f} vs 0.721590",
            ),
            (
                # published 1.0409 is the minimizer near q1 = 0.72160, not at the
                # boundary; see REFERENCE_TABLE
                abs(rec.jump_angle - 1.0392) < 5e-4,
                f"jump angle {rec.jump_angle:.4f} vs 1.0392",
            ),
            (abs(death - 0.72358) < 1e-4, f"interior-minimum death {death:.5f} vs 0.72358"),
        ],
        "C05",
        "birth, jump and death landmarks along total 0.75",
    )


def test_c06_intersection_point():
    p = curves_intersection()
    total = p.q1 + p.q2
    check(
        [
            (abs(p.q1 - 0.739409) < 2e-4, f"q1 {p.q1:.6f} vs 0.739409"),
            (abs(p.q2 - 0.029686) < 2e-4, f"q2 {p.q2:.6f} vs 0.029686"),
            (abs(total - 0.769095) < 3e-4, f"total {total:.6f} vs 0.769095"),
        ],
        "C06",
        "intersection of the two boundary curves",
    )


def test_c07_trajectory_08_fracture():
    bp = solve_equal_endpoints(TrajectorySpec(0.8))
    check(
        [(abs(bp.p.q1 - 0.769269) < 1e-4, f"fracture {bp.p.q1:.6f} vs 0.769269")],
        "C07",
        "fracture position along total 0.8",
    )


def test_c08_fidelity_between_axis_boundaries():
    f = family_fidelity(StateParams(0.5, 0.0), StateParams(0.67515, 0.0))
    check(
        [(abs(f - 0.968) < 1e-3, f"fidelity {f:.4f} vs 0.968")],
        "C08",
        "fidelity between the axis boundary states",
    )


def test_c09_area_fraction_at_resolution_400():
    start = time.monotonic()
    grid = sweep(resolution=400, theta_grid=512, threads=None)
    elapsed = time.monotonic() - start
    frac = grid.area_fraction_interior
    unresolved_frac = grid.unresolved_cells / len(grid.cells)
    check(
        [
            (0.005 <= frac <= 0.02, f"interior fraction {frac:.4f} outside [0.005, 0.02]"),
            (unresolved_frac < 1e-3, f"unresolved fraction {unresolved_frac:.5f}"),
            (elapsed <= 600.0, f"sweep took {elapsed:.0f}s, budget 600s"),
        ],
        "C09",
        f"variable-angle area fraction at resolution 400 ({elapsed:.0f}s)",
    )


def test_c10_variable_angle_axis_span():
    hp = solve_halfpi_boundary(TrajectorySpec.on_axis()).p.q1
    span = hp - 0.5
    check(
        [(abs(span - 0.17515) < 2e-4, f"axis span {span:.5f} vs 0.17515")],
        "C10",
        "length of the variable-angle window on the axis",
    )


def test_c11_zero_bifurcation_roots():
    points = zero_boundary_axis()
    checks = []
    for bp in points:
        checks.append(
            (
                bp.residual < 1e-10,
                f"curvature residual {bp.residual:.2e} at ({bp.p.q1}, {bp.p.q2})",
            )
        )
    roots = {max(bp.p.q1, bp.p.q2) for bp in points}
    checks.append((roots == {0.5, 1.0}, f"root set {roots} vs {{0.5, 1.0}}"))
    check(checks, "C11", "axis curvature roots at weights 1/2 and 1")


def test_c12_oracle_equivalence_sweep():
    _, worst_closed = equivalence_sweep(30)

    worst_phi = 0.0
    rng = np.random.default_rng(42)
    for q1, q2 in triangle_samples(1000, seed=42):
        p = StateParams(q1, q2)
        theta = rng.random() * HALF_PI
        vals = [
            oracle_post_entropy(p, theta, phi)
            for phi in (0.0, math.pi / 3, HALF_PI, 1.7, 3.1)
        ]
        worst_phi = max(worst_phi, max(vals) - min(vals))

    check(
        [
            (worst_closed < 1e-10, f"closed-form vs oracle deviation {worst_closed:.2e}"),
            (worst_phi < 1e-10, f"azimuthal-angle dependence {worst_phi:.2e}"),
        ],
        "C12",
        "dense-matrix oracle equivalence and azimuthal independence",
    )


def test_c13_global_minimum_correctness():
    worst = 0.0
    for q1, q2 in triangle_samples(500, seed=777):
        p = StateParams(q1, q2)
        dev = abs(one_way_deficit(p).delta - brute_force_deficit(p))
        worst = max(worst, dev)
    check(
        [(worst < 1e-8, f"worst deviation from grid minimum {worst:.2e}")],
        "C13",
        "piecewise minimization vs 4096-point brute force on 500 states",
    )


def test_c14_naive_rule_counterexample():
    best_gap = 0.0
    best_q1 = None
    for q1 in np.arange(0.7195, 0.7245, 2e-5):
        p = StateParams(q1, 0.75 - q1)
        gap = naive_deficit(p).delta - one_way_deficit(p).delta
        if gap > best_gap:
            best_gap, best_q1 = gap, q1
    check(
        [
            (
                best_gap > 1e-3,
                f"max naive overshoot {best_gap:.2e} bits at q1 {best_q1:.5f}, "
                f"required > 1e-3",
            )
        ],
        "C14",
        "counterexample certificate against the endpoint-curvature rule",
    )


def test_c15_symmetry_and_stationarity_suites():
    checks = []

    qs = triangle_samples(10_000, seed=7)
    rng = np.random.default_rng(11)
    thetas = rng.random(10_000) * HALF_PI
    worst_norm = max(
        abs(post_spectrum(StateParams(q1, q2), t).sum() - 1.0)
        for (q1, q2), t in zip(qs, thetas)
    )
    checks.append((worst_norm < 1e-10, f"spectrum normalization {worst_norm:.2e}"))

    worst_sym = 0.0
    for q1, q2 in triangle_samples(200, seed=5):
        p = StateParams(q1, q2)
        t = float(rng.random()) * HALF_PI
        worst_sym = max(worst_sym, abs(post_entropy(p, t) - post_entropy(p.swapped(), t)))
    checks.append((worst_sym < 1e-12, f"exchange symmetry {worst_sym:.2e}"))

    worst_deficit_sym = 0.0
    neg = 0.0
    for q1, q2 in triangle_samples(60, seed=15):
        p = StateParams(q1, q2)
        a = one_way_deficit(p).delta
        b = one_way_deficit(p.swapped()).delta
        worst_deficit_sym = max(worst_deficit_sym, abs(a - b))
        neg = min(neg, a)
    checks.append((worst_deficit_sym < 1e-10, f"deficit symmetry {worst_deficit_sym:.2e}"))
    checks.append((neg >= -1e-10, f"deficit nonnegativity, min {neg:.2e}"))

    h = 1e-5
    worst_slope = 0.0
    sample = triangle_samples(60, seed=3)
    sample = sample[(sample.sum(axis=1) > 0.05) & (sample.sum(axis=1) < 0.95)]
    for q1, q2 in sample:
        p = StateParams(q1, q2)
        d0 = abs(post_entropy(p, h) - post_entropy(p, -h)) / (2 * h)
        dp = abs(post_entropy(p, HALF_PI + h) - post_entropy(p, HALF_PI - h)) / (2 * h)
        worst_slope = max(worst_slope, d0, dp)
    checks.append((worst_slope < 1e-6, f"endpoint stationarity {worst_slope:.2e}"))

    check(checks, "C15", "symmetry, normalization, nonnegativity, stationarity")


def test_c16_continuity_with_angle_jump():
    # branch-switching window of the trajectory; the final 0.005 before the
    # axis contact is excluded since d(delta)/dq1 there grows like log(1/q2)
    # from the pre-measured entropy, independent of any branch switch
    q1s = np.arange(0.70, 0.745, 1e-4)
    deltas = np.array(
        [one_way_deficit(StateParams(q1, 0.75 - q1)).delta for q1 in q1s]
    )
    max_step = float(np.max(np.abs(np.diff(deltas))))

    boundary = 0.721590
    left = one_way_deficit(StateParams(boundary - 5e-5, 0.75 - boundary + 5e-5))
    right = one_way_deficit(StateParams(boundary + 5e-5, 0.75 - boundary - 5e-5))
    angle_jump = right.optimal_theta - left.optimal_theta

    check(
        [
            (max_step < 1e-3, f"max deficit step {max_step:.2e} at 1e-4 sampling"),
            (left.optimal_theta < 1e-6, f"left optimal angle {left.optimal_theta:.2e}"),
            (angle_jump >= 1.0, f"optimal-angle jump {angle_jump:.4f} rad, required >= 1.0"),
        ],
        "C16",
        "deficit continuity with a finite optimal-angle jump",
    )
