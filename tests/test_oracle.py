import math

import numpy as np
import pytest

from conftest import triangle_samples
from xdeficit import (
    StateParams,
    build_density,
    equivalence_sweep,
    hermitian_eigenvalues,
    oracle_post_entropy,
    post_measured_state,
    post_spectrum,
    projectors,
)

HALF_PI = math.pi / 2


class TestBuildDensity:
    def test_product_state(self):
        rho = build_density(StateParams(0.0, 0.0))
        assert rho == pytest.approx(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    def test_pure_bell_plus(self):
        rho = build_density(StateParams(1.0, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1:3, 1:3] = 0.5
        assert rho == pytest.approx(expected)

    def test_generic_spectrum(self):
        vals = hermitian_eigenvalues(build_density(StateParams(0.3, 0.2)))
        assert vals == pytest.approx([0.5, 0.3, 0.2, 0.0], abs=1e-12)

    def test_hermitian_unit_trace(self):
        rho = build_density(StateParams(0.7, 0.1))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)


class TestProjectors:
    def test_identity_rotation(self):
        p0, p1 = projectors(0.0, 0.0)
        assert p0 == pytest.approx(np.diag([1.0, 0.0]).astype(complex))
        assert p1 == pytest.approx(np.diag([0.0, 1.0]).astype(complex))

    def test_equatorial(self):
        p0, p1 = projectors(HALF_PI, 0.0)
        half = np.full((2, 2), 0.5, dtype=complex)
        assert p0 == pytest.approx(half, abs=1e-15)
        assert p1 == pytest.approx(np.array([[0.5, -0.5], [-0.5, 0.5]]), abs=1e-15)

    def test_projector_algebra_random_angles(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            theta = rng.random() * math.pi
            phi = rng.random() * 2 * math.pi
            p0, p1 = projectors(theta, phi)
            assert np.max(np.abs(p0 + p1 - np.eye(2))) < 1e-12
            assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12
            assert np.max(np.abs(p1 @ p1 - p1)) < 1e-12
            assert np.max(np.abs(p0 @ p1)) < 1e-12
            assert np.max(np.abs(p0 - p0.conj().T)) < 1e-12
            assert np.trace(p0).real == pytest.approx(1.0, abs=1e-12)


class TestPostMeasuredState:
    def test_computational_dephasing(self):
        p = StateParams(0.3, 0.2)
        rho = post_measured_state(build_density(p), 0.0, 0.0)
        s = p.q1 + p.q2
        vals = hermitian_eigenvalues(rho)
        assert vals == pytest.approx([1 - s, s / 2, s / 2, 0.0], abs=1e-12)

    def test_pure_product_unchanged_at_zero(self):
        rho = build_density(StateParams(0.0, 0.0))
        assert post_measured_state(rho, 0.0, 0.0) == pytest.approx(rho, abs=1e-14)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(5)
        for q1, q2 in triangle_samples(50, seed=23):
            theta = rng.random() * math.pi
            phi = rng.random() * 2 * math.pi
            out = post_measured_state(build_density(StateParams(q1, q2)), theta, phi)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestHermitianEigenvalues:
    def test_diagonal_passthrough(self):
        vals = hermitian_eigenvalues(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
        assert vals == pytest.approx([0.5, 0.3, 0.2, 0.0], abs=1e-14)

    def test_descending_order(self):
        vals = hermitian_eigenvalues(np.diag([0.1, 0.4, 0.2, 0.3]).astype(complex))
        assert list(vals) == sorted(vals, reverse=True)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            hermitian_eigenvalues(m)

    def test_rejects_a_matrix_that_is_not_4x4(self):
        with pytest.raises(ValueError, match="4x4"):
            hermitian_eigenvalues(np.eye(3, dtype=complex))

    def test_complex_off_diagonals(self):
        # random Hermitian with genuinely complex entries, checked by trace
        # identities rather than another eigensolver
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        vals = hermitian_eigenvalues(h)
        assert vals.sum() == pytest.approx(np.trace(h).real, abs=1e-10)
        assert (vals**2).sum() == pytest.approx(np.trace(h @ h).real, abs=1e-10)
        assert (vals**3).sum() == pytest.approx(np.trace(h @ h @ h).real, abs=1e-9)

    def test_oracle_cross_check_against_closed_form(self):
        p = StateParams(0.7, 0.05)
        rho = post_measured_state(build_density(p), 0.6, 1.3)
        oracle_vals = hermitian_eigenvalues(rho)
        closed = np.sort(post_spectrum(p, 0.6))[::-1]
        assert oracle_vals == pytest.approx(closed, abs=1e-10)


class TestOraclePostEntropy:
    def test_pure_bell_one_bit(self):
        p = StateParams(1.0, 0.0)
        for theta, phi in ((0.0, 0.0), (0.7, 2.0), (HALF_PI, 5.0)):
            assert oracle_post_entropy(p, theta, phi) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_equatorial(self):
        assert oracle_post_entropy(StateParams(0.0, 0.0), HALF_PI, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_phi_independence(self):
        rng = np.random.default_rng(47)
        for q1, q2 in triangle_samples(60, seed=13):
            p = StateParams(q1, q2)
            theta = rng.random() * HALF_PI
            values = [
                oracle_post_entropy(p, theta, phi)
                for phi in (0.0, math.pi / 3, HALF_PI, 1.7, 3.1)
            ]
            assert max(values) - min(values) < 1e-10

    def test_closed_form_equivalence_grid(self):
        samples, worst = equivalence_sweep(10)
        # 55 lattice states inside the triangle x 8 polar x 4 azimuthal angles
        assert samples == 55 * 8 * 4
        assert worst < 1e-10


class TestEquivalenceSweep:
    def test_random_draws_add_samples(self):
        samples, worst = equivalence_sweep(5, random=37)
        assert samples == 15 * 8 * 4 + 37
        assert worst < 1e-10

    @pytest.mark.parametrize("grid,random", [(0, 0), (-1, 5), (2, -3)])
    def test_rejects_empty_or_negative_counts(self, grid, random):
        with pytest.raises(ValueError):
            equivalence_sweep(grid, random=random)

    def test_seeded_draws_repeat(self):
        assert equivalence_sweep(3, random=40, seed=9) == equivalence_sweep(3, random=40, seed=9)

    def test_seed_changes_the_draws(self):
        # a one-point grid (the origin) leaves the worst deviation to the draws
        assert equivalence_sweep(1, random=40, seed=1) != equivalence_sweep(1, random=40, seed=2)
