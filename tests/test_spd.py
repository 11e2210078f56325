"""SPD algebra: covariance, eigendecomposition, log/exp, geodesic
distance, centering identities."""

import numpy as np
import pytest

from spdbci.errors import DegenerateInput, DimensionMismatch, NotPositiveDefinite
from spdbci.spd import (
    airm_distance,
    centering_matrix,
    check_psd_theorem1,
    covariance,
    double_center,
    spd_exp,
    spd_log,
    sym_eig,
)

from conftest import random_spd


class TestCovariance:
    def test_zero_window_gives_scaled_identity(self):
        out = covariance(np.zeros((3, 10)), shrinkage=1e-4)
        assert np.allclose(out, 1e-4 * np.eye(3), atol=0, rtol=0)

    def test_duplicated_rows_degenerate_without_shrinkage(self):
        row = np.random.default_rng(0).standard_normal(50)
        window = np.stack([row, row, row])
        with pytest.raises(DegenerateInput):
            covariance(window, shrinkage=0.0)

    def test_independent_noise_near_identity(self):
        rng = np.random.default_rng(42)
        window = rng.standard_normal((2, 100_000))
        cov = covariance(window, shrinkage=0.0)
        assert abs(cov[0, 1]) < 0.02
        assert abs(cov[0, 0] - 1.0) < 0.02
        assert abs(cov[1, 1] - 1.0) < 0.02

    def test_shrinkage_restores_spd(self):
        row = np.ones(20)
        window = np.stack([row, 2 * row])
        out = covariance(window, shrinkage=1e-3)
        assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_batch_equals_stacked_2d_calls(self):
        windows = np.random.default_rng(5).standard_normal((3, 4, 5, 40))
        shrinkage = np.linspace(0.0, 1e-2, 12).reshape(3, 4)
        batch = covariance(windows, shrinkage)
        assert batch.shape == (3, 4, 5, 5)
        for i in range(3):
            for j in range(4):
                one = covariance(windows[i, j], float(shrinkage[i, j]))
                assert np.array_equal(batch[i, j], one)
        scalar = covariance(windows, 1e-3)
        assert np.array_equal(scalar[2, 1], covariance(windows[2, 1], 1e-3))

    def test_batch_with_one_degenerate_window_raises(self):
        windows = np.random.default_rng(6).standard_normal((4, 3, 50))
        windows[2, 1] = windows[2, 0]
        with pytest.raises(DegenerateInput):
            covariance(windows, shrinkage=0.0)
        shrinkage = np.zeros(4)
        shrinkage[2] = 1e-3
        assert np.all(np.linalg.eigvalsh(covariance(windows, shrinkage)) > 0)

    def test_shrinkage_shape_must_match_batch(self):
        windows = np.zeros((4, 3, 50))
        with pytest.raises(DimensionMismatch):
            covariance(windows, np.full(3, 1e-3))

    def test_window_without_samples_rejected(self):
        with pytest.raises(DimensionMismatch):
            covariance(np.zeros((2, 3, 0)), 1e-3)


class TestSymEig:
    def test_diagonal(self):
        w, u = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_identity(self):
        w, _ = sym_eig(np.eye(4))
        assert np.allclose(w, np.ones(4))

    def test_reconstruction(self, rng):
        x = random_spd(rng, 6) - 6 * np.eye(6)  # generic symmetric
        w, u = sym_eig(x)
        assert np.linalg.norm(x - u @ np.diag(w) @ u.T) < 1e-9
        assert np.linalg.norm(u.T @ u - np.eye(6)) < 1e-9
        assert np.all(np.diff(w) <= 0)  # descending

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(NotPositiveDefinite):
            sym_eig(rng.standard_normal((4, 4)))


class TestLogExp:
    def test_log_identity_is_zero(self):
        assert np.allclose(spd_log(np.eye(5)), 0.0)

    def test_diagonal_closed_form(self):
        x = np.diag([np.e**2, np.e])
        assert np.allclose(spd_log(x), np.diag([2.0, 1.0]))

    def test_round_trip(self, rng):
        x = random_spd(rng, 8)
        back = spd_exp(spd_log(x))
        assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-8

    def test_round_trip_other_direction(self, rng):
        v = rng.standard_normal((6, 6))
        v = 0.5 * (v + v.T)
        back = spd_log(spd_exp(v))
        assert np.linalg.norm(back - v) / max(np.linalg.norm(v), 1.0) < 1e-8

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_log(np.diag([1.0, -1.0]))


class TestAirm:
    def test_self_distance_zero(self, rng):
        x = random_spd(rng, 5)
        assert airm_distance(x, x) < 1e-10

    def test_diagonal_closed_form(self):
        assert abs(airm_distance(np.diag([np.e, 1.0]), np.eye(2)) - 1.0) < 1e-12

    def test_symmetry(self, rng):
        x, y = random_spd(rng, 5), random_spd(rng, 5)
        assert abs(airm_distance(x, y) - airm_distance(y, x)) < 1e-10

    def test_affine_invariance(self, rng):
        x, y = random_spd(rng, 5), random_spd(rng, 5)
        a = rng.standard_normal((5, 5)) + 2 * np.eye(5)
        d1 = airm_distance(x, y)
        d2 = airm_distance(a @ x @ a.T, a @ y @ a.T)
        assert abs(d1 - d2) < 1e-8

    def test_indiscernibles(self, rng):
        x = random_spd(rng, 4)
        y = x + 1e-12 * np.eye(4)
        assert airm_distance(x, y) < 1e-8
        z = random_spd(rng, 4)
        if np.linalg.norm(x - z) > 1e-8:
            assert airm_distance(x, z) > 1e-8

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            airm_distance(random_spd(rng, 3), random_spd(rng, 4))


class TestCentering:
    def test_n2_closed_form(self):
        assert np.allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_annihilates_ones(self):
        h = centering_matrix(7)
        assert np.allclose(h @ np.ones(7), 0.0)

    def test_idempotent(self):
        h = centering_matrix(10)
        assert np.max(np.abs(h @ h - h)) < 1e-12


class TestPsdCheck:
    def test_equal_matrices_give_zero(self, rng):
        pts = rng.standard_normal((5, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        assert abs(check_psd_theorem1(d, d)) < 1e-12

    def test_embeddings_of_common_points(self, rng):
        pts = rng.standard_normal((6, 3))
        g = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        contracted = pts @ q @ np.diag([1.0, 0.8, 0.5])
        d = np.linalg.norm(contracted[:, None] - contracted[None, :], axis=-1)
        assert check_psd_theorem1(g, d) >= -1e-8

    def test_nonmetric_counterexample_is_diagnostic(self):
        # G violates the triangle inequality: d(0,2) >> d(0,1) + d(1,2)
        g = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        d = np.zeros((3, 3))
        assert check_psd_theorem1(g, d) < 0  # allowed, recorded, not an error

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            check_psd_theorem1(np.zeros((2, 2)), np.zeros((3, 3)))


def test_double_center_row_sums_vanish(rng):
    d = np.abs(rng.standard_normal((6, 6)))
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    gamma = double_center(d**2)
    assert np.allclose(gamma.sum(axis=0), 0.0, atol=1e-10)
    assert np.allclose(gamma, gamma.T)
