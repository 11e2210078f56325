"""SPD algebra: covariance, log/exp and inverse root, geodesic distance,
centering identities."""

import numpy as np
import pytest
from scipy import linalg

from spdbci.errors import DimensionMismatch, NotPositiveDefinite
from spdbci.spd import (
    SHRINKAGE_SCALE,
    airm_distance,
    check_spd,
    centering_matrix,
    covariance,
    double_center,
    inv_sqrtm,
    spd_exp,
    spd_log,
    sym,
)

from conftest import check_psd_theorem1, random_spd


class TestCovariance:
    @staticmethod
    def raw_covariance(window):
        z = window - window.mean(axis=-1, keepdims=True)
        return z @ np.swapaxes(z, -1, -2) / window.shape[-1]

    def test_zero_window_gives_scaled_identity(self):
        out = covariance(np.zeros((3, 10)))
        assert np.array_equal(out, 1e-12 * np.eye(3))

    def test_shrinkage_is_scaled_trace_of_raw_covariance(self):
        window = np.random.default_rng(1).standard_normal((5, 40)) * [[1], [2], [3], [4], [5]]
        raw = self.raw_covariance(window)
        shrink = covariance(window) - raw
        eps = SHRINKAGE_SCALE * np.trace(raw) / 5
        assert SHRINKAGE_SCALE == 1e-4
        # the subtraction leaves a few ulps of each diagonal entry
        ulps = 4 * np.finfo(float).eps * np.max(np.abs(raw))
        assert np.allclose(np.diag(shrink), eps, rtol=0, atol=ulps)
        assert np.max(np.abs(shrink[~np.eye(5, dtype=bool)])) <= ulps

    def test_duplicated_rows_are_spd(self):
        row = np.random.default_rng(0).standard_normal(50)
        window = np.stack([row, row, row])
        assert np.linalg.matrix_rank(self.raw_covariance(window)) == 1
        check_spd(covariance(window))

    def test_independent_noise_near_identity(self):
        rng = np.random.default_rng(42)
        window = rng.standard_normal((2, 100_000))
        cov = covariance(window)
        assert abs(cov[0, 1]) < 0.02
        assert abs(cov[0, 0] - 1.0) < 0.02
        assert abs(cov[1, 1] - 1.0) < 0.02

    def test_shrinkage_restores_spd(self):
        row = np.ones(20)
        window = np.stack([row, 2 * row])
        out = covariance(window)
        assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_batch_equals_stacked_2d_calls(self):
        for m in (5, 22):
            windows = np.random.default_rng(5).standard_normal((3, 4, m, 40))
            batch = covariance(windows)
            assert batch.shape == (3, 4, m, m)
            for i in range(3):
                for j in range(4):
                    assert np.array_equal(batch[i, j], covariance(windows[i, j]))
            check_spd(batch)

    def test_batch_with_one_degenerate_window_is_spd(self):
        windows = np.random.default_rng(6).standard_normal((4, 3, 50))
        windows[2, 1] = windows[2, 0]
        windows[3] = 0.0
        assert np.linalg.matrix_rank(self.raw_covariance(windows[2])) == 2
        batch = covariance(windows)
        for i in range(4):
            assert np.array_equal(batch[i], covariance(windows[i]))
        check_spd(batch)

    def test_overwrite_window_centres_in_place(self):
        windows = np.random.default_rng(7).standard_normal((3, 4, 5, 40))
        scratch = windows.copy()
        out = covariance(scratch, overwrite_window=True)
        assert np.array_equal(out, covariance(windows))
        assert np.array_equal(scratch, windows - windows.mean(axis=-1, keepdims=True))

    def test_window_without_samples_rejected(self):
        with pytest.raises(DimensionMismatch):
            covariance(np.zeros((2, 3, 0)))
        with pytest.raises(DimensionMismatch):
            covariance(np.zeros((2, 0, 5)))


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


class TestAgainstScipy:
    """The eigenvalue-function primitive against scipy's independent
    matrix functions (Pade / Schur based, no eigendecomposition)."""

    def test_log(self, rng):
        batch = random_spd(rng, 6, batch=5)
        out = spd_log(batch)
        for x, y in zip(batch, out):
            assert np.linalg.norm(y - linalg.logm(x)) < 1e-10 * np.linalg.norm(y)

    def test_exp(self, rng):
        batch = sym(rng.standard_normal((5, 6, 6)))
        out = spd_exp(batch)
        for v, y in zip(batch, out):
            assert np.linalg.norm(y - linalg.expm(v)) < 1e-10 * np.linalg.norm(y)

    def test_inv_sqrtm(self, rng):
        batch = random_spd(rng, 6, batch=5)
        out = inv_sqrtm(batch)
        for x, y in zip(batch, out):
            ref = linalg.inv(linalg.sqrtm(x))
            assert np.linalg.norm(y - ref) < 1e-10 * np.linalg.norm(ref)


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
