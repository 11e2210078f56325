"""SPD algebra: covariance, log/exp and inverse root, the positivity
guards, geodesic distance, and the centered inner-product matrix."""

import numpy as np
import pytest
from scipy import linalg

from spdbci.errors import DimensionMismatch, NotPositiveDefinite, ShapeMismatch
from spdbci.selection import gamma
from spdbci.spd import (
    SHRINKAGE_SCALE,
    SMALL_ORDER,
    SPD_RTOL,
    airm_distance,
    check_spd,
    covariance,
    eig_fn,
    inv_sqrtm,
    pack,
    packed_layout,
    packed_order,
    spd_exp,
    spd_log,
    sym,
    transposed,
    unpack,
)

from conftest import airm_distance_eigh, check_psd_theorem1, covariance_oracle, pad, random_spd


def full_covariance(padded):
    """:func:`covariance`'s packed rows as full (..., M, M) matrices."""
    return unpack(covariance(padded))


class TestCovariance:
    @staticmethod
    def raw_covariance(window):
        z = window - window.mean(axis=-1, keepdims=True)
        return z @ np.swapaxes(z, -1, -2) / window.shape[-1]

    def test_zero_window_gives_scaled_identity(self):
        out = full_covariance(pad(np.zeros((3, 10))))
        assert np.array_equal(out, 1e-12 * np.eye(3))

    def test_shrinkage_is_scaled_trace_of_raw_covariance(self):
        window = np.random.default_rng(1).standard_normal((5, 40)) * [[1], [2], [3], [4], [5]]
        raw = self.raw_covariance(window)
        shrink = full_covariance(pad(window)) - raw
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
        check_spd(full_covariance(pad(window)))

    def test_independent_noise_near_identity(self):
        rng = np.random.default_rng(42)
        window = rng.standard_normal((2, 100_000))
        cov = full_covariance(pad(window))
        assert abs(cov[0, 1]) < 0.02
        assert abs(cov[0, 0] - 1.0) < 0.02
        assert abs(cov[1, 1] - 1.0) < 0.02

    def test_shrinkage_restores_spd(self):
        row = np.ones(20)
        window = np.stack([row, 2 * row])
        out = full_covariance(pad(window))
        assert np.all(np.linalg.eigvalsh(out) > 0)

    def test_batch_equals_stacked_2d_calls(self):
        for m in (5, 22):
            windows = np.random.default_rng(5).standard_normal((3, 4, m, 40))
            batch = covariance(pad(windows))
            assert batch.shape == (3, 4, m * (m + 1) // 2)
            for i in range(3):
                for j in range(4):
                    assert np.array_equal(batch[i, j], covariance(pad(windows[i, j])))
            batch = unpack(batch)
            assert np.array_equal(batch, np.swapaxes(batch, -1, -2))
            check_spd(batch)

    def test_batch_with_one_degenerate_window_is_spd(self):
        windows = np.random.default_rng(6).standard_normal((5, 3, 50))
        windows[2, 1] = windows[2, 0]
        windows[3] = 0.0
        windows[4] += [[1e6], [-2e6], [0.0]]  # centred, not folded
        assert np.linalg.matrix_rank(self.raw_covariance(windows[2])) == 2
        batch = full_covariance(pad(windows))
        for i in range(5):
            assert np.array_equal(batch[i], full_covariance(pad(windows[i])))
        check_spd(batch)

    @pytest.mark.parametrize("ratio", [0.0, 9.0, 1e2, 1e4, 1e6, 1e8])
    def test_row_offsets_match_the_two_pass_oracle(self, ratio):
        """Noise plus a per-row offset of ``ratio`` times the row's
        standard deviation: 9 is folded, 1e2 and more are centred."""
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((4, 6, 200)) * rng.uniform(0.1, 10.0, (4, 6, 1))
        sign = rng.choice([-1.0, 1.0], (4, 6, 1))
        windows = noise + ratio * sign * noise.std(axis=-1, keepdims=True)
        out = full_covariance(pad(windows))
        raw = self.raw_covariance(windows)
        eps = np.maximum(SHRINKAGE_SCALE * np.trace(raw, axis1=-2, axis2=-1) / 6, 1e-12)
        oracle = raw + eps[:, None, None] * np.eye(6)
        for k in range(4):
            assert np.max(np.abs(out[k] - oracle[k])) <= 1e-12 * np.max(np.abs(oracle[k]))
        check_spd(out)

    @pytest.mark.parametrize("m, length", [(6, 200), (1, 200), (6, 1), (1, 1), (2, 200),
                                           (8, 125), (22, 250)])
    def test_padded_buffer_gives_the_oracle_bits(self, m, length):
        """Windows filtered into the first M rows of an (..., M + 1, L)
        buffer give bit for bit the plain-numpy oracle's covariances and
        each window's own 2-D call, every one exactly symmetric: folded
        rows (offset ratio 9), centred rows (1e4) and a zero window
        together.  The windows are not written, and the scratch row,
        NaN before the call, holds ones after it."""
        rng = np.random.default_rng(9)
        noise = rng.standard_normal((3, 2, m, length)) * rng.uniform(0.1, 10.0, (3, 2, m, 1))
        sign = rng.choice([-1.0, 1.0], (3, 2, m, 1))
        ratio = np.array([9.0, 1e4, 0.0])[:, None, None, None]
        windows = noise + ratio * sign * noise.std(axis=-1, keepdims=True)
        windows[2, 1] = 0.0
        padded = np.full((3, 2, m + 1, length), np.nan)
        padded[..., :m, :] = windows
        packed = covariance(padded)
        oracle = covariance_oracle(windows)
        assert packed.tobytes() == pack(oracle).tobytes()
        out = unpack(packed)
        assert out.tobytes() == oracle.tobytes()
        for i in range(3):
            for j in range(2):
                assert full_covariance(pad(windows[i, j])).tobytes() == out[i, j].tobytes()
        assert np.array_equal(out, np.swapaxes(out, -1, -2))
        assert np.array_equal(padded[..., :m, :], windows)
        assert np.all(padded[..., m, :] == 1.0)
        assert np.array_equal(out[2, 1], 1e-12 * np.eye(m))
        check_spd(out)

    def test_constant_offset_window_is_scaled_identity(self):
        # folded, this window's covariance has the eigenvalue -2.6e-10
        window = np.stack([np.full(20, 1000.1), np.full(20, 2000.5)])
        out = full_covariance(pad(window))
        assert np.allclose(out, 1e-12 * np.eye(2), rtol=0, atol=1e-24)
        check_spd(out)

    def test_window_without_samples_rejected(self):
        with pytest.raises(DimensionMismatch):
            covariance(pad(np.zeros((2, 3, 0))))
        with pytest.raises(DimensionMismatch):
            covariance(pad(np.zeros((2, 0, 5))))
        with pytest.raises(DimensionMismatch):
            covariance(np.zeros(5))


class TestPackedLayout:
    """A symmetric M x M matrix is stored as its M(M + 1)/2 entries on
    and above the diagonal, row by row."""

    def test_layout_of_three_channels(self):
        full = np.arange(9.0).reshape(3, 3)
        layout = packed_layout(3)
        assert pack(full).tolist() == [0.0, 1.0, 2.0, 4.0, 5.0, 8.0]
        assert layout.rows.tolist() == [0, 0, 0, 1, 1, 2]
        assert layout.cols.tolist() == [0, 1, 2, 1, 2, 2]
        assert layout.diag.tolist() == [0, 3, 5]
        assert layout.full.tolist() == [[0, 1, 2], [1, 3, 4], [2, 4, 5]]
        # (i, j) and (j, i) in the (3, 4) Gram product of covariance
        assert layout.gram.tolist() == [[0, 1, 2, 5, 6, 10], [0, 4, 8, 5, 9, 10]]

    @pytest.mark.parametrize("m", [1, 2, 8, 22, 64])
    def test_round_trip(self, m):
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((3, 2, m * (m + 1) // 2))
        full = unpack(rows)
        assert full.shape == (3, 2, m, m)
        assert np.array_equal(full, np.swapaxes(full, -1, -2))
        assert pack(full).tobytes() == rows.tobytes()
        i, j = np.triu_indices(m)
        assert full[..., i, j].tobytes() == rows.tobytes()
        sym_full = random_spd(rng, m, batch=4)
        sym_full = sym_full + np.swapaxes(sym_full, -1, -2)
        assert unpack(pack(sym_full)).tobytes() == sym_full.tobytes()

    def test_layout_is_built_once_and_read_only(self):
        layout = packed_layout(5)
        assert packed_layout(5) is layout
        for index in layout:
            with pytest.raises(ValueError):
                index[...] = 0

    @pytest.mark.parametrize("width, m", [(1, 1), (3, 2), (6, 3), (10, 4), (253, 22),
                                          (2080, 64)])
    def test_packed_order(self, width, m):
        assert packed_order(width) == m

    @pytest.mark.parametrize("width", [0, 2, 4, 5, 7, 252, 254, 2079])
    def test_width_of_no_channel_count_raises_typed_error(self, width):
        with pytest.raises(ShapeMismatch, match=f"{width} is not the packed width"):
            packed_order(width)
        with pytest.raises(ShapeMismatch):
            unpack(np.zeros((2, width)))


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
        with pytest.raises(NotPositiveDefinite, match="spd_log"):
            spd_log(np.diag([1.0, -1.0]))

    def test_log_rejects_spectrum_below_relative_floor(self):
        with pytest.raises(NotPositiveDefinite, match="spd_log"):
            spd_log(np.diag([1.0, 0.5 * SPD_RTOL]))

    def test_exp_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite, match="spd_exp"):
            spd_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_inv_sqrtm_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite, match="inv_sqrtm"):
            inv_sqrtm(np.stack([np.eye(2), np.diag([1.0, -1.0])]))


class TestSmallOrderGlue:
    """The contiguous transpose, and the eigenvalue function built with
    it, give the bits of their ``swapaxes`` forms."""

    @staticmethod
    def _inputs(rng, m):
        """Batched, unbatched and non-contiguous m x m inputs."""
        big = rng.standard_normal((3, 4, 2 * m, 2 * m))
        return {
            "batched": big[..., :m, :m].copy(),
            "unbatched": big[0, 0, :m, :m].copy(),
            "strided": big[:, ::2, ::2, ::2],
            "transposed": np.swapaxes(big[1, :, m:, m:], -1, -2),
        }

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 22])
    def test_transposed_is_swapaxes_byte_for_byte(self, rng, m):
        """A C-contiguous copy up to ``SMALL_ORDER``, the view above it."""
        for name, x in self._inputs(rng, m).items():
            want = np.swapaxes(x, -1, -2)
            got = transposed(x)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            if m <= SMALL_ORDER:
                assert got.flags.c_contiguous and not np.shares_memory(got, x), name
            else:
                assert got.base is not None and np.shares_memory(got, x), name

    @pytest.mark.parametrize("m", [1, 2, 5, SMALL_ORDER, SMALL_ORDER + 1, 22])
    @pytest.mark.parametrize("batch", [(), (64,), (2, 9)], ids=["one", "stack", "two-axes"])
    def test_eig_fn_gives_the_bits_of_the_view_product(self, rng, m, batch):
        x = random_spd(rng, m, batch=int(np.prod(batch))).reshape(batch + (m, m))
        out, w, u = eig_fn(x, np.log)
        want = (u * np.log(w)[..., None, :]) @ np.swapaxes(u, -1, -2)
        assert out.tobytes() == want.tobytes()


class TestCheckSpd:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch, match="probe must be square"):
            check_spd(np.zeros((2, 3)), "probe")

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite, match="probe is not symmetric"):
            check_spd(np.array([[2.0, 1.0], [0.0, 2.0]]), "probe")

    def test_rejects_spectrum_below_relative_floor(self):
        with pytest.raises(NotPositiveDefinite, match="probe is not positive definite"):
            check_spd(np.diag([1.0, 0.5 * SPD_RTOL]), "probe")


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

    def test_matches_eigh_whitening(self, rng):
        for _ in range(5):
            x, y = random_spd(rng, 6), random_spd(rng, 6)
            assert abs(airm_distance(x, y) - airm_distance_eigh(x, y)) < 1e-12

    def test_whitened_pair_past_relative_floor(self):
        # x and y are each SPD to SPD_RTOL, but their whitened pair
        # diag(1e-7, 1e7) is conditioned far past 1 / SPD_RTOL
        x, y = np.diag([1e7, 1.0]), np.diag([1.0, 1e7])
        assert abs(airm_distance(x, y) - np.sqrt(2.0) * np.log(1e7)) < 1e-12


class TestGamma:
    def test_n2_closed_form(self):
        assert np.allclose(gamma(np.array([[0.0, 2.0], [2.0, 0.0]])), [[1.0, -1.0], [-1.0, 1.0]])

    def test_euclidean_distances_give_centred_gram(self, rng):
        pts = rng.standard_normal((10, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        centred = pts - pts.mean(axis=0)
        assert np.max(np.abs(gamma(d) - centred @ centred.T)) < 1e-12


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


def test_gamma_row_sums_vanish(rng):
    d = np.abs(rng.standard_normal((6, 6)))
    d = d + d.T
    np.fill_diagonal(d, 0.0)
    g = gamma(d)
    assert np.allclose(g.sum(axis=0), 0.0, atol=1e-10)
    assert np.allclose(g, g.T)
