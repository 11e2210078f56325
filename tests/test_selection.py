"""Channel selection: distance matrices, the coupling matrix L, the
trace-maximization update, subset recovery, and multi-head transforms."""

import itertools

import numpy as np
import pytest

from spdbci.errors import ConfigError, DimensionMismatch
from spdbci.layers import karcher_mean, random_stiefel
from spdbci.selection import (
    MbtHeads,
    assemble_L,
    fit_selection,
    gamma,
    geodesic_matrix,
    score_channels,
    update_W,
)
from spdbci.spd import airm_distance, spd_log
from spdbci.synth import two_class_covariances

from conftest import (
    assemble_L_loop,
    karcher_mean_iterated,
    random_spd,
    tangent_distance_matrix,
)


class TestDistanceMatrices:
    def test_identical_pair(self, rng):
        x = random_spd(rng, 4)
        assert np.allclose(geodesic_matrix(np.stack([x, x])), 0.0)

    def test_diagonal_pair_closed_form(self):
        samples = np.stack([np.diag([np.e, 1.0]), np.eye(2)])
        g = geodesic_matrix(samples)
        assert abs(g[0, 1] - 1.0) < 1e-12

    def test_matches_pairwise_recomputation(self, rng):
        samples = random_spd(rng, 4, batch=5)
        g = geodesic_matrix(samples)
        for i in range(5):
            for j in range(5):
                assert abs(g[i, j] - airm_distance(samples[i], samples[j])) < 1e-12

    def test_tangent_identity_projection_is_log_euclidean(self, rng):
        samples = random_spd(rng, 4, batch=4)
        d = tangent_distance_matrix(samples, np.eye(4))
        logs = spd_log(samples)
        for i in range(4):
            for j in range(4):
                assert abs(d[i, j] - np.linalg.norm(logs[i] - logs[j])) < 1e-10

    def test_commuting_pair_distances_coincide(self):
        samples = np.stack([np.diag([np.e, 1.0]), np.eye(2)])
        d = tangent_distance_matrix(samples, np.eye(2))
        assert abs(d[0, 1] - 1.0) < 1e-12

    def test_projection_contracts(self, rng):
        samples = random_spd(rng, 6, batch=5)
        w = random_stiefel(rng, 6, 3)
        d = tangent_distance_matrix(samples, w)
        full = tangent_distance_matrix(samples, np.eye(6))
        assert np.all(d <= full + 1e-10)


class TestGamma:
    def test_zero_distances(self):
        assert np.allclose(gamma(np.zeros((3, 3))), 0.0)

    def test_two_points_on_a_line(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(gamma(d), [[0.25, -0.25], [-0.25, 0.25]])

    def test_inner_product_reconstruction(self, rng):
        pts = rng.standard_normal((6, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        g = gamma(d)
        for i in range(6):
            for j in range(6):
                recon = g[i, i] + g[j, j] - 2 * g[i, j]
                assert abs(recon - d[i, j] ** 2) < 1e-10


class TestAssembleL:
    def test_identical_samples_give_zero(self, rng):
        x = random_spd(rng, 4)
        samples = np.stack([x, x, x])
        logs = spd_log(samples)
        gg = gamma(geodesic_matrix(samples))
        assert np.allclose(assemble_L(logs, gg, np.eye(4)[:, :2]), 0.0)

    def test_two_sample_closed_form(self, rng):
        samples = random_spd(rng, 4, batch=2)
        logs = spd_log(samples)
        gg = gamma(geodesic_matrix(samples))
        w = random_stiefel(rng, 4, 2)
        delta = logs[0] - logs[1]
        expected = -2.0 * gg[0, 1] * (delta @ w @ w.T @ delta)
        assert np.max(np.abs(assemble_L(logs, gg, w) - expected)) < 1e-10

    def test_matches_loop_oracle(self, rng):
        samples = random_spd(rng, 4, batch=4)
        logs = spd_log(samples)
        gg = gamma(geodesic_matrix(samples))
        w = random_stiefel(rng, 4, 2)
        fast = assemble_L(logs, gg, w)
        slow = assemble_L_loop(logs, gg, w)
        assert np.max(np.abs(fast - slow)) < 1e-12
        assert np.max(np.abs(fast - fast.T)) < 1e-10

    def test_global_scaling_invariance(self, rng):
        samples = random_spd(rng, 4, batch=3)
        w = random_stiefel(rng, 4, 2)
        gg = gamma(geodesic_matrix(samples))
        l1 = assemble_L(spd_log(samples), gg, w)
        # scaling by c shifts every log by (ln c) I, so deltas are unchanged,
        # and AIRM distances (hence gamma_G) are scale invariant too
        l2 = assemble_L(spd_log(3.0 * samples), gamma(geodesic_matrix(3.0 * samples)), w)
        assert np.max(np.abs(l1 - l2)) < 1e-8


class TestUpdateW:
    def test_top1_of_diagonal(self):
        w = update_W(np.diag([3.0, 2.0, 1.0]), 1)
        assert np.allclose(np.abs(w[:, 0]), [1.0, 0.0, 0.0])
        assert abs(np.trace(w.T @ np.diag([3.0, 2.0, 1.0]) @ w) - 3.0) < 1e-12

    def test_top2_trace(self):
        lm = np.diag([3.0, 2.0, 1.0])
        w = update_W(lm, 2)
        assert abs(np.trace(w.T @ lm @ w) - 5.0) < 1e-12

    def test_rayleigh_dominance(self, rng):
        lm = rng.standard_normal((5, 5))
        lm = lm + lm.T
        w = update_W(lm, 2)
        best = np.trace(w.T @ lm @ w)
        cands, _ = np.linalg.qr(rng.standard_normal((1000, 5, 2)))
        traces = np.einsum("bji,jk,bki->b", cands, lm, cands)
        assert best >= traces.max() - 1e-9


class TestFitSelection:
    def test_full_rank_selects_everything(self, rng):
        samples = random_spd(rng, 4, batch=4)
        result = fit_selection(samples, m=4)
        assert result.selected_channels == [0, 1, 2, 3]

    def test_planted_subset_recovered(self, rng):
        planted = [1, 3, 5]
        cov0, cov1 = two_class_covariances(8, planted=planted, separation=2.0, rng=rng)
        per_class = 40
        samples, labels = [], []
        for label, cov in enumerate((cov0, cov1)):
            chol = np.linalg.cholesky(cov)
            for _ in range(per_class):
                z = chol @ rng.standard_normal((8, 400))
                samples.append(z @ z.T / 400 + 1e-6 * np.eye(8))
                labels.append(label)
        samples = np.stack(samples)
        labels = np.asarray(labels)
        class_means = np.stack([karcher_mean(samples[labels == g]) for g in sorted(set(labels))])
        result = fit_selection(class_means, m=3)
        assert result.selected_channels == planted
        # objective must be non-decreasing within slack
        trace = result.objective_trace
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        # exhaustive oracle: the planted subset maximizes between-class
        # AIRM distance of the restricted class means
        mean0 = karcher_mean_iterated(samples[labels == 0])
        mean1 = karcher_mean_iterated(samples[labels == 1])
        def subset_score(idx):
            sel = np.ix_(idx, idx)
            return airm_distance(mean0[sel], mean1[sel])
        best = max(itertools.combinations(range(8), 3), key=subset_score)
        assert sorted(best) == planted

    def test_m_out_of_range(self, rng):
        with pytest.raises(DimensionMismatch):
            fit_selection(random_spd(rng, 4, batch=3), m=5)

    def test_argmax_scoring_rule(self):
        w = np.array([[0.9, 0.0], [0.1, 0.1], [0.0, 0.95], [0.3, 0.2]])
        assert score_channels(w, 2, rule="argmax") == [0, 2]
        assert score_channels(w, 2, rule="row-norm") == [0, 2]
        with pytest.raises(ConfigError):
            score_channels(w, 2, rule="bogus")


class TestMbtHeads:
    def test_single_identity_head(self, rng):
        """K=1 is the pass-through: no stored head, the batch and its
        gradient go through bit for bit, and the step is a no-op."""
        heads = MbtHeads.initialize(4, k=1, rng=rng)
        assert heads.K == 1 and heads.weights.shape == (0, 4, 4)
        batch = rng.standard_normal((3, 4, 4))
        out = heads.forward(batch)
        assert out.shape == (3, 1, 4, 4)
        assert out[:, 0].tobytes() == batch.tobytes()
        g = rng.standard_normal((3, 1, 4, 4))
        assert heads.backward(g).tobytes() == g[:, 0].tobytes()
        assert heads.grad_weights.shape == (0, 4, 4)
        heads.step(0.05)
        assert heads.weights.shape == (0, 4, 4) and heads.grad_weights is None

    def test_stack_axis_length(self, rng):
        heads = MbtHeads.initialize(3, k=4, rng=rng)
        assert heads.K == 4 and heads.weights.shape == (3, 3, 3)
        out = heads.forward(rng.standard_normal((2, 3, 3)))
        assert out.shape == (2, 4, 3, 3)

    def test_compositional_oracle(self, rng):
        heads = MbtHeads.initialize(5, k=3, rng=rng)
        batch = rng.standard_normal((4, 5, 5))
        stacked = heads.forward(batch)
        assert stacked[:, 0].tobytes() == batch.tobytes()
        for k, w in enumerate(heads.weights, start=1):
            single = np.stack([w.T @ v @ w for v in batch])
            assert stacked[:, k].tobytes() == single.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_backward_matches_per_head_oracle(self, rng, k):
        heads = MbtHeads.initialize(5, k=k, rng=rng)
        batch = rng.standard_normal((4, 5, 5))
        batch = batch + np.swapaxes(batch, 1, 2)
        g = rng.standard_normal((4, k, 5, 5))
        heads.forward(batch)
        gx = heads.backward(g)
        w = np.concatenate([np.eye(5)[None], heads.weights])  # head 0 is I
        want_x = np.stack([sum(w[j] @ g[b, j] @ w[j].T for j in range(k))
                           for b in range(4)])
        want_w = np.array([sum(batch[b] @ w[j] @ (g[b, j] + g[b, j].T) for b in range(4))
                           for j in range(1, k)]).reshape(k - 1, 5, 5)
        assert np.allclose(gx, want_x, rtol=0, atol=1e-12)
        assert heads.grad_weights.shape == want_w.shape
        assert np.allclose(heads.grad_weights, want_w, rtol=0, atol=1e-12)

    def test_input_gradient_fd(self, rng):
        heads = MbtHeads.initialize(5, k=2, rng=rng)
        batch = rng.standard_normal((3, 5, 5))
        batch = batch + np.swapaxes(batch, 1, 2)
        g = rng.standard_normal((3, 2, 5, 5))
        v = rng.standard_normal(batch.shape)
        h = 1e-6
        num = (np.sum(heads.forward(batch + h * v) * g)
               - np.sum(heads.forward(batch - h * v) * g)) / (2 * h)
        heads.forward(batch)
        gx = heads.backward(g)
        assert abs(num - np.sum(gx * v)) / abs(num) < 1e-6

    def test_weight_gradient_fd(self, rng):
        heads = MbtHeads.initialize(5, k=3, rng=rng)
        batch = rng.standard_normal((3, 5, 5))
        batch = batch + np.swapaxes(batch, 1, 2)
        g = rng.standard_normal((3, 3, 5, 5))
        dw = rng.standard_normal(heads.weights.shape)
        w0, h = heads.weights.copy(), 1e-6
        heads.weights = w0 + h * dw
        plus = np.sum(heads.forward(batch) * g)
        heads.weights = w0 - h * dw
        minus = np.sum(heads.forward(batch) * g)
        heads.weights = w0
        heads.forward(batch)
        heads.backward(g)
        assert heads.grad_weights.shape == (2, 5, 5)  # heads 1..K-1
        num = (plus - minus) / (2 * h)
        assert abs(num - np.sum(heads.grad_weights * dw)) / abs(num) < 1e-6
