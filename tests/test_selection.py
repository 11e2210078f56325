"""Channel selection: distance matrices, the coupling matrix L, the
trace-maximization update, subset recovery, and multi-head transforms."""

import itertools

import numpy as np
import pytest

from spdbci import selection
from spdbci.errors import ConfigError, ConvergenceFailure, DimensionMismatch, MissingForwardCache
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
    airm_distance_eigh,
    assemble_L_loop,
    karcher_mean_iterated,
    random_spd,
    tangent_distance_matrix,
)


class TestDistanceMatrices:
    def test_one_sample_rejected(self, rng):
        with pytest.raises(DimensionMismatch, match="two samples"):
            geodesic_matrix(random_spd(rng, 4, batch=1))

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
                assert abs(g[i, j] - airm_distance_eigh(samples[i], samples[j])) < 1e-12

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
    def test_mis_sized_gamma_rejected(self, rng):
        samples = random_spd(rng, 4, batch=3)
        with pytest.raises(DimensionMismatch, match="gamma_G"):
            assemble_L(spd_log(samples), np.zeros((2, 2)), np.eye(4)[:, :2])

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

    @pytest.mark.parametrize("big_m, n, m", [(4, 4, 2), (22, 18, 5), (16, 36, 4)],
                             ids=["toy", "select-22ch", "four-class"])
    def test_matches_loop_oracle(self, rng, big_m, n, m):
        """The factored products against the pairwise sum, at a toy shape,
        the select-22ch shape (2 classes x 9 bands) and a 4-class one."""
        samples = random_spd(rng, big_m, batch=n)
        logs = spd_log(samples)
        gg = gamma(geodesic_matrix(samples))
        w = random_stiefel(rng, big_m, m)
        fast = assemble_L(logs, gg, w)
        slow = assemble_L_loop(logs, gg, w)
        assert np.max(np.abs(fast - slow)) < 1e-12
        assert np.max(np.abs(fast - fast.T)) < 1e-10

    def test_common_log_component_cancels_exactly(self, rng):
        """With a log common to every sample, far larger than their
        spread, L stays as the pairwise sum of differences gives it: the
        expanded products do not cancel that part in round-off."""
        samples = random_spd(rng, 6, batch=8)
        logs = spd_log(samples)
        gg = gamma(geodesic_matrix(samples))
        w = random_stiefel(rng, 6, 3)
        logs = logs + 1e3 * spd_log(random_spd(rng, 6))
        want = assemble_L_loop(logs, gg, w)
        got = assemble_L(logs, gg, w)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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

    def test_one_sample_rejected(self, rng):
        with pytest.raises(DimensionMismatch, match="two samples"):
            fit_selection(random_spd(rng, 4, batch=1), m=2)

    def test_objective_decrease_raises_convergence_failure(self, rng, monkeypatch):
        """An update that lowers the trace objective, here one that takes
        the bottom subspace from the second iteration on, stops the fit
        typed instead of returning its picks."""
        calls = []

        def worsening(l_matrix, m):
            calls.append(1)
            return update_W(l_matrix, m) if len(calls) == 1 else np.linalg.eigh(l_matrix)[1][:, :m]

        monkeypatch.setattr(selection, "update_W", worsening)
        with pytest.raises(ConvergenceFailure, match="objective decreased"):
            fit_selection(random_spd(rng, 6, batch=5), m=2)
        assert len(calls) == 2

    def test_no_iteration_is_a_config_error(self, rng):
        with pytest.raises(ConfigError):
            fit_selection(random_spd(rng, 4, batch=3), m=2, max_iters=0)

    def test_matches_loop_oracle_fit(self, rng, monkeypatch):
        """A fit on the pairwise-sum L picks the same channels after the
        same number of iterations, along the same objective trace."""
        samples = random_spd(rng, 10, batch=8)
        fast = fit_selection(samples, m=3)
        monkeypatch.setattr(selection, "assemble_L", assemble_L_loop)
        slow = fit_selection(samples, m=3)
        assert fast.iterations_run > 2
        assert fast.selected_channels == slow.selected_channels
        assert fast.iterations_run == slow.iterations_run
        assert np.allclose(fast.objective_trace, slow.objective_trace, rtol=1e-10, atol=0)
        assert fast.final_drift == pytest.approx(slow.final_drift, rel=1e-6)

    @pytest.mark.parametrize("capped", [True, False], ids=["capped", "converged"])
    def test_one_assembly_per_iteration(self, rng, monkeypatch, capped):
        """Each iteration assembles L once, the last included: no L is
        assembled that no update reads.  ``final_drift`` is the last
        iteration's drift, below the default ``tol`` exactly when the fit
        stopped on it."""
        if capped:
            samples, max_iters = random_spd(rng, 10, batch=8), 3
        else:
            samples, max_iters = np.stack(two_class_covariances(8, [1, 3, 5], rng=rng)), 20
        calls = []

        def counting(*args):
            calls.append(1)
            return assemble_L(*args)

        monkeypatch.setattr(selection, "assemble_L", counting)
        result = fit_selection(samples, m=3, max_iters=max_iters)
        assert len(calls) == result.iterations_run == len(result.objective_trace)
        assert (result.iterations_run == max_iters) == capped
        assert (result.final_drift >= 1e-6) == capped

    def test_row_norm_scoring_rule(self):
        w = np.array([[0.9, 0.0], [0.1, 0.1], [0.0, 0.95], [0.3, 0.2]])
        assert score_channels(w, 2) == [0, 2]

    @pytest.mark.parametrize("scoring", ["argmax", "bogus"])
    def test_only_row_norm_scoring_is_accepted(self, rng, scoring):
        with pytest.raises(ConfigError, match="'row-norm' is the only one"):
            fit_selection(random_spd(rng, 4, batch=3), m=2, scoring=scoring)


def _kernel(rng, k, m, lead=(3, 2)):
    """A random conv kernel with one (m, m) slice per head: (*lead, k*m*m)."""
    return rng.standard_normal(lead + (k * m * m,))


def _fold_oracle(heads, kernel):
    """``K_0 + sum_k W_k K_k W_k^T``, one kernel slice and head at a time."""
    k, m = heads.K, heads.weights.shape[-1]
    slices = kernel.reshape(-1, k, m, m)
    return np.stack([sl[0] + sum(w @ sl[j] @ w.T for j, w in enumerate(heads.weights, 1))
                     for sl in slices])


class TestMbtHeads:
    """The heads act on the conv kernel: ``forward`` folds its K slices
    into E, ``backward`` maps dE to the slices and the head weights."""

    def test_backward_without_forward(self, rng):
        with pytest.raises(MissingForwardCache):
            MbtHeads.initialize(3, 2, rng).backward(np.zeros((1, 9)))

    def test_single_identity_head(self, rng):
        """K=1 is the pass-through: no stored head, and the kernel and its
        gradient go through bit for bit (``Model.step`` leaves the empty
        stack alone; see
        ``test_one_head_step_runs_no_qr_on_the_empty_head_stack``)."""
        heads = MbtHeads.initialize(4, k=1, rng=rng)
        assert heads.K == 1 and heads.weights.shape == (0, 4, 4)
        kernel = _kernel(rng, 1, 4)
        out = heads.forward(kernel)
        assert out.shape == (3, 2, 16)
        assert out.tobytes() == kernel.tobytes()
        g = rng.standard_normal(out.shape)
        assert heads.backward(g).tobytes() == g.tobytes()
        assert heads.grad_weights.shape == (0, 4, 4)

    def test_stack_axis_length(self, rng):
        heads = MbtHeads.initialize(3, k=4, rng=rng)
        assert heads.K == 4 and heads.weights.shape == (3, 3, 3)
        out = heads.forward(_kernel(rng, 4, 3, lead=(2, 5)))
        assert out.shape == (2, 5, 9)
        assert heads.backward(rng.standard_normal(out.shape)).shape == (2, 5, 36)

    def test_compositional_oracle(self, rng):
        """The folded kernel is the per-head sum, and a conv with it reads
        a tangent V as the unfolded kernel reads the heads' outputs
        ``W_k^T V W_k``."""
        heads = MbtHeads.initialize(5, k=3, rng=rng)
        kernel = _kernel(rng, 3, 5)
        folded = heads.forward(kernel)
        assert folded.tobytes() == _fold_oracle(heads, kernel).tobytes()
        v = rng.standard_normal((5, 5))
        v = v + v.T
        w = np.concatenate([np.eye(5)[None], heads.weights])
        stacked = np.concatenate([(w_k.T @ v @ w_k).ravel() for w_k in w])
        assert np.allclose(folded @ v.ravel(), kernel @ stacked, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_backward_matches_per_head_oracle(self, rng, k):
        heads = MbtHeads.initialize(5, k=k, rng=rng)
        kernel = _kernel(rng, k, 5)
        g = rng.standard_normal((3, 2, 25))
        heads.forward(kernel)
        gk = heads.backward(g)
        w = np.concatenate([np.eye(5)[None], heads.weights])  # head 0 is I
        de = g.reshape(-1, 5, 5)
        slices = kernel.reshape(-1, k, 5, 5)
        want_k = np.stack([[w[j].T @ d @ w[j] for j in range(k)] for d in de])
        want_w = np.array([sum(d @ w[j] @ sl[j].T + d.T @ w[j] @ sl[j]
                               for d, sl in zip(de, slices))
                           for j in range(1, k)]).reshape(k - 1, 5, 5)
        assert gk.shape == kernel.shape
        assert np.allclose(gk, want_k.reshape(kernel.shape), rtol=0, atol=1e-12)
        assert heads.grad_weights.shape == want_w.shape
        assert np.allclose(heads.grad_weights, want_w, rtol=0, atol=1e-12)

    def test_input_gradient_fd(self, rng):
        """The kernel gradient against a central difference of the fold."""
        heads = MbtHeads.initialize(5, k=2, rng=rng)
        kernel = _kernel(rng, 2, 5)
        g = rng.standard_normal((3, 2, 25))
        v = rng.standard_normal(kernel.shape)
        h = 1e-6
        num = (np.sum(heads.forward(kernel + h * v) * g)
               - np.sum(heads.forward(kernel - h * v) * g)) / (2 * h)
        heads.forward(kernel)
        gk = heads.backward(g)
        assert abs(num - np.sum(gk * v)) / abs(num) < 1e-6

    def test_weight_gradient_fd(self, rng):
        heads = MbtHeads.initialize(5, k=3, rng=rng)
        kernel = _kernel(rng, 3, 5)
        g = rng.standard_normal((3, 2, 25))
        dw = rng.standard_normal(heads.weights.shape)
        w0, h = heads.weights.copy(), 1e-6
        heads.weights = w0 + h * dw
        plus = np.sum(heads.forward(kernel) * g)
        heads.weights = w0 - h * dw
        minus = np.sum(heads.forward(kernel) * g)
        heads.weights = w0
        heads.forward(kernel)
        heads.backward(g)
        assert heads.grad_weights.shape == (2, 5, 5)  # heads 1..K-1
        num = (plus - minus) / (2 * h)
        assert abs(num - np.sum(heads.grad_weights * dw)) / abs(num) < 1e-6
