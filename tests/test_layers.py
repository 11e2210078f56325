"""Manifold layers: forward contracts, analytic gradients against finite
differences, Stiefel constraint preservation, and the Karcher-flow step."""

import numpy as np
import pytest

from spdbci.errors import ConfigError, MissingForwardCache, NotPositiveDefinite
from spdbci.layers import (
    DEGENERATE_EIG_TOL,
    BiMapLayer,
    LogEigLayer,
    RbnLayer,
    ReEigLayer,
    KARCHER_SLICE,
    _eig_fn_backward,
    karcher_mean,
    random_stiefel,
    stiefel_project,
    stiefel_retract,
)
from spdbci.spd import airm_distance, inv_sqrtm, spd_log, sym

import spdbci.layers as layers_module

from conftest import eig_fn_backward_broadcast, karcher_mean_one_pass, random_spd


def fd_input_grad(layer, x, g, h=1e-6, rng=None):
    """Relative error between analytic and central-difference directional
    input gradients for a layer whose forward is a pure function of its
    input.  The perturbed points run first, so the backward uses the
    cache of the forward at ``x``."""
    rng = rng or np.random.default_rng(0)
    v = sym(rng.standard_normal(x.shape))
    plus = np.sum(layer.forward(x + h * v) * g)
    minus = np.sum(layer.forward(x - h * v) * g)
    layer.forward(x)
    gx = layer.backward(g)
    num = (plus - minus) / (2 * h)
    ana = float(np.sum(gx * v))
    return abs(num - ana) / max(abs(num), 1e-12)


class TestBiMap:
    def test_identity_weight(self, rng):
        x = random_spd(rng, 4, batch=3)
        layer = BiMapLayer(np.eye(4))
        assert np.allclose(layer.forward(x), x)

    def test_selection_rows_give_submatrix(self, rng):
        x = random_spd(rng, 5, batch=2)
        layer = BiMapLayer(np.eye(5)[:3])
        assert np.allclose(layer.forward(x), x[:, :3, :3])

    def test_output_stays_spd(self, rng):
        for _ in range(100):
            x = random_spd(rng, 8, batch=2)
            w = random_stiefel(rng, 8, 4).T
            out = BiMapLayer(w).forward(x)
            assert np.all(np.linalg.eigvalsh(sym(out)) > 0)

    def test_zero_upstream_zero_grads(self, rng):
        x = random_spd(rng, 4, batch=2)
        layer = BiMapLayer(np.eye(4))
        y = layer.forward(x)
        gx = layer.backward(np.zeros_like(y))
        assert np.allclose(gx, 0.0)
        assert np.allclose(layer.grad_weight, 0.0)

    def test_input_gradient_fd(self, rng):
        x = random_spd(rng, 5, batch=3)
        layer = BiMapLayer(random_stiefel(rng, 5, 3).T)
        g = rng.standard_normal((3, 3, 3))
        assert fd_input_grad(layer, x, g, rng=rng) < 1e-6

    def test_weight_gradient_fd(self, rng):
        x = random_spd(rng, 5, batch=3)
        layer = BiMapLayer(random_stiefel(rng, 5, 3).T)
        g = rng.standard_normal((3, 3, 3))
        layer.forward(x)
        layer.backward(g)
        gw = layer.grad_weight.copy()
        dv = rng.standard_normal(layer.weight.shape)
        h = 1e-6
        w0 = layer.weight.copy()
        layer.weight = w0 + h * dv
        plus = np.sum(layer.forward(x) * g)
        layer.weight = w0 - h * dv
        minus = np.sum(layer.forward(x) * g)
        num = (plus - minus) / (2 * h)
        assert abs(num - np.sum(gw * dv)) / abs(num) < 1e-6

    def test_backward_without_forward(self):
        with pytest.raises(MissingForwardCache):
            BiMapLayer(np.eye(3)).backward(np.zeros((1, 3, 3)))

    @pytest.mark.parametrize("batch, n, p", [
        ((1152,), 5, 5), ((64,), 8, 3), ((5,), 22, 22), ((64,), 22, 20), ((3,), 5, 1),
        ((2, 3), 4, 2), ((), 5, 3),
    ])
    @pytest.mark.parametrize("order", ["F", "C"], ids=["model-layout", "c-contiguous"])
    def test_products_give_the_bits_of_the_stacked_ones(self, rng, batch, n, p, order):
        """The forward is ``w @ x @ w.T`` and the input gradient
        ``w.T @ g @ w``, byte for byte, and the weight gradient contracts
        the cached ``W X``: at train-c5's (1152, 5, 5), non-square,
        with a one-row W, with two batch axes and on one matrix; with W
        the transposed view the model holds, and C-contiguous."""
        x = random_spd(rng, n, batch=int(np.prod(batch))).reshape(batch + (n, n))
        w = np.asarray(random_stiefel(rng, n, p).T, order=order)
        layer = BiMapLayer(w)
        assert layer.forward(x).tobytes() == (w @ x @ w.T).tobytes()
        g = rng.standard_normal(batch + (p, p))
        if len(batch) == 1:
            # the weight gradient contracts one batch axis
            assert layer.backward(g).tobytes() == (w.T @ g @ w).tobytes()
            want = np.tensordot(g + np.swapaxes(g, -1, -2), w @ x, ([0, 2], [0, 1]))
            assert layer.grad_weight.tobytes() == want.tobytes()

    def test_backward_reads_the_product_of_the_last_forward(self, rng):
        """The cache is the last forward's ``W X``: a second forward
        replaces it, and the weight gradient is that of the second batch."""
        w = random_stiefel(rng, 5, 3).T
        first, second = (random_spd(rng, 5, batch=4) for _ in range(2))
        g = rng.standard_normal((4, 3, 3))
        layer, fresh = BiMapLayer(w), BiMapLayer(w)
        layer.forward(first)
        assert layer._cache.tobytes() == (w @ first).tobytes()
        layer.forward(second)
        assert layer._cache.tobytes() == (w @ second).tobytes()
        fresh.forward(second)
        assert layer.backward(g).tobytes() == fresh.backward(g).tobytes()
        assert layer.grad_weight.tobytes() == fresh.grad_weight.tobytes()

    def test_backward_drops_the_cache(self, rng):
        """The backward frees ``W X``, so a second backward raises."""
        layer = BiMapLayer(random_stiefel(rng, 4, 4).T)
        layer.forward(random_spd(rng, 4, batch=2))
        layer.backward(rng.standard_normal((2, 4, 4)))
        assert layer._cache is None
        with pytest.raises(MissingForwardCache):
            layer.backward(rng.standard_normal((2, 4, 4)))


class TestReEig:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError, match="epsilon"):
            ReEigLayer(0.0)

    def test_backward_without_forward(self):
        with pytest.raises(MissingForwardCache):
            ReEigLayer().backward(np.zeros((1, 3, 3)))

    def test_clamps_small_eigenvalues(self):
        layer = ReEigLayer(1e-4)
        out = layer.forward(np.diag([1e-9, 1.0])[None])
        assert np.allclose(np.linalg.eigvalsh(out[0]), [1e-4, 1.0])

    def test_noop_region(self, rng):
        x = random_spd(rng, 4, batch=2)  # eigenvalues well above epsilon
        out = ReEigLayer(1e-4).forward(x)
        assert np.max(np.abs(out - x)) < 1e-9

    def test_floor_holds_on_near_singular_batch(self, rng):
        eps = 1e-3
        a = rng.standard_normal((20, 5, 5)) * 1e-4
        x = a @ np.swapaxes(a, 1, 2) + 1e-8 * np.eye(5)
        out = ReEigLayer(eps).forward(x)
        assert np.min(np.linalg.eigvalsh(out)) >= eps - 1e-12

    def test_unclamped_batch_returns_its_symmetric_part(self, rng):
        """With every eigenvalue above the floor the forward forms no
        product: the output is ``sym(x)`` bit for bit."""
        x = random_spd(rng, 5, batch=3) + 1e-3 * rng.standard_normal((3, 5, 5))
        out = ReEigLayer(1e-4).forward(x)
        assert out.tobytes() == sym(x).tobytes()

    @pytest.mark.parametrize("first, second", [(1e-9, 1.0), (1.0, 1e-9)],
                             ids=["clamped-then-not", "unclamped-then-clamped"])
    def test_decomposition_is_of_the_last_forward(self, rng, first, second):
        """Either branch leaves LogEig the decomposition of its own batch:
        ``output_eig`` rebuilds that forward's output, floored at eps."""
        eps = 1e-4
        layer = ReEigLayer(eps)
        u = np.linalg.qr(rng.standard_normal((2, 4, 4, 4)))[0]
        spectra = np.array([[low, 0.5, 1.0, 2.0] for low in (first, second)])
        batches = (u * spectra[:, None, None, :]) @ np.swapaxes(u, -1, -2)
        layer.forward(batches[0])
        out = layer.forward(batches[1])
        w, v = layer.output_eig
        assert np.min(w) >= eps
        assert np.array_equal(layer._cache[0], np.linalg.eigh(sym(batches[1]))[0])
        rebuilt = (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)
        assert np.max(np.abs(rebuilt - out)) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) >= eps - 1e-12

    def test_idempotent(self, rng):
        layer = ReEigLayer(0.5)
        x = random_spd(rng, 5, batch=3)
        once = layer.forward(x)
        twice = layer.forward(once)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_input_gradient_fd(self, rng):
        # eigenvalues away from the clamp kink
        layer = ReEigLayer(0.5)
        x = random_spd(rng, 5, batch=2)
        g = rng.standard_normal(x.shape)
        assert fd_input_grad(layer, x, g, rng=rng) < 1e-6

    @pytest.mark.parametrize("epsilon", [1e-4, 0.5], ids=["no-clamp", "clamped"])
    def test_backward_equals_daleckii_krein(self, rng, epsilon):
        """Above the floor the Daleckii-Krein kernel is all ones, so the
        backward's ``sym(grad)`` equals the full product; a batch with a
        clamped eigenvalue keeps the product."""
        u = np.linalg.qr(rng.standard_normal((6, 5, 5)))[0]
        spectrum = rng.uniform(0.05, 3.0, (6, 5))
        layer = ReEigLayer(epsilon)
        g = rng.standard_normal((6, 5, 5))
        layer.forward((u * spectrum[:, None, :]) @ np.swapaxes(u, -1, -2))
        w, u = layer._cache
        assert np.any(w <= epsilon) == (epsilon == 0.5)
        want = _eig_fn_backward(g, w, u, np.maximum(w, epsilon), (w > epsilon) * 1.0)
        got = layer.backward(g)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestEigFnBackward:
    @pytest.mark.parametrize("m", [1, 2, 5, 8, 9, 22])
    @pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=["one", "stack", "two-axes"])
    @pytest.mark.parametrize("f", ["log", "clamp"])
    def test_gives_the_bits_of_the_broadcast_kernel(self, rng, m, batch, f):
        """The kernel laid out with the batch last and the contiguous
        ``U^T`` give the broadcast form's bits, on spectra with exact ties
        and pairs closer than the degeneracy tolerance."""
        n = int(np.prod(batch))
        u = np.linalg.qr(rng.standard_normal((n, m, m)))[0]
        w = np.sort(rng.uniform(0.05, 3.0, (n, m)), axis=-1)
        if m > 1:
            w[0, 1] = w[0, 0]
            w[-1, -1] = w[-1, -2] + 1e-13
        w, u = w.reshape(batch + (m,)), u.reshape(batch + (m, m))
        g = rng.standard_normal(batch + (m, m))
        fw, dfw = ((np.log(w), 1.0 / w) if f == "log"
                   else (np.maximum(w, 1.0), (w > 1.0).astype(np.float64)))
        got = _eig_fn_backward(g, w, u, fw, dfw)
        want = eig_fn_backward_broadcast(g, w, u, fw, dfw, DEGENERATE_EIG_TOL)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestLogEig:
    def test_backward_without_forward(self):
        with pytest.raises(MissingForwardCache):
            LogEigLayer().backward(np.zeros((1, 3, 3)))

    def test_matches_spd_log(self, rng):
        x = random_spd(rng, 5, batch=4)
        assert np.allclose(LogEigLayer().forward(x), spd_log(x))

    def test_input_gradient_fd(self, rng):
        x = random_spd(rng, 5, batch=2)
        g = rng.standard_normal(x.shape)
        assert fd_input_grad(LogEigLayer(), x, g, rng=rng) < 1e-6

    def test_repeated_eigenvalue_gradient_finite(self):
        layer = LogEigLayer()
        x = np.eye(4)[None] * 2.0  # fully degenerate spectrum
        layer.forward(x)
        gx = layer.backward(np.ones_like(x))
        assert np.all(np.isfinite(gx))
        # for x = c I the backward is grad / c symmetrized
        assert np.allclose(gx, np.ones((4, 4)) / 2.0)

    @pytest.mark.parametrize("epsilon", [1e-4, 0.5], ids=["no-clamp", "clamped"])
    def test_reused_decomposition_matches_own(self, rng, epsilon):
        """LogEig on ReEig's decomposition equals LogEig decomposing the
        ReEig output itself, forward and backward."""
        u = np.linalg.qr(rng.standard_normal((6, 5, 5)))[0]
        spectrum = rng.uniform(0.05, 3.0, (6, 5))
        reeig = ReEigLayer(epsilon)
        x = reeig.forward((u * spectrum[:, None, :]) @ np.swapaxes(u, -1, -2))
        assert np.any(spectrum < epsilon) == (epsilon == 0.5)
        own, shared = LogEigLayer(), LogEigLayer()
        g = rng.standard_normal(x.shape)
        for want, got in [(own.forward(x), shared.forward(x, eig=reeig.output_eig)),
                          (own.backward(g), shared.backward(g))]:
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite, match="LogEig"):
            LogEigLayer().forward(np.diag([1.0, -1.0])[None])

    def test_output_eig_before_forward(self):
        with pytest.raises(MissingForwardCache):
            ReEigLayer().output_eig


class TestKarcher:
    def test_identical_batch(self, rng):
        x = random_spd(rng, 4)
        mean = karcher_mean(np.stack([x, x, x]))
        assert np.linalg.norm(mean - x) < 1e-9

    def test_commuting_geometric_mean(self):
        a = 3.0
        batch = np.stack([np.diag([a, 1.0]), np.diag([1 / a, 1.0])])
        assert np.linalg.norm(karcher_mean(batch) - np.eye(2)) < 1e-9

    def test_rejects_indefinite_arithmetic_mean(self):
        batch = np.stack([np.diag([1.0, -2.0]), np.diag([1.0, 1.0])])
        with pytest.raises(NotPositiveDefinite, match="karcher_mean"):
            karcher_mean(batch)

    @pytest.mark.parametrize("n, size", [
        (4, KARCHER_SLICE - 1), (4, KARCHER_SLICE), (4, KARCHER_SLICE + 1),
        (2, 3 * KARCHER_SLICE + 7), (22, 2 * KARCHER_SLICE + 1),
        (1, KARCHER_SLICE - 1), (1, 2 * KARCHER_SLICE + 9),
    ])
    def test_sliced_step_equals_the_one_pass_step_bit_for_bit(self, rng, n, size):
        batch = random_spd(rng, n, batch=size) * rng.uniform(0.01, 100.0, (size, 1, 1))
        assert karcher_mean(batch).tobytes() == karcher_mean_one_pass(batch).tobytes()

    @pytest.mark.parametrize("n", [8, 22])
    def test_class_band_group_keeps_the_stacked_bits(self, rng, n):
        """At 8 and 22 channels, on a 1152-matrix group as select-22ch
        means, the slices' whitening by ``spd.right_product`` keeps the
        bits of the one-pass stacked ``rm @ batch @ rm``."""
        batch = random_spd(rng, n, batch=1152) * rng.uniform(0.5, 2.0, (1152, 1, 1))
        assert karcher_mean(batch).tobytes() == karcher_mean_one_pass(batch).tobytes()

    def test_strided_batch_equals_the_one_pass_step_bit_for_bit(self, rng):
        whole = random_spd(rng, 5, batch=2 * KARCHER_SLICE + 6)
        batch = np.swapaxes(whole, -1, -2)[::2]
        assert karcher_mean(batch).tobytes() == karcher_mean_one_pass(batch).tobytes()

    def test_tangent_step_runs_in_slices(self, rng, monkeypatch):
        sizes = []
        real_log = layers_module.spd_log

        def recording_log(x):
            sizes.append(len(x))
            return real_log(x)

        monkeypatch.setattr(layers_module, "spd_log", recording_log)
        karcher_mean(random_spd(rng, 3, batch=2 * KARCHER_SLICE + 5))
        assert sizes == [KARCHER_SLICE, KARCHER_SLICE, 5]

    def test_non_spd_member_in_the_last_slice_raises(self, rng):
        batch = random_spd(rng, 4, batch=2 * KARCHER_SLICE + 3)
        batch[-1] = -1e-6 * np.eye(4)
        with pytest.raises(NotPositiveDefinite, match="spd_log input"):
            karcher_mean(batch)


class TestRbn:
    def test_mean_sets_the_whitener_and_forward_keeps_both(self, rng):
        batch = random_spd(rng, 4, batch=8)
        layer = RbnLayer(4)
        layer.mean = fitted = karcher_mean(batch)
        whitener = layer.whitener.copy()
        assert np.array_equal(whitener, inv_sqrtm(fitted))
        layer.forward(random_spd(rng, 4, batch=3))
        layer.forward(batch)
        assert np.array_equal(layer.mean, fitted)
        assert np.array_equal(layer.whitener, whitener)

    def test_identical_batch_maps_to_identity(self, rng):
        x = random_spd(rng, 4)
        batch = np.stack([x, x, x])
        layer = RbnLayer(4)
        layer.mean = karcher_mean(batch)
        assert np.max(np.abs(layer.forward(batch) - np.eye(4))) < 1e-8

    def test_commuting_pair_unchanged(self):
        a = 2.0
        batch = np.stack([np.diag([a, 1.0]), np.diag([1 / a, 1.0])])
        layer = RbnLayer(2)
        layer.mean = karcher_mean(batch)
        assert np.allclose(layer.forward(batch), batch, atol=1e-8)

    def test_normalized_mean_is_identity(self, rng):
        batch = random_spd(rng, 6, batch=16)
        layer = RbnLayer(6)
        layer.mean = karcher_mean(batch)
        out = layer.forward(batch)
        # one Karcher-flow step commutes with congruence, so the Karcher
        # mean of the output of the batch it was fitted on is the identity
        assert airm_distance(karcher_mean(out), np.eye(6)) < 1e-6

    @pytest.mark.parametrize("m", [1, 5, 8, 22])
    def test_congruence_gives_the_bits_of_r_x_r(self, rng, m):
        """Forward and backward are ``r @ x @ r`` byte for byte, their
        right products taken as one 2-D product."""
        layer = RbnLayer(m)
        layer.mean = random_spd(rng, m)
        r = layer.whitener
        x = random_spd(rng, m, batch=64)
        g = rng.standard_normal((2, 32, m, m))
        assert layer.forward(x).tobytes() == (r @ x @ r).tobytes()
        assert layer.backward(g).tobytes() == (r @ g @ r).tobytes()

    def test_frozen_whitener_gradient_fd(self, rng):
        batch = random_spd(rng, 5, batch=4)
        layer = RbnLayer(5)
        layer.mean = karcher_mean(batch)
        g = rng.standard_normal(batch.shape)
        layer.forward(batch)
        gx = layer.backward(g)
        # the map is r x r with the frozen whitener r = inv_sqrtm(mean)
        r = inv_sqrtm(layer.mean)
        v = sym(rng.standard_normal(batch.shape))
        h = 1e-6
        num = (np.sum(r @ (batch + h * v) @ r * g)
               - np.sum(r @ (batch - h * v) @ r * g)) / (2 * h)
        assert abs(num - np.sum(gx * v)) / max(abs(num), 1e-12) < 1e-6


class TestStiefel:
    def test_retraction_orthonormality(self, rng):
        q = random_stiefel(rng, 8, 3)
        assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-12

    def test_projection_is_tangent(self, rng):
        q = random_stiefel(rng, 6, 3)
        z = rng.standard_normal((6, 3))
        t = stiefel_project(q, z)
        assert np.linalg.norm(sym(q.T @ t)) < 1e-12

    def test_drift_after_100_steps(self, rng):
        q = random_stiefel(rng, 8, 4)
        for _ in range(100):
            g = rng.standard_normal(q.shape)
            q = stiefel_retract(q, -0.05 * stiefel_project(q, g))
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-8


def test_spd_closure_through_block(rng):
    """BiMap -> RBN -> ReEig maps SPD batches to SPD batches."""
    x = random_spd(rng, 6, batch=8)
    w = random_stiefel(rng, 6, 4).T
    out = BiMapLayer(w).forward(x)
    rbn = RbnLayer(4)
    rbn.mean = karcher_mean(out)
    out = rbn.forward(out)
    out = ReEigLayer(1e-4).forward(out)
    assert np.all(np.linalg.eigvalsh(sym(out)) > 0)
    assert np.max(np.abs(out - np.swapaxes(out, 1, 2))) < 1e-10
