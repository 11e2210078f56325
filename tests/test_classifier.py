"""Tangent-space classifier: per-band convolution, band-importance
gating, loss, and gradients."""

import numpy as np
import pytest

from spdbci.classifier import TangentClassifier, _sigmoid, cross_entropy
from spdbci.errors import LabelOutOfRange, ShapeMismatch
from spdbci.model import Model
from spdbci.spd import unpack

from conftest import conv_oracle, sigmoid_masked


def _clf(rng, n_bands=3, n_windows=2, feat_len=8, n_classes=2, conv_out=4):
    return TangentClassifier(n_bands, n_windows, feat_len, n_classes, conv_out, rng)


def _gate(clf, conv_out):
    """``(gate, gated conv output)`` as the classifier's head computes
    them from a (B, F, C_out) conv output."""
    _, _, gate, flat, _ = clf._gated_head(conv_out)
    return gate, flat.reshape(conv_out.shape)


class TestConv:
    def test_zero_kernel(self, rng):
        clf = _clf(rng)
        clf.kernel = np.zeros_like(clf.kernel)
        out = clf.conv_forward(rng.standard_normal((2, 2, 3, 8)), clf.kernel)
        assert np.allclose(out, 0.0)

    def test_zero_input_bias_passthrough(self, rng):
        clf = _clf(rng)
        clf.bias = np.arange(4, dtype=np.float64)
        out = clf.conv_forward(np.zeros((2, 2, 3, 8)), clf.kernel)
        assert np.allclose(out, clf.bias)

    def test_linearity(self, rng):
        clf = _clf(rng)
        x = rng.standard_normal((2, 2, 3, 8))
        assert np.allclose(clf.conv_forward(3.0 * x, clf.kernel),
                           3.0 * clf.conv_forward(x, clf.kernel))

    def test_shape_mismatch(self, rng):
        # wrong feature length, wrong band count, and the old 5-axis layout
        for shape in [(2, 2, 3, 9), (2, 2, 4, 8), (2, 3, 1, 2, 8)]:
            clf = _clf(rng)
            with pytest.raises(ShapeMismatch):
                clf.conv_forward(rng.standard_normal(shape), clf.kernel)

    @pytest.mark.parametrize("maps", [1, 5])
    def test_kernel_with_other_output_map_count(self, rng, maps):
        # 1 map would broadcast against the bias, 5 would not
        clf = _clf(rng, conv_out=4)
        with pytest.raises(ShapeMismatch, match="output maps"):
            clf.forward(rng.standard_normal((2, 2, 3, 8)), rng.standard_normal((maps, 2, 8)))

    def test_matches_einsum_oracle(self, rng):
        clf = _clf(rng)
        clf.bias = rng.standard_normal(clf.bias.shape)
        x = rng.standard_normal((5, 2, 3, 8))
        expected = np.einsum("bsfj,csj->bfc", x, clf.kernel) + clf.bias
        assert np.allclose(clf.conv_forward(x, clf.kernel), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k_heads", [4, 1])
    @pytest.mark.parametrize("batch", [64, 1], ids=["training-batch", "one-trial"])
    def test_model_conv_and_cut_give_the_bits_of_their_oracles(self, rng, k_heads, batch):
        """The conv of a model's folded kernel, as both forwards run it,
        equals tensordot's bit for bit, and the cut of packed rows equals
        the fancy-indexed cut of the full matrices and the cut through a
        flat index of each full M*M row: 5 of 8 channels, 2 windows, 9
        bands."""
        model = Model([0, 2, 3, 5, 7], n_channels=8, n_windows=2, n_bands=9, n_classes=2,
                      k_heads=k_heads, conv_out=64, seed=3, sample_rate=250.0)
        model.heads.weights = rng.standard_normal(model.heads.weights.shape)
        model.clf.kernel = rng.standard_normal(model.clf.kernel.shape)
        model.clf.bias = rng.standard_normal(model.clf.bias.shape)
        kernel = model.heads.forward(model.clf.kernel)
        x = rng.standard_normal((batch, 2, 9, 25))
        out = model.clf.conv_forward(x, kernel)
        assert out.shape == (batch, 9, 64)
        assert out.tobytes() == conv_oracle(x, kernel, model.clf.bias).tobytes()
        covs = rng.standard_normal((batch, 2, 9, 36))
        full = unpack(covs)
        ch = model.channels
        assert model.cut(covs).tobytes() == full[..., ch[:, None], ch].tobytes()
        assert model.cut(covs[0, 0]).tobytes() == full[0, 0][..., ch[:, None], ch].tobytes()
        flat_cut = full.reshape(batch, 2, 9, 64).take(ch[:, None] * 8 + ch, axis=-1)
        assert model.cut(covs).tobytes() == flat_cut.tobytes()


class TestBandImportance:
    def test_squeeze_of_ones(self, rng):
        clf = _clf(rng)
        # every band of both rows has mean 1, so both squeeze to ones
        conv_out = np.stack([np.ones((3, 4)), np.tile([0.0, 2.0, 1.5, 0.5], (3, 1))])
        gate, _ = _gate(clf, conv_out)
        expected = 1.0 / (1.0 + np.exp(-(np.maximum(np.ones(3) @ clf.w1, 0.0) @ clf.w2)))
        assert np.allclose(gate, expected)

    def test_zero_weights_give_half_gate(self, rng):
        clf = _clf(rng)
        clf.w1 = np.zeros_like(clf.w1)
        clf.w2 = np.zeros_like(clf.w2)
        conv_out = rng.standard_normal((2, 3, 4))
        gate, gated = _gate(clf, conv_out)
        assert np.allclose(gate, 0.5)
        assert np.allclose(gated, 0.5 * conv_out)

    def test_sigmoid_gives_the_bits_of_the_masked_formula(self, rng):
        """Extremes, both zeros and NaNs of both signs, and a (64, 9)
        gate batch, bit for bit and with no overflow."""
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)
        edge = np.concatenate([[1e3, -1e3, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324], nans])
        for x in (edge, rng.standard_normal((64, 9)) * 20.0):
            with np.errstate(over="raise"):
                out = _sigmoid(x)
            assert out.shape == x.shape
            assert out.tobytes() == sigmoid_masked(x).tobytes()
        assert np.signbit(_sigmoid(edge)[-3:]).tolist() == [False, True, False]

    def test_gate_range_sweep(self):
        for seed in range(50):
            r = np.random.default_rng(seed)
            clf = _clf(r)
            gate, _ = _gate(clf, r.standard_normal((4, 3, 4)) * 5)
            assert np.all(gate > 0.0) and np.all(gate < 1.0)

    def test_never_amplifies(self, rng):
        clf = _clf(rng)
        conv_out = rng.standard_normal((4, 3, 4))
        _, gated = _gate(clf, conv_out)
        assert np.linalg.norm(gated) <= np.linalg.norm(conv_out)

    def test_band_equivariance(self, rng):
        clf = _clf(rng, n_bands=4)
        # make the gate MLP band-symmetric so permutation equivariance holds
        clf.w1 = np.ones_like(clf.w1)
        clf.w2 = np.ones_like(clf.w2)
        x = rng.standard_normal((1, 2, 4, 8))
        perm = [1, 0, 2, 3]
        out = clf.conv_forward(x, clf.kernel)
        out_p = clf.conv_forward(x[:, :, perm], clf.kernel)
        assert np.allclose(out_p, out[:, perm])
        gate, _ = _gate(clf, out)
        gate_p, _ = _gate(clf, out[:, perm])
        assert np.allclose(gate_p, gate[:, perm])


class TestLoss:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((1, 4)), np.array([2]))
        assert abs(loss - np.log(4.0)) < 1e-12

    def test_saturated_logits(self):
        loss, _ = cross_entropy(np.array([[10.0, -10.0]]), np.array([0]))
        assert loss <= 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_gradient_fd(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        _, grad = cross_entropy(logits, labels)
        v = rng.standard_normal(logits.shape)
        h = 1e-6
        lp, _ = cross_entropy(logits + h * v, labels)
        lm, _ = cross_entropy(logits - h * v, labels)
        num = (lp - lm) / (2 * h)
        assert abs(num - np.sum(grad * v)) / abs(num) < 1e-6


class TestClassifierGradients:
    def test_input_gradient_fd(self, rng):
        clf = _clf(rng)
        x = rng.standard_normal((3, 2, 3, 8))
        g = rng.standard_normal((3, 2))
        v = rng.standard_normal(x.shape)
        h = 1e-6
        num = (np.sum(clf.forward(x + h * v, clf.kernel) * g)
               - np.sum(clf.forward(x - h * v, clf.kernel) * g)) / (2 * h)
        clf.forward(x, clf.kernel)
        gx = clf.backward(g)
        assert abs(num - np.sum(gx * v)) / abs(num) < 1e-5

    @pytest.mark.parametrize("name", ["kernel", "bias", "w1", "w2", "head_w", "head_b"])
    def test_parameter_gradients_fd(self, rng, name):
        clf = _clf(rng)
        x = rng.standard_normal((3, 2, 3, 8))
        g = rng.standard_normal((3, 2))
        p0 = getattr(clf, name).copy()
        dv = rng.standard_normal(p0.shape)
        h = 1e-6
        setattr(clf, name, p0 + h * dv)
        plus = np.sum(clf.forward(x, clf.kernel) * g)
        setattr(clf, name, p0 - h * dv)
        minus = np.sum(clf.forward(x, clf.kernel) * g)
        setattr(clf, name, p0)
        clf.forward(x, clf.kernel)
        clf.backward(g)
        num = (plus - minus) / (2 * h)
        assert abs(num - np.sum(clf.grads[name] * dv)) / max(abs(num), 1e-9) < 1e-5


def test_gate_bottleneck_width_arithmetic():
    rng = np.random.default_rng(0)
    clf = TangentClassifier(n_bands=20, n_windows=1, feat_len=4, n_classes=2,
                            conv_out=4, rng=rng)
    assert clf.w1.shape == (20, 10)
    assert clf.w1.size == 200
    narrow = TangentClassifier(n_bands=1, n_windows=1, feat_len=4, n_classes=2,
                               conv_out=4, rng=rng)
    assert narrow.w1.shape == (1, 1)
