"""Tangent-space classification head.

Stacked tangent features are flattened to a per-band plane, convolved
with a single kernel spanning the whole (windows x head-features) plane,
reweighted by a learned per-band importance gate (squeeze, two-layer
bottleneck, sigmoid), and classified by a linear layer with softmax
cross-entropy.
"""

from __future__ import annotations

import numpy as np

from .errors import LabelOutOfRange, MissingForwardCache, ShapeMismatch


def reshape_features(stacked: np.ndarray) -> np.ndarray:
    """(..., S, F, K, m, m) -> (..., F, 1, S, K*m*m), lossless."""
    if stacked.ndim < 5:
        raise ShapeMismatch(f"expected >= 5 axes, got shape {stacked.shape}")
    s, f, k, m1, m2 = stacked.shape[-5:]
    if m1 != m2:
        raise ShapeMismatch("head outputs must be square")
    lead = stacked.shape[:-5]
    moved = np.moveaxis(stacked, -4, -5)  # (..., F, S, K, m, m)
    return moved.reshape(lead + (f, 1, s, k * m1 * m2))


def inverse_reshape(fmap: np.ndarray, k: int, m: int) -> np.ndarray:
    """Inverse of :func:`reshape_features`; recovers the stack bit-exactly."""
    if fmap.ndim < 4 or fmap.shape[-3] != 1:
        raise ShapeMismatch(f"bad feature-map shape {fmap.shape}")
    f, _, s, flat = fmap.shape[-4:]
    if flat != k * m * m:
        raise ShapeMismatch(f"trailing axis {flat} != K*m*m = {k * m * m}")
    lead = fmap.shape[:-4]
    moved = fmap.reshape(lead + (f, s, k, m, m))
    return np.moveaxis(moved, -5, -4)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TangentClassifier:
    """Conv + band-importance gate + linear head over tangent features.

    Shapes: the conv kernel is (C_out, S, J) with J = K*m*m and is applied
    independently per frequency band; the gate bottleneck widths follow
    the squeezed feature length (one scalar per band).
    """

    def __init__(
        self,
        n_bands: int,
        n_windows: int,
        feat_len: int,
        n_classes: int,
        conv_out: int = 4,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        hidden = max(1, n_bands // 2)
        fan_conv = n_windows * feat_len
        self.kernel = rng.standard_normal((conv_out, n_windows, feat_len)) / np.sqrt(fan_conv)
        self.bias = np.zeros(conv_out)
        self.w1 = rng.standard_normal((n_bands, hidden)) / np.sqrt(n_bands)
        self.w2 = rng.standard_normal((hidden, n_bands)) / np.sqrt(hidden)
        self.head_w = rng.standard_normal((n_bands * conv_out, n_classes)) / np.sqrt(
            n_bands * conv_out
        )
        self.head_b = np.zeros(n_classes)
        self.n_classes = n_classes
        self._cache: dict | None = None
        self.grads: dict[str, np.ndarray] = {}

    # --- forward pieces -------------------------------------------------

    def conv_forward(self, fmap: np.ndarray, training: bool = True) -> np.ndarray:
        """(B, F, 1, S, J) -> per-band conv output (B, F, C_out)."""
        if fmap.shape[-2:] != self.kernel.shape[-2:] or fmap.shape[-3] != 1:
            raise ShapeMismatch(
                f"feature map {fmap.shape} does not match kernel {self.kernel.shape}"
            )
        out = np.einsum("bfosj,csj->bfc", fmap, self.kernel) + self.bias
        if training:
            self._cache = {"fmap": fmap}
        return out

    def band_importance(self, conv_out: np.ndarray, training: bool = True):
        """Squeeze over non-band axes, gate each band into (0, 1), rescale.

        Returns ``(gate, gated_output)``.
        """
        squeezed = conv_out.mean(axis=-1)  # (B, F)
        pre1 = squeezed @ self.w1
        hidden = np.maximum(pre1, 0.0)
        pre2 = hidden @ self.w2
        gate = _sigmoid(pre2)  # (B, F)
        gated = gate[..., None] * conv_out
        if training and self._cache is not None:
            self._cache.update(
                conv_out=conv_out, squeezed=squeezed, pre1=pre1,
                hidden=hidden, gate=gate,
            )
        return gate, gated

    def classify(self, gated: np.ndarray, training: bool = True) -> np.ndarray:
        flat = gated.reshape(gated.shape[0], -1)
        if flat.shape[1] != self.head_w.shape[0]:
            raise ShapeMismatch(
                f"flattened width {flat.shape[1]} != head input {self.head_w.shape[0]}"
            )
        if training and self._cache is not None:
            self._cache["flat"] = flat
            self._cache["gated_shape"] = gated.shape
        return flat @ self.head_w + self.head_b

    def forward(self, fmap: np.ndarray, training: bool = True) -> np.ndarray:
        conv_out = self.conv_forward(fmap, training)
        _, gated = self.band_importance(conv_out, training)
        return self.classify(gated, training)

    # --- backward --------------------------------------------------------

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the input feature map; parameter
        gradients land in ``self.grads``."""
        if self._cache is None or "flat" not in self._cache:
            raise MissingForwardCache("classifier backward before forward")
        c = self._cache
        self.grads["head_w"] = c["flat"].T @ grad_logits
        self.grads["head_b"] = grad_logits.sum(axis=0)
        d_gated = (grad_logits @ self.head_w.T).reshape(c["gated_shape"])

        conv_out, gate = c["conv_out"], c["gate"]
        d_gate = np.sum(d_gated * conv_out, axis=-1)  # (B, F)
        d_conv = gate[..., None] * d_gated

        d_pre2 = d_gate * gate * (1.0 - gate)
        self.grads["w2"] = c["hidden"].T @ d_pre2
        d_hidden = d_pre2 @ self.w2.T
        d_pre1 = d_hidden * (c["pre1"] > 0)
        self.grads["w1"] = c["squeezed"].T @ d_pre1
        d_squeezed = d_pre1 @ self.w1.T
        d_conv = d_conv + d_squeezed[..., None] / conv_out.shape[-1]

        self.grads["kernel"] = np.einsum("bfc,bfosj->csj", d_conv, c["fmap"])
        self.grads["bias"] = d_conv.sum(axis=(0, 1))
        return np.einsum("bfc,csj->bfsj", d_conv, self.kernel)[:, :, None]

    def step(self, lr: float) -> None:
        for name in ("kernel", "bias", "w1", "w2", "head_w", "head_b"):
            if name in self.grads:
                setattr(self, name, getattr(self, name) - lr * self.grads[name])
        self.grads = {}

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "kernel": self.kernel, "bias": self.bias,
            "w1": self.w1, "w2": self.w2,
            "head_w": self.head_w, "head_b": self.head_b,
        }


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(labels)
    n, c = logits.shape
    if np.any(labels < 0) or np.any(labels >= c):
        raise LabelOutOfRange(f"labels must lie in 0..{c - 1}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -float(np.mean(logp[np.arange(n), labels]))
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n

