"""Tangent-space classification head.

Tangent features arrive as (B, S, F, J): windows, bands and J features
per matrix.  Each band's (windows x features) plane is convolved with a
single kernel spanning it, which is one matrix product, then
reweighted by a learned per-band importance gate (squeeze, two-layer
bottleneck, sigmoid), and classified by a linear layer with softmax
cross-entropy.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_softmax

from .errors import LabelOutOfRange, MissingForwardCache, ShapeMismatch


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` from ``e = exp(-|x|)``, which never
    overflows: ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)``
    elsewhere, with no boolean-mask indexing.  ``-|x|`` is picked from
    ``-x`` and ``x`` by the same test, so a NaN keeps the sign bit that
    ``-abs`` would set, and every input gives the bits of
    ``1 / (1 + exp(-x))`` or ``exp(x) / (1 + exp(x))`` exactly."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


class TangentClassifier:
    """Conv + band-importance gate + linear head over tangent features.

    Shapes: a forward convolves with the (C_out, S, J) kernel it is
    given, independently per frequency band, and backward returns that
    kernel's gradient as ``grads["kernel"]``; the stored ``kernel`` is the
    parameter the caller derives it from, such as the model's kernel
    before the heads fold it to m*m features.  The gate bottleneck widths
    follow the squeezed feature length (one scalar per band).
    """

    def __init__(
        self,
        n_bands: int,
        n_windows: int,
        feat_len: int,
        n_classes: int,
        conv_out: int,
        rng: np.random.Generator,
    ):
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
        self._cache: dict | None = None
        self.grads: dict[str, np.ndarray] = {}

    # --- forward pieces -------------------------------------------------

    def conv_forward(self, x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """(B, S, F, J) -> per-band conv output (B, F, C_out) with the
        (C_out, S, J) ``kernel``.

        The kernel spans a band's whole (S, J) plane, so the conv is one
        product with the kernel read as a (C_out, S*J) matrix.  It takes
        ``np.tensordot``'s own steps on the same operand layouts, without
        its generic axis handling: the features as a (B*F, S*J) copy, the
        kernel as its (S*J, C_out) transposed view, and one ``np.dot``.
        So it gives tensordot's bits; a contiguous copy of the kernel's
        view would change them.  Features of another shape, or a kernel
        with other than the head's C_out, raise :class:`ShapeMismatch`.
        """
        c_out, s, j = kernel.shape
        if x.ndim != 4 or x.shape[1:] != (s, self.w1.shape[0], j):
            raise ShapeMismatch(
                f"features {x.shape} are not (B, S, F, J) = (B, {s}, "
                f"{self.w1.shape[0]}, {j})"
            )
        if c_out != len(self.bias):
            raise ShapeMismatch(f"kernel has {c_out} output maps, the head reads {len(self.bias)}")
        b, f = x.shape[0], x.shape[2]
        features = x.transpose(0, 2, 1, 3).reshape(b * f, s * j)
        conv = np.dot(features, kernel.transpose(1, 2, 0).reshape(s * j, c_out))
        return conv.reshape(b, f, c_out) + self.bias

    def _gated_head(self, conv_out: np.ndarray):
        """Gate, flatten and linear head of a (B, F, C_out) conv output:
        ``(squeezed, hidden, gate, flat, logits)``.  The gate squeezes each
        band to its mean, runs the bottleneck and maps it into (0, 1)."""
        squeezed = conv_out.mean(axis=-1)  # (B, F)
        hidden = np.maximum(squeezed @ self.w1, 0.0)
        gate = _sigmoid(hidden @ self.w2)
        flat = (gate[..., None] * conv_out).reshape(len(conv_out), -1)
        return squeezed, hidden, gate, flat, flat @ self.head_w + self.head_b

    def forward(self, x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """(B, S, F, J) tangent features -> (B, n_classes) logits, with the
        conv ``kernel`` (see :meth:`conv_forward`)."""
        conv_out = self.conv_forward(x, kernel)
        squeezed, hidden, gate, flat, logits = self._gated_head(conv_out)
        self._cache = {
            "x": x, "kernel": kernel, "conv_out": conv_out, "squeezed": squeezed,
            "hidden": hidden, "gate": gate, "flat": flat,
        }
        return logits

    # --- backward --------------------------------------------------------

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the (B, S, F, J) input; parameter
        gradients land in ``self.grads``, the kernel's with respect to the
        kernel the forward convolved with."""
        if self._cache is None:
            raise MissingForwardCache("classifier backward before forward")
        c = self._cache
        self.grads["head_w"] = c["flat"].T @ grad_logits
        self.grads["head_b"] = grad_logits.sum(axis=0)
        conv_out, gate = c["conv_out"], c["gate"]
        d_gated = (grad_logits @ self.head_w.T).reshape(conv_out.shape)

        d_gate = np.sum(d_gated * conv_out, axis=-1)  # (B, F)
        d_conv = gate[..., None] * d_gated

        d_pre2 = d_gate * gate * (1.0 - gate)
        self.grads["w2"] = c["hidden"].T @ d_pre2
        d_pre1 = (d_pre2 @ self.w2.T) * (c["hidden"] > 0)
        self.grads["w1"] = c["squeezed"].T @ d_pre1
        d_squeezed = d_pre1 @ self.w1.T
        d_conv = d_conv + d_squeezed[..., None] / conv_out.shape[-1]

        self.grads["kernel"] = np.tensordot(d_conv, c["x"], axes=([0, 1], [0, 2]))
        self.grads["bias"] = d_conv.sum(axis=(0, 1))
        return np.tensordot(d_conv, c["kernel"], axes=(2, 0)).swapaxes(1, 2)

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
    logp = log_softmax(logits, axis=1)
    loss = -float(np.mean(logp[np.arange(n), labels]))
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n

