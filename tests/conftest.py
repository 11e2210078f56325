import numpy as np
import pytest

from spdbci.classifier import cross_entropy
from spdbci.config import config_to_mapping
from spdbci.errors import DimensionMismatch
from spdbci.layers import _eig_fn_backward, stiefel_project, stiefel_retract
from spdbci.model import model_to_bundle
from spdbci.spd import (FOLD_RATIO, SHRINKAGE_SCALE, eig_fn, inv_sqrtm, spd_exp, spd_log, sym,
                        unpack)
from spdbci.trainer import train


def random_spd(rng, n, batch=None):
    """Well-conditioned random SPD matrices."""
    shape = (batch, n, n) if batch else (n, n)
    a = rng.standard_normal(shape)
    return a @ np.swapaxes(a, -1, -2) + n * np.eye(n)


def pad(window):
    """The (..., M + 1, L) input of ``spd.covariance`` for the
    (..., M, L) ``window``: a new buffer whose first M rows are a copy of
    the window and whose last row is left for the call to fill."""
    padded = np.empty(window.shape[:-2] + (window.shape[-2] + 1, window.shape[-1]))
    padded[..., :-1, :] = window
    return padded


def covariance_oracle(window):
    """``spd.covariance`` of ``window`` with numpy's plainest bookkeeping:
    the Gram block added to its transposed view, ``np.trace``, and the
    shrinkage added through a fancy-indexed diagonal (reference oracle
    pinning the bits of ``covariance``, which takes the same steps with
    fewer passes and no index arrays)."""
    m, length = window.shape[-2:]
    padded = pad(window)
    padded[..., m, :] = 1.0
    gram = padded[..., :m, :] @ np.swapaxes(padded, -1, -2)
    mean = gram[..., m] / length
    gram = gram[..., :m]
    cov = gram + np.swapaxes(gram, -1, -2)
    cov /= 2 * length
    cov -= mean[..., :, None] * mean[..., None, :]
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    centre = np.any(mean * mean > FOLD_RATIO * var, axis=-1)
    if np.any(centre):
        z = window[centre] - mean[centre][..., None]
        cov[centre] = (z @ np.swapaxes(z, -1, -2)) / length
    eps = np.maximum(SHRINKAGE_SCALE * np.trace(cov, axis1=-2, axis2=-1) / m, 1e-12)
    diag = np.arange(m)
    cov[..., diag, diag] += eps[..., None]
    return cov


def conv_oracle(x, kernel, bias):
    """The per-band conv of (B, S, F, J) features with a (C_out, S, J)
    kernel through ``np.tensordot``'s generic axis handling (reference
    oracle pinning the bits of ``TangentClassifier.conv_forward``, which
    takes tensordot's steps on the same operand layouts)."""
    return np.tensordot(x, kernel, axes=([1, 3], [1, 2])) + bias


def sigmoid_masked(x):
    """Logistic sigmoid by boolean masks: ``1 / (1 + exp(-x))`` on
    ``x >= 0`` and ``exp(x) / (1 + exp(x))`` elsewhere (reference oracle
    pinning the bits of ``classifier._sigmoid``)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def double_center(sq_dist):
    """``-1/2 H S H`` with ``H = I - (1/n) 1 1^T`` the centering matrix."""
    n = sq_dist.shape[0]
    h = np.eye(n) - 1.0 / n
    return -0.5 * (h @ sq_dist @ h)


def airm_distance_eigh(x, y):
    """``||log(x^-1/2 y x^-1/2)||_F`` with ``x^-1/2`` from ``eigh`` (reference
    oracle for ``spd.airm_distances``, which whitens by a Cholesky factor)."""
    w, u = np.linalg.eigh(x)
    xi = (u / np.sqrt(w)) @ u.T
    return float(np.linalg.norm(np.log(np.linalg.eigvalsh(sym(xi @ y @ xi)))))


def assemble_L_loop(log_samples, gamma_g, w):
    """Literal double-loop form of ``selection.assemble_L`` (reference oracle):
    ``L = -sum_ij (gamma_G)_ij D_ij W W^T D_ij`` with ``D_ij = log X_i - log X_j``."""
    logs = np.asarray(log_samples, dtype=np.float64)
    n, m, _ = logs.shape
    p = w @ w.T
    out = np.zeros((m, m))
    for i in range(n):
        for j in range(n):
            d = logs[i] - logs[j]
            out -= gamma_g[i, j] * (d @ p @ d)
    return 0.5 * (out + out.T)


def karcher_mean_one_pass(batch):
    """One Karcher-flow step from the arithmetic mean with the whole
    batch whitened, logged and averaged at once (reference oracle for
    ``layers.karcher_mean``, which takes the tangent step in slices)."""
    mean = sym(batch.mean(axis=0))
    half, w, u = eig_fn(mean, np.sqrt)
    rm = eig_fn(mean, lambda v: 1.0 / np.sqrt(v), (w, u))[0]
    tangent = spd_log(rm @ batch @ rm).mean(axis=0)
    return sym(half @ spd_exp(tangent) @ half)


def karcher_mean_iterated(batch):
    """Karcher mean of an SPD batch by fixed-point iteration from the
    arithmetic mean (reference oracle for ``layers.karcher_mean``, which
    takes only the first step).

    Runs 10 iterations or stops when the tangent-space gradient norm
    drops below 1e-9; a residual that grows between iterations is an
    error.
    """
    mean = sym(batch.mean(axis=0))
    prev_res = np.inf
    for _ in range(10):
        w, u = np.linalg.eigh(mean)
        half, rm = (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T
        tangent = spd_log(rm @ batch @ rm).mean(axis=0)
        res = float(np.linalg.norm(tangent))
        if res < 1e-9:
            break
        if res > prev_res * (1.0 + 1e-8):
            raise RuntimeError(
                f"Karcher residual increased from {prev_res:.3e} to {res:.3e}"
            )
        prev_res = res
        mean = sym(half @ spd_exp(tangent) @ half)
    return mean


def check_psd_theorem1(g: np.ndarray, d: np.ndarray) -> float:
    """Smallest eigenvalue of ``H (-1/2 (G^2 - D^2)) H``.

    ``G`` and ``D`` are distance matrices; squaring is entrywise.  When
    both arise as Euclidean distance matrices of a common point set the
    result is nonnegative up to round-off.  A negative value for
    non-metric inputs is a diagnostic, not an error.
    """
    g = np.asarray(g, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if g.shape != d.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(
            f"G and D must be square with equal shapes, got {g.shape}, {d.shape}"
        )
    centered = double_center(g**2 - d**2)
    return float(np.min(np.linalg.eigvalsh(centered)))


def tangent_distance_matrix(samples: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pairwise distances ||W^T (log X_i - log X_j) W||_F."""
    logs = spd_log(np.asarray(samples, dtype=np.float64))
    proj = np.einsum("ji,bjk,kl->bil", w, logs, w)
    diff = proj[:, None] - proj[None, :]
    return np.linalg.norm(diff, axis=(-2, -1))


def train_to_bundle(config, trials):
    """Train on ``trials`` and bundle the model with its config."""
    model, _ = train(config, trials)
    return model_to_bundle(model, config_to_mapping(config))


def selected(model, covs):
    """(B*S*F, m, m): each packed covariance row, unpacked to (M, M), cut
    to the model's selected channels as ``P^T X P``, with ``P`` the
    (M, m) identity columns of those channels."""
    full = unpack(covs)
    big_m = full.shape[-1]
    p = np.eye(big_m)[:, model.channels]
    return p.T @ full.reshape(-1, big_m, big_m) @ p


def eval_whitened(model, covs):
    """(B*S*F, m, m) covariances after the channel cut, the BiMap
    congruence ``W X W^T`` and whitening by ``inv_sqrtm(mean)`` of the
    fitted RBN mean, the RBN map of the folded plan, computed from the
    weights."""
    w = model.bimap.weight
    r = inv_sqrtm(model.rbn.mean)
    return sym(r @ (w @ selected(model, covs) @ w.T) @ r)


def layered_eval_forward(model, covs):
    """Eval logits of ``model`` one layer at a time, rebuilt from its
    weights and the ``spd`` primitives (reference oracle for the folded
    plan ``Model.forward`` runs in eval mode).  Runs no layer forward,
    so it changes no layer state."""
    b, s, f = covs.shape[:3]
    eps = model.reeig.epsilon
    rectified, _, _ = eig_fn(eval_whitened(model, covs), lambda w: np.maximum(w, eps))
    tangent = spd_log(rectified)
    stacked = np.stack([tangent] + [w_k.T @ tangent @ w_k for w_k in model.heads.weights],
                       axis=1)
    conv_out = model.clf.conv_forward(stacked.reshape(b, s, f, -1), model.clf.kernel)
    return model.clf._gated_head(conv_out)[-1]


def layered_train_step(model, covs, labels):
    """Training logits and gradients of ``model`` through its layer
    chain, with LogEig decomposing the ReEig output again, the explicit
    per-head stack ``W_k^T V W_k`` and the unfolded K*m*m conv (reference
    oracle for the training ``Model.forward`` and ``Model.backward``,
    which reuse ReEig's decomposition and fold the heads into the conv
    kernel).  ReEig and RBN run their Daleckii-Krein and whitening
    backwards from the ``spd`` primitives.  Returns ``(logits, grads)``
    with ``grads`` keyed ``bimap``, ``heads`` and ``clf_<name>``."""
    b, s, f = covs.shape[:3]
    eps = model.reeig.epsilon
    r = inv_sqrtm(model.rbn.mean)
    x = model.bimap.forward(selected(model, covs))
    rectified, w, u = eig_fn(sym(r @ x @ r), lambda v: np.maximum(v, eps))
    tangent = model.logeig.forward(rectified)
    heads = np.concatenate([np.eye(model.m)[None], model.heads.weights])  # head 0 is I
    stacked = np.stack([h.T @ tangent @ h for h in heads], axis=1)  # (B*S*F, K, m, m)
    logits = model.clf.forward(stacked.reshape(b, s, f, -1), model.clf.kernel)

    d_stacked = model.clf.backward(cross_entropy(logits, labels)[1])
    d_stacked = d_stacked.reshape(stacked.shape)
    d_tangent = sum(h @ d_stacked[:, j] @ h.T for j, h in enumerate(heads))
    d_heads = np.array([sum(v @ h @ (d + d.T) for v, d in zip(tangent, d_stacked[:, j]))
                        for j, h in enumerate(heads)][1:])
    grad = _eig_fn_backward(model.logeig.backward(d_tangent), w, u,
                            np.maximum(w, eps), (w > eps).astype(np.float64))
    model.bimap.backward(r @ sym(grad) @ r)
    grads = {"bimap": model.bimap.grad_weight,
             "heads": d_heads.reshape(model.heads.weights.shape)}
    grads.update({f"clf_{name}": g for name, g in model.clf.grads.items()})
    return logits, grads


def per_part_step(model, lr):
    """One update of ``model`` by three per-part steps (reference oracle
    for ``Model.step``): plain descent on each classifier parameter with a
    gradient, the projected-QR Stiefel step on the heads' columns unless
    K = 1, and the same step on BiMap's rows, taken on the columns of its
    transpose."""
    clf, heads, bimap = model.clf, model.heads, model.bimap
    for name in ("kernel", "bias", "w1", "w2", "head_w", "head_b"):
        if name in clf.grads:
            setattr(clf, name, getattr(clf, name) - lr * clf.grads[name])
    clf.grads = {}
    if heads.grad_weights is not None and len(heads.weights):
        q = heads.weights
        heads.weights = stiefel_retract(q, -lr * stiefel_project(q, heads.grad_weights))
    heads.grad_weights = None
    if bimap.grad_weight is not None:
        q, g = bimap.weight.T, bimap.grad_weight.T
        bimap.weight = stiefel_retract(q, -lr * stiefel_project(q, g)).T
        bimap.grad_weight = None


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count ``np.linalg.eigh`` calls: one entry per call, holding the
    number of matrices decomposed."""
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class KernelCalls(list):
    """One entry per call of the filter kernel, holding the (n, M, T)
    shape of its block of trials; ``inputs`` holds, per call, the block
    array itself, so a test can ask whether it shares memory with a
    trial (it was not copied) or not."""

    def __init__(self):
        super().__init__()
        self.inputs = []


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count calls of the filter bank's block kernel (see
    :class:`KernelCalls`)."""
    import spdbci.filterbank

    calls = KernelCalls()
    real = spdbci.filterbank._filter_block

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x))
        calls.inputs.append(x)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(spdbci.filterbank, "_filter_block", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
