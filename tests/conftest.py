import numpy as np
import pytest

from spdbci.config import config_to_mapping
from spdbci.errors import DimensionMismatch
from spdbci.layers import _sqrt_and_inv_sqrt
from spdbci.model import model_to_bundle
from spdbci.spd import double_center, eig_fn, inv_sqrtm, spd_exp, spd_log, sym
from spdbci.trainer import train


def random_spd(rng, n, batch=None):
    """Well-conditioned random SPD matrices."""
    shape = (batch, n, n) if batch else (n, n)
    a = rng.standard_normal(shape)
    return a @ np.swapaxes(a, -1, -2) + n * np.eye(n)


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
        (half, rm), _, _ = eig_fn(mean, _sqrt_and_inv_sqrt)
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
    """(B*S*F, m, m): each (M, M) covariance cut to the model's selected
    channels as ``P^T X P``, with ``P`` its (M, m) selection matrix."""
    big_m = covs.shape[-1]
    p = model.selection
    return p.T @ covs.reshape(-1, big_m, big_m) @ p


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
    conv_out = model.clf.conv_forward(stacked.reshape(b, s, f, -1))
    return model.clf._gated_head(conv_out)[-1]


def layered_train_forward(model, covs):
    """Training logits of ``model`` through its layer chain with LogEig
    decomposing the ReEig output again (reference oracle for the
    training ``Model.forward``, where LogEig reuses ReEig's
    decomposition).  Leaves every layer's cache set for
    ``model.backward``."""
    b, s, f = covs.shape[:3]
    x = model.bimap.forward(selected(model, covs))
    tangent = model.logeig.forward(model.reeig.forward(model.rbn.forward(x)))
    stacked = model.heads.forward(tangent)
    return model.clf.forward(stacked.reshape(b, s, f, -1))


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


@pytest.fixture
def lfilter_calls(monkeypatch):
    """Count ``scipy.signal.lfilter`` calls made by the filter bank: one
    entry per call, holding the shape of the filtered array."""
    import spdbci.filterbank

    calls = []
    real = spdbci.filterbank.signal.lfilter

    def counting(b, a, x, *args, **kwargs):
        calls.append(np.shape(x))
        return real(b, a, x, *args, **kwargs)

    monkeypatch.setattr(spdbci.filterbank.signal, "lfilter", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
