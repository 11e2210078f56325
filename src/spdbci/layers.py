"""Differentiable layers on SPD batches: BiMap, ReEig, Riemannian batch
normalization, and LogEig.

All gradients are derived analytically.  Eigenvalue-function backward
passes use the Daleckii-Krein divided-difference form; eigenvalue pairs
closer than 1e-12 fall back to the diagonal limit f'(lambda).  Weights
constrained to the Stiefel manifold are updated by projecting the
Euclidean gradient onto the tangent space and retracting with a QR
factorization, so orthonormality is preserved to round-off.

Batches are arrays of shape (B, n, n); layers cache their forward pass
and raise :class:`MissingForwardCache` if backward is called first.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, MissingForwardCache, NotPositiveDefinite
from .spd import eig_fn, inv_sqrtm, spd_exp, spd_log, sym

DEGENERATE_EIG_TOL = 1e-12


# ---------------------------------------------------------------------------
# Stiefel manifold helpers (matrices with orthonormal columns)
# ---------------------------------------------------------------------------

def stiefel_project(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient ``z`` onto the tangent space of the
    Stiefel manifold at ``q`` (``q^T q = I``); both may be stacks
    ``(..., n, p)``."""
    return z - q @ sym(np.swapaxes(q, -1, -2) @ z)


def stiefel_retract(q: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """QR retraction of ``q + delta`` back onto the Stiefel manifold
    (batched over leading axes).

    The sign of each R diagonal is fixed so the retraction is a
    deterministic, continuous map.
    """
    qn, r = np.linalg.qr(q + delta)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return qn * signs[..., None, :]


def random_stiefel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Random n x p matrix with orthonormal columns (QR of a Gaussian)."""
    return stiefel_retract(np.zeros((n, p)), rng.standard_normal((n, p)))


# ---------------------------------------------------------------------------
# On spd.eig_fn: the shared Daleckii-Krein backward and the eigenvalue
# maps of LogEig and the Karcher-flow step
# ---------------------------------------------------------------------------

def _eig_fn_backward(
    grad: np.ndarray, w: np.ndarray, u: np.ndarray, fw: np.ndarray, dfw: np.ndarray
) -> np.ndarray:
    """Daleckii-Krein backward of :func:`~spdbci.spd.eig_fn`:
    grad_X = U (K o (U^T sym(G) U)) U^T with K_ij = (f(w_i) - f(w_j)) /
    (w_i - w_j) and K_ii = f'(w_i), given ``fw = f(w)`` and ``dfw = f'(w)``."""
    diff = w[..., :, None] - w[..., None, :]
    near = np.abs(diff) < DEGENERATE_EIG_TOL
    denom = np.where(near, 1.0, diff)
    k = np.where(near, dfw[..., :, None], (fw[..., :, None] - fw[..., None, :]) / denom)
    ut = np.swapaxes(u, -1, -2)
    inner = ut @ sym(grad) @ u
    return u @ (k * inner) @ ut


def _log_positive(w: np.ndarray) -> np.ndarray:
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite("LogEig input is not positive definite")
    return np.log(w)


def _sqrt_and_inv_sqrt(w: np.ndarray) -> np.ndarray:
    """Eigenvalue functions of ``(x^(1/2), x^(-1/2))``, stacked so one
    :func:`~spdbci.spd.eig_fn` call returns both."""
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite("matrix square root requires a positive definite input")
    sq = np.sqrt(w)
    return np.stack([sq, 1.0 / sq])


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class BiMapLayer:
    """Bilinear map X -> W X W^T with orthonormal rows kept by the step."""

    def __init__(self, weight: np.ndarray):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.grad_weight: np.ndarray | None = None
        self._cache: np.ndarray | None = None

    def forward(self, batch: np.ndarray) -> np.ndarray:
        self._cache = batch
        w = self.weight
        return w @ batch @ w.T

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise MissingForwardCache("BiMap backward before forward")
        x = self._cache
        w = self.weight
        gsym = grad + np.swapaxes(grad, -1, -2)
        # dL/dW = (G + G^T) W X  summed over the batch (X symmetric)
        self.grad_weight = (gsym @ (w @ x)).sum(axis=0)
        return w.T @ grad @ w

    def step(self, lr: float) -> None:
        if self.grad_weight is None:
            return
        q = self.weight.T  # columns orthonormal
        g = self.grad_weight.T
        self.weight = stiefel_retract(q, -lr * stiefel_project(q, g)).T
        self.grad_weight = None


class ReEigLayer:
    """Eigenvalue rectification X -> U diag(max(w, eps)) U^T."""

    def __init__(self, epsilon: float = 1e-4):
        if epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        self.epsilon = epsilon
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, batch: np.ndarray) -> np.ndarray:
        out, w, u = eig_fn(batch, lambda v: np.maximum(v, self.epsilon))
        self._cache = (w, u)
        return out

    @property
    def output_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``(max(w, eps), u)``: the eigendecomposition of the output of
        the last forward, which :class:`LogEigLayer` can reuse."""
        if self._cache is None:
            raise MissingForwardCache("ReEig output decomposition before forward")
        w, u = self._cache
        return np.maximum(w, self.epsilon), u

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise MissingForwardCache("ReEig backward before forward")
        w, u = self._cache
        eps = self.epsilon
        # subgradient 0 at clamped eigenvalues, matching ReLU at the kink
        return _eig_fn_backward(
            grad, w, u, np.maximum(w, eps), (w > eps).astype(np.float64)
        )


class LogEigLayer:
    """Matrix logarithm mapping an SPD batch into its tangent space."""

    def __init__(self):
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(
        self, batch: np.ndarray, eig: tuple[np.ndarray, np.ndarray] | None = None
    ) -> np.ndarray:
        """``eig`` is the decomposition ``(w, u)`` of ``batch`` when the
        caller already holds it, such as :attr:`ReEigLayer.output_eig`;
        forward and backward then run on it and no ``eigh`` runs."""
        out, w, u = eig_fn(batch, _log_positive, eig)
        self._cache = (w, u)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise MissingForwardCache("LogEig backward before forward")
        w, u = self._cache
        return _eig_fn_backward(grad, w, u, np.log(w), 1.0 / w)


def karcher_mean(batch: np.ndarray) -> np.ndarray:
    """Mean of an SPD batch under the affine-invariant metric, taken as
    one Karcher-flow step from the arithmetic mean (Brooks et al.,
    NeurIPS 2019).

    The step is exact for a commuting batch.  A batch whose arithmetic
    mean or members are not positive definite raises
    :class:`NotPositiveDefinite`.
    """
    mean = sym(batch.mean(axis=0))
    (half, rm), _, _ = eig_fn(mean, _sqrt_and_inv_sqrt)
    tangent = spd_log(rm @ batch @ rm).mean(axis=0)
    return sym(half @ spd_exp(tangent) @ half)


class RbnLayer:
    """Riemannian batch normalization with a fitted reference: whiten by
    ``r = mean^(-1/2)``, where :meth:`fit` sets ``mean`` once before
    training (the re-centring of Zanini et al., IEEE TBME 2018) and the
    forward never moves it, so training and the folded plan of
    :class:`~spdbci.model.Model` run the same map.  The backward treats
    ``r`` as a statistic (no gradient flows through the mean).
    """

    def __init__(self, dim: int):
        self.mean = np.eye(dim)
        self._whitener: np.ndarray | None = None

    def fit(self, batch: np.ndarray) -> None:
        """Set ``mean`` to the :func:`karcher_mean` of an SPD batch."""
        self.mean = karcher_mean(batch)

    def forward(self, batch: np.ndarray) -> np.ndarray:
        r = self._whitener = inv_sqrtm(self.mean)
        return sym(r @ batch @ r)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._whitener is None:
            raise MissingForwardCache("RBN backward before forward")
        r = self._whitener
        return r @ sym(grad) @ r
