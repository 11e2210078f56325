"""Differentiable layers on SPD batches: BiMap, ReEig, Riemannian batch
normalization, and LogEig.

All gradients are derived analytically.  Eigenvalue-function backward
passes use the Daleckii-Krein divided-difference form; eigenvalue pairs
closer than 1e-12 fall back to the diagonal limit f'(lambda).  LogEig
and the Karcher mean reject a spectrum with ``w_min <= 0`` or a NaN
through :func:`spdbci.spd.require_positive`, and ReEig a non-finite
spectrum, so a NaN or infinite input raises
:class:`~spdbci.errors.NotPositiveDefinite`.

Batches are arrays of shape (B, n, n); layers whose backward needs their
forward pass cache it and raise :class:`MissingForwardCache` if backward
is called first.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, MissingForwardCache, NotPositiveDefinite
from .spd import (_eigh, eig_fn, inv_sqrtm, require_positive, right_product, spd_exp, spd_log,
                  sym, transposed)

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


def stiefel_step(q: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One descent step of ``q`` (``q^T q = I``, stacks allowed) along the
    projection of the Euclidean gradient ``grad``, retracted by QR."""
    return stiefel_retract(q, -lr * stiefel_project(q, grad))


def random_stiefel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Random n x p matrix with orthonormal columns (QR of a Gaussian)."""
    return stiefel_retract(np.zeros((n, p)), rng.standard_normal((n, p)))


# ---------------------------------------------------------------------------
# The Daleckii-Krein backward of spd.eig_fn, shared by ReEig and LogEig
# ---------------------------------------------------------------------------

def _eig_fn_backward(
    grad: np.ndarray, w: np.ndarray, u: np.ndarray, fw: np.ndarray, dfw: np.ndarray
) -> np.ndarray:
    """Daleckii-Krein backward of :func:`~spdbci.spd.eig_fn`:
    grad_X = U (K o (U^T sym(G) U)) U^T with K_ij = (f(w_i) - f(w_j)) /
    (w_i - w_j) and K_ii = f'(w_i), given ``fw = f(w)`` and ``dfw = f'(w)``.

    The kernel is built with the eigenvalue axis first, as (m, m, ...)
    arrays whose last axis runs over the batch: each pairwise operation
    then runs one long contiguous loop instead of a short one per
    matrix, about twice as fast at (1152, 5, 5).  Near pairs take
    ``f'(w_i)`` by one masked copy.  ``U^T`` is
    :func:`~spdbci.spd.transposed`, a contiguous copy at small orders.
    Each entry takes the same operations on the same operands as the
    broadcast form, so the bits are the same."""
    w, fw, dfw = (np.ascontiguousarray(np.moveaxis(v, -1, 0)) for v in (w, fw, dfw))
    diff = w[:, None] - w[None, :]
    near = np.abs(diff) < DEGENERATE_EIG_TOL
    np.copyto(diff, 1.0, where=near)
    k = fw[:, None] - fw[None, :]
    k /= diff
    np.copyto(k, np.broadcast_to(dfw[:, None], k.shape), where=near)
    ut = transposed(u)
    inner = ut @ sym(grad) @ u
    inner *= np.moveaxis(k, (0, 1), (-2, -1))
    return u @ inner @ ut


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class BiMapLayer:
    """Bilinear map X -> W X W^T, W (p, n) with orthonormal rows.

    The forward keeps ``W X`` as its cache, not the batch: the backward's
    weight gradient needs that product, and the backward drops it, so
    each backward needs a forward of its own.  The right products,
    ``(W X) W^T`` and the input gradient's ``(W^T G) W``, are
    :func:`~spdbci.spd.right_product`, with the bits of ``w @ x @ w.T``
    and ``w.T @ g @ w``.
    """

    def __init__(self, weight: np.ndarray):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.grad_weight: np.ndarray | None = None
        self._cache: np.ndarray | None = None

    def forward(self, batch: np.ndarray) -> np.ndarray:
        w = self.weight
        wx = self._cache = w @ batch
        return right_product(wx, w.T)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise MissingForwardCache("BiMap backward before forward")
        wx, self._cache = self._cache, None
        w = self.weight
        gsym = grad + np.swapaxes(grad, -1, -2)
        # dL/dW = sum_b (G_b + G_b^T) W X_b (X symmetric): one contraction
        # over the batch and the inner index
        self.grad_weight = np.tensordot(gsym, wx, ([0, 2], [0, 1]))
        return right_product(w.T @ grad, w)


class ReEigLayer:
    """Eigenvalue rectification X -> U diag(max(w, eps)) U^T of
    ``sym(X) = U diag(w) U^T``.

    The forward keeps ``(w, U)`` for the backward and for
    :attr:`output_eig`.  When every eigenvalue of the batch is above
    ``eps`` the map is the identity on ``sym(X)``, so that is returned
    as is; only a batch with a clamped eigenvalue forms the product.  A
    spectrum with a NaN or infinite eigenvalue, which a non-finite entry
    gives, raises :class:`~spdbci.errors.NotPositiveDefinite`: the test
    runs on the (..., n) spectrum, not on the batch.
    """

    def __init__(self, epsilon: float = 1e-4):
        if epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        self.epsilon = epsilon
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, batch: np.ndarray) -> np.ndarray:
        x = sym(batch)
        w, u = _eigh(x, "ReEig input")
        if not np.isfinite(w).all():
            raise NotPositiveDefinite("ReEig input has a non-finite eigenvalue")
        self._cache = w, u
        eps = self.epsilon
        if np.all(w[..., 0] > eps):
            return x
        return eig_fn(x, lambda v: np.maximum(v, eps), (w, u))[0]

    @property
    def output_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """``(max(w, eps), u)``: the eigendecomposition of the output of
        the last forward, which :class:`LogEigLayer` can reuse."""
        if self._cache is None:
            raise MissingForwardCache("ReEig output decomposition before forward")
        w, u = self._cache
        return np.maximum(w, self.epsilon), u

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Daleckii-Krein backward.  With every eigenvalue of the batch
        above the floor the layer is the identity and its kernel is all
        ones, so the gradient is ``sym(grad)`` and no product runs."""
        if self._cache is None:
            raise MissingForwardCache("ReEig backward before forward")
        w, u = self._cache
        eps = self.epsilon
        if np.all(w[..., 0] > eps):
            return sym(grad)
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
        out, w, u = eig_fn(batch, lambda v: np.log(require_positive(v, "LogEig input")), eig)
        self._cache = (w, u)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise MissingForwardCache("LogEig backward before forward")
        w, u = self._cache
        return _eig_fn_backward(grad, w, u, np.log(w), 1.0 / w)


#: Matrices that :func:`karcher_mean` whitens and takes the log of at a
#: time, so its tangent step holds a few slices of temporaries, not a
#: few copies of the batch.  On one 1152-matrix 22 x 22 group (one class
#: and band of the select-22ch benchmark), one thread of a 2-core x86-64
#: VM: the temporaries peaked at 17.2 MiB in one pass and 1.2 MiB in
#: slices of 64, and the mean took 61 ms and 55 ms (medians of 15
#: rounds); slices of 16-256 all ran within 2% of 55 ms.
KARCHER_SLICE = 64


def karcher_mean(batch: np.ndarray) -> np.ndarray:
    """Mean of an SPD batch under the affine-invariant metric, taken as
    one Karcher-flow step from the arithmetic mean (Brooks et al.,
    NeurIPS 2019).

    The step is exact for a commuting batch.  A batch whose arithmetic
    mean or members are not positive definite raises
    :class:`NotPositiveDefinite`.

    The arithmetic mean is one reduction, with no temporary.  The
    tangent step runs over :data:`KARCHER_SLICE` matrices at a time and
    carries a running sum: each slice's first log is added to the sum of
    the slices before it, and the slice is then summed over its first
    axis.  numpy sums an (N, n, n) array over that axis one matrix after
    another when n > 1, so the result equals the one-pass
    ``spd_log(rm @ batch @ rm).mean(axis=0)`` bit for bit, with each
    slice's right product by ``rm`` taken by
    :func:`~spdbci.spd.right_product` (the stacked product's bits at 8
    and 22 channels).  At n = 1 numpy sums pairwise along the contiguous
    axis, so a 1 x 1 batch runs as one slice.
    """
    mean = sym(batch.mean(axis=0))
    half, w, u = eig_fn(mean, lambda v: np.sqrt(
        require_positive(v, "karcher_mean's arithmetic mean")))
    rm = eig_fn(mean, lambda v: 1.0 / np.sqrt(v), (w, u))[0]
    n = len(batch)
    step = KARCHER_SLICE if mean.shape[-1] > 1 else n
    total = None
    for start in range(0, n, step):
        logs = spd_log(right_product(rm @ batch[start : start + step], rm))
        if total is not None:
            logs[0] += total
        total = logs.sum(axis=0)
    return sym(half @ spd_exp(total / n) @ half)


class RbnLayer:
    """Riemannian batch normalization with a fitted reference: the
    congruence ``X -> r X r`` by ``r = whitener = mean^(-1/2)``, where
    ``mean`` is set once before training (the re-centring of Zanini et
    al., IEEE TBME 2018) and the forward never moves it, so training and
    the folded plan of :class:`~spdbci.model.Model` run the same map.
    The model owns that fit, :meth:`~spdbci.model.Model.fit_reference`:
    it sets ``mean`` to the :func:`karcher_mean` of the class-band
    representatives, cut to the selected channels and seen through the
    initial BiMap weight.  Setting ``mean``, by that fit or a bundle
    load, computes the whitener once.  The output is symmetric to
    round-off; :class:`ReEigLayer` symmetrises it before decomposing.
    The backward is the adjoint ``G -> r G r`` and treats ``r`` as a
    statistic (no gradient flows through the mean).  Both take the right
    product by ``r`` as :func:`~spdbci.spd.right_product`, with the bits
    of ``r @ x @ r``.
    """

    def __init__(self, dim: int):
        self._mean = self.whitener = np.eye(dim)

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @mean.setter
    def mean(self, value: np.ndarray) -> None:
        self.whitener = inv_sqrtm(value)
        self._mean = value

    def forward(self, batch: np.ndarray) -> np.ndarray:
        return right_product(self.whitener @ batch, self.whitener)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return right_product(self.whitener @ grad, self.whitener)
