"""Geometry-aware channel selection.

Learns an orthonormal transform W (channels x m) that makes tangent-space
Euclidean distances between transformed samples track the geodesic
distances on the SPD manifold.  The trace-maximization update alternates
between assembling the coupling matrix L from the double-centered
geodesic Gram matrix and taking the top-m eigenvectors of L.  The
geodesic distances come from the one AIRM kernel,
:func:`spdbci.spd.airm_distances`.  Channel scores come from the rows
of the retained eigenvector stack.

Also houses the multi-bilinear transform: the identity and K-1 parallel
orthonormal heads, which act on the classifier's conv kernel by folding
its K per-head slices into one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceFailure, DimensionMismatch, MissingForwardCache
from .layers import random_stiefel
from .spd import _eigh, airm_distances, check_spd, spd_log, sym, transposed


def geodesic_matrix(samples: np.ndarray) -> np.ndarray:
    """Pairwise AIRM distance matrix of a stack of SPD matrices.

    Each sample is factored once, ``X_i = L_i L_i^T``, and row i of the
    matrix is one :func:`~spdbci.spd.airm_distances` call from ``X_i``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < 2:
        raise DimensionMismatch("need at least two samples")
    check_spd(samples, "samples")
    inv_chol = np.linalg.inv(np.linalg.cholesky(samples))
    g = np.zeros((n, n))
    for i in range(n - 1):
        g[i, i + 1 :] = g[i + 1 :, i] = airm_distances(inv_chol[i], samples[i + 1 :])
    return g


def gamma(dist: np.ndarray) -> np.ndarray:
    """Centered inner-product matrix ``-1/2 H D^2 H`` (entrywise square)
    with ``H = I - (1/n) 1 1^T`` the centering matrix."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    return sym(-0.5 * (h @ dist**2 @ h))


def assemble_L(log_samples: np.ndarray, gamma_g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coupling matrix ``L = -sum_ij (gamma_G)_ij D_ij W W^T D_ij`` with
    ``D_ij = log X_i - log X_j`` (symmetric).

    The leading minus and the ``D_ij ... D_ij`` ordering follow the
    trace-maximization derivation; L is symmetric by construction.
    With ``c = gamma_G`` symmetric, ``P = W W^T`` and ``L_a = log X_a``,
    the pairwise sum expands to

        L = -2 sum_a L_a P d_a,    d_a = sum_b c_ab (L_a - L_b),

    which is two matrix products after the n products ``P L_a``: the
    mix ``d`` of all a, and the contraction over (a, j) of the stacked
    ``(L_a P)^T = P L_a`` with the stacked ``d_a``.  For n samples of M
    channels that costs O(n M^3 + n^2 M^2) in BLAS instead of the
    n^2 M^3 of the pairwise sum.  The logs are centred on their mean
    first: that leaves every ``D_ij`` unchanged, and keeps ``d`` from
    cancelling a common part of the logs much larger than their spread
    (the log of the signal scale, for EEG covariances).
    """
    logs = np.asarray(log_samples, dtype=np.float64)
    n, big_m = logs.shape[:2]
    if gamma_g.shape != (n, n):
        raise DimensionMismatch("gamma_G size disagrees with sample count")
    logs = logs - logs.mean(axis=0)
    d = gamma_g.sum(axis=1)[:, None, None] * logs - np.tensordot(gamma_g, logs, (1, 0))
    pl = (w @ w.T) @ logs
    return sym(-2.0 * (pl.reshape(n * big_m, big_m).T @ d.reshape(n * big_m, big_m)))


def update_W(l_matrix: np.ndarray, m: int) -> np.ndarray:
    """Top-m eigenvectors of a symmetric L; maximizes tr(W^T L W) over
    orthonormal W (Rayleigh quotient)."""
    l_matrix = sym(np.asarray(l_matrix, dtype=np.float64))
    w_eig, u = _eigh(l_matrix, "L")
    return u[:, ::-1][:, :m]


@dataclass
class SelectionTransform:
    """The channel subset a learned orthonormal transform implies."""

    selected_channels: list[int]
    iterations_run: int
    objective_trace: list[float]
    #: ``||W W^T - W0 W0^T||_F`` of the last iteration, W0 the transform
    #: it started from: below ``tol`` when the fit converged
    final_drift: float


def score_channels(w: np.ndarray, m: int) -> list[int]:
    """Rank channels by participation in the retained eigenvector stack:
    channel r scores the l2 norm of row r of W, and the m largest are
    kept, in ascending order."""
    picked = np.argsort(np.linalg.norm(w, axis=1))[::-1][:m]
    return sorted(int(i) for i in picked)


def fit_selection(
    samples: np.ndarray,
    m: int,
    max_iters: int = 20,
    tol: float = 1e-6,
    scoring: str = "row-norm",
) -> SelectionTransform:
    """Alternate L-assembly and eigenvector updates until the retained
    subspace stabilizes: iteration t assembles L at the current W,
    takes its top-m eigenvectors and stops once ``W W^T`` moved by less
    than ``tol``, or after ``max_iters`` iterations.  Each iteration
    assembles L once, so a fit makes ``iterations_run`` assemblies.

    ``samples`` are SPD matrices, one per group: the pipeline passes one
    representative per (class, band) (see
    :func:`spdbci.trainer.class_band_representatives`), so the distance
    structure reflects between-group geometry rather than within-group
    noise.  ``scoring`` names the rule of :func:`score_channels`:
    ``row-norm``, the one rule; any other raises :class:`ConfigError`.
    """
    if scoring != "row-norm":
        raise ConfigError(f"unknown channel scoring rule {scoring!r}: 'row-norm' is the only one")
    samples = np.asarray(samples, dtype=np.float64)
    n, big_m = samples.shape[0], samples.shape[1]
    if not (1 <= m <= big_m):
        raise DimensionMismatch(f"m={m} must lie in 1..{big_m}")
    if n < 2:
        raise DimensionMismatch("need at least two samples")
    if max_iters < 1:
        raise ConfigError(f"max_iters={max_iters} must be at least 1")

    logs = spd_log(samples)
    gamma_g = gamma(geodesic_matrix(samples))

    w = np.eye(big_m)[:, :m]
    trace: list[float] = []
    for iterations in range(1, max_iters + 1):
        l_matrix = assemble_L(logs, gamma_g, w)
        w_new = update_W(l_matrix, m)
        objective = float(np.trace(w_new.T @ l_matrix @ w_new))
        if trace and objective < trace[-1] - 1e-9 * max(1.0, abs(trace[-1])):
            raise ConvergenceFailure(
                f"objective decreased: {trace[-1]:.12e} -> {objective:.12e}"
            )
        trace.append(objective)
        drift = float(np.linalg.norm(w_new @ w_new.T - w @ w.T))
        w = w_new
        if drift < tol:
            break

    return SelectionTransform(
        selected_channels=score_channels(w, m),
        iterations_run=iterations,
        objective_trace=trace,
        final_drift=drift,
    )


# ---------------------------------------------------------------------------
# Multi-bilinear transform heads
# ---------------------------------------------------------------------------

@dataclass
class MbtHeads:
    """K maps applied in parallel to an (m, m) tangent, folded into the
    conv kernel that reads their outputs.

    Head 0 is the identity pass-through; heads 1..K-1 are
    ``head_k(V) = W_k^T V W_k`` with ``weights`` the (K-1, m, m) stack of
    orthonormal W_k, trained by :meth:`~spdbci.model.Model.step`.  A
    conv kernel with one (m, m) slice K_k per head reads the heads'
    outputs as ``sum_k <head_k(V), K_k> = <V, E>`` with
    ``E = K_0 + sum_k W_k K_k W_k^T``, so the heads act on the
    kernel, once per step, instead of on every tangent of the batch.
    """

    weights: np.ndarray
    grad_weights: np.ndarray | None = None  # (K-1, m, m)
    _cache: np.ndarray | None = None

    @property
    def K(self) -> int:
        return 1 + self.weights.shape[0]

    @classmethod
    def initialize(cls, m: int, k: int, rng: np.random.Generator) -> "MbtHeads":
        """k - 1 random orthonormal m x m heads."""
        heads = [random_stiefel(rng, m, m) for _ in range(k - 1)]
        return cls(np.reshape(heads, (k - 1, m, m)))

    def forward(self, kernel: np.ndarray) -> np.ndarray:
        """(..., K*m*m) kernel, one (m, m) slice per head -> the folded
        (..., m*m) kernel ``E`` that reads the tangent itself."""
        w = self.weights
        m = w.shape[-1]
        k = self._cache = kernel.reshape(kernel.shape[:-1] + (self.K, m, m))
        folded = k[..., 0, :, :] + (w @ k[..., 1:, :, :] @ transposed(w)).sum(axis=-3)
        return folded.reshape(kernel.shape[:-1] + (m * m,))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """grad: (..., m*m) gradient of the folded kernel -> (..., K*m*m)
        gradient of the kernel slices, ``dE`` then ``W_k^T dE W_k``; the
        gradient of heads 1..K-1, ``sum dE W_k K_k^T + dE^T W_k K_k`` over
        the leading axes, lands on ``grad_weights``."""
        if self._cache is None:
            raise MissingForwardCache("MBT backward before forward")
        w = self.weights
        m = w.shape[-1]
        k = self._cache.reshape(-1, self.K, m, m)
        de = grad.reshape(-1, m, m)
        d_kernel = np.concatenate([de[:, None], np.swapaxes(w, -1, -2) @ de[:, None] @ w],
                                  axis=1)
        # t[i, a, k, j, b] = sum_n dE_n[i, a] K_nk[j, b]: contract the
        # leading axes first, in one product, then W_k
        t = np.tensordot(de, k[:, 1:], axes=(0, 0))
        self.grad_weights = np.einsum("iakjb,kab->kij", t + t.transpose(1, 0, 2, 4, 3), w)
        return d_kernel.reshape(grad.shape[:-1] + (-1,))
