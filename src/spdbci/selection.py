"""Geometry-aware channel selection.

Learns an orthonormal transform W (channels x m) that makes tangent-space
Euclidean distances between transformed samples track the geodesic
distances on the SPD manifold.  The trace-maximization update alternates
between assembling the coupling matrix L from the double-centered
geodesic Gram matrix and taking the top-m eigenvectors of L.  Channel
scores come from the rows of the retained eigenvector stack.

Also houses the multi-bilinear transform: the identity and K-1 parallel
orthonormal heads, whose tangent-space outputs are stacked along a new
leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    MissingForwardCache,
    NotPositiveDefinite,
)
from .layers import random_stiefel, stiefel_project, stiefel_retract
from .spd import check_spd, double_center, spd_log, sym


def geodesic_matrix(samples: np.ndarray) -> np.ndarray:
    """Pairwise AIRM distance matrix of a stack of SPD matrices.

    Each sample is factored once, ``X_i = L_i L_i^T``.  The eigenvalues
    of ``L_i^-1 X_j L_i^-T`` are those of ``X_i^-1/2 X_j X_i^-1/2``, so
    row i of the matrix takes one batched ``eigvalsh``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < 2:
        raise DimensionMismatch("need at least two samples")
    check_spd(samples, "samples")
    inv_chol = np.linalg.inv(np.linalg.cholesky(samples))
    g = np.zeros((n, n))
    for i in range(n - 1):
        w = np.linalg.eigvalsh(sym(inv_chol[i] @ samples[i + 1 :] @ inv_chol[i].T))
        if np.any(w[:, 0] <= 0):
            raise NotPositiveDefinite("whitened matrix lost positive definiteness")
        g[i, i + 1 :] = g[i + 1 :, i] = np.sqrt(np.sum(np.log(w) ** 2, axis=-1))
    return g


def gamma(dist: np.ndarray) -> np.ndarray:
    """Centered inner-product matrix ``-1/2 H D^2 H`` (entrywise square)."""
    dist = np.asarray(dist, dtype=np.float64)
    return double_center(dist**2)


def assemble_L(log_samples: np.ndarray, gamma_g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coupling matrix ``L = -sum_ij (gamma_G)_ij D_ij W W^T D_ij`` with
    ``D_ij = log X_i - log X_j`` (symmetric).

    The leading minus and the ``D_ij ... D_ij`` ordering follow the
    trace-maximization derivation; L is symmetric by construction.
    """
    logs = np.asarray(log_samples, dtype=np.float64)
    n = logs.shape[0]
    if gamma_g.shape != (n, n):
        raise DimensionMismatch("gamma_G size disagrees with sample count")
    p = w @ w.T
    # Expand the pairwise sum: sum_ij c_ij (L_i - L_j) P (L_i - L_j)
    #   = 2 sum_i r_i L_i P L_i - 2 sum_ij c_ij L_i P L_j   (c symmetric)
    # with r_i = sum_j c_ij.
    c = gamma_g
    r = c.sum(axis=1)
    lp = np.einsum("bij,jk->bik", logs, p)
    term1 = np.einsum("b,bij,bjk->ik", r, lp, logs)
    term2 = np.einsum("ab,aij,bjk->ik", c, lp, logs)
    return sym(-(2.0 * term1 - 2.0 * term2))


def update_W(l_matrix: np.ndarray, m: int) -> np.ndarray:
    """Top-m eigenvectors of a symmetric L; maximizes tr(W^T L W) over
    orthonormal W (Rayleigh quotient)."""
    l_matrix = sym(np.asarray(l_matrix, dtype=np.float64))
    w_eig, u = np.linalg.eigh(l_matrix)
    return u[:, ::-1][:, :m]


@dataclass
class SelectionTransform:
    """The channel subset a learned orthonormal transform implies."""

    selected_channels: list[int]
    iterations_run: int
    objective_trace: list[float]


def score_channels(w: np.ndarray, m: int, rule: str = "row-norm") -> list[int]:
    """Rank channels by participation in the retained eigenvector stack.

    ``row-norm`` scores channel r by the l2 norm of row r of W and keeps
    the m largest; ``argmax`` takes the largest-magnitude entry of each
    eigenvector instead.
    """
    if rule == "row-norm":
        scores = np.linalg.norm(w, axis=1)
        picked = np.argsort(scores)[::-1][:m]
    elif rule == "argmax":
        picked = []
        for col in range(w.shape[1]):
            order = np.argsort(np.abs(w[:, col]))[::-1]
            for idx in order:
                if idx not in picked:
                    picked.append(idx)
                    break
        picked = np.asarray(picked[:m])
    else:
        raise ConfigError(f"unknown scoring rule {rule!r}")
    return sorted(int(i) for i in picked)


def fit_selection(
    samples: np.ndarray,
    m: int,
    max_iters: int = 20,
    tol: float = 1e-6,
    scoring: str = "row-norm",
) -> SelectionTransform:
    """Alternate L-assembly and eigenvector updates until the retained
    subspace stabilizes.

    ``samples`` are SPD matrices, one per group: the pipeline passes one
    representative per (class, band) (see
    :func:`spdbci.trainer.class_band_representatives`), so the distance
    structure reflects between-group geometry rather than within-group
    noise.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n, big_m = samples.shape[0], samples.shape[1]
    if not (1 <= m <= big_m):
        raise DimensionMismatch(f"m={m} must lie in 1..{big_m}")
    if n < 2:
        raise DimensionMismatch("need at least two samples")

    logs = spd_log(samples)
    gamma_g = gamma(geodesic_matrix(samples))

    w = np.eye(big_m)[:, :m]
    trace: list[float] = []
    l_matrix = assemble_L(logs, gamma_g, w)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        w_new = update_W(l_matrix, m)
        objective = float(np.trace(w_new.T @ l_matrix @ w_new))
        if trace and objective < trace[-1] - 1e-9 * max(1.0, abs(trace[-1])):
            raise ConvergenceFailure(
                f"objective decreased: {trace[-1]:.12e} -> {objective:.12e}"
            )
        trace.append(objective)
        drift = np.linalg.norm(w_new @ w_new.T - w @ w.T)
        w = w_new
        if drift < tol:
            break
        l_matrix = assemble_L(logs, gamma_g, w)

    return SelectionTransform(
        selected_channels=score_channels(w, m, scoring),
        iterations_run=iterations,
        objective_trace=trace,
    )


# ---------------------------------------------------------------------------
# Multi-bilinear transform heads
# ---------------------------------------------------------------------------

@dataclass
class MbtHeads:
    """K maps applied in parallel to an (m, m) tangent batch.

    Head 0 is the identity pass-through; heads 1..K-1 are
    ``head_k(V) = W_k^T V W_k`` with ``weights`` the (K-1, m, m) stack of
    orthonormal W_k, all trained by the downstream loss with one batched
    Stiefel retraction step.
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

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """(B, m, m) tangent batch -> (B, K, m, m): the batch, then the
        trained heads' outputs."""
        self._cache = batch
        w = self.weights
        out = np.empty((len(batch), self.K) + batch.shape[1:])
        out[:, 0] = batch
        np.matmul(np.swapaxes(w, -1, -2) @ batch[:, None], w, out=out[:, 1:])
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """grad: (B, K, m, m) -> input gradient (B, m, m); the gradient of
        heads 1..K-1 lands on ``grad_weights``."""
        if self._cache is None:
            raise MissingForwardCache("MBT backward before forward")
        v, w = self._cache, self.weights
        k, m, _ = w.shape
        g = grad[:, 1:]
        # pairs[(k, a, c), (i, j)] = W_k[i, a] W_k[j, c], so the input
        # gradient G_0 + sum_k W_k G_k W_k^T takes one product over the
        # flat G of the trained heads
        pairs = np.einsum("kia,kjc->kacij", w, w).reshape(k * m * m, m * m)
        d_input = grad[:, 0] + (g.reshape(len(grad), -1) @ pairs).reshape(-1, m, m)
        # sum_b V_b W_k (G_bk + G_bk^T): contract the batch first, in one
        # product, then W_k
        vg = np.tensordot(v, g + np.swapaxes(g, -1, -2), axes=(0, 0))  # (m, m, K-1, m, m)
        self.grad_weights = np.einsum("ijkac,kja->kic", vg, w)
        return d_input

    def step(self, lr: float) -> None:
        # with K = 1 there is no head to train, and no linalg call runs on
        # the empty stack
        if self.grad_weights is not None and len(self.weights):
            q = self.weights
            self.weights = stiefel_retract(q, -lr * stiefel_project(q, self.grad_weights))
        self.grad_weights = None
