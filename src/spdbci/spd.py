"""Symmetric positive-definite matrix algebra.

The package's one covariance estimator, shrunk by a fixed fraction of
its own trace; the eigenvalue-function primitive and the matrix log,
exp and inverse root built on it; the affine-invariant geodesic
distance; and the double-centering identities used by the
channel-selection objective.  Everything here is pure and operates on
plain ``numpy`` arrays; batched inputs use leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

# Relative symmetry tolerance for inputs claiming to be symmetric.
SYM_RTOL = 1e-10
# An SPD matrix must satisfy lambda_min > SPD_RTOL * lambda_max.
SPD_RTOL = 1e-12
#: Covariance shrinkage: ``eps = SHRINKAGE_SCALE * trace / M`` per window.
SHRINKAGE_SCALE = 1e-4


def is_symmetric(x: np.ndarray, rtol: float = SYM_RTOL) -> bool:
    """True if ``x`` is symmetric within a relative tolerance."""
    scale = max(float(np.max(np.abs(x))), 1.0)
    return bool(np.max(np.abs(x - np.swapaxes(x, -1, -2))) <= rtol * scale)


def sym(x: np.ndarray) -> np.ndarray:
    """Symmetric part ``(x + x^T) / 2`` (over the trailing two axes)."""
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def check_spd(x: np.ndarray, name: str = "matrix") -> None:
    """Raise unless ``x`` is symmetric positive definite.

    Positive definiteness is declared when the smallest eigenvalue
    exceeds ``SPD_RTOL`` times the largest.
    """
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {x.shape}")
    if not is_symmetric(x):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(x)
    wmax = np.max(w, axis=-1)
    wmin = np.min(w, axis=-1)
    if np.any(wmin <= SPD_RTOL * np.maximum(wmax, 0.0)) or np.any(wmax <= 0):
        raise NotPositiveDefinite(f"{name} is not positive definite")


def covariance(window: np.ndarray) -> np.ndarray:
    """Shrunk spatial covariance ``C + eps I`` of one window or a batch.

    ``window`` is channels x samples, or ``(..., M, L)`` for a batch of
    windows.  ``C = (1/L) Z Z^T`` with ``Z`` the row-mean-centred window,
    and ``eps = max(SHRINKAGE_SCALE * trace(C) / M, 1e-12)``, so every
    output is SPD, a zero or rank-deficient window included.  Each
    matrix of a batch equals the 2-D call on its window bit for bit
    when the windows are C-contiguous.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim < 2 or 0 in window.shape[-2:]:
        raise DimensionMismatch(
            f"window must be (..., M, L) with M, L >= 1, got {window.shape}"
        )
    m, length = window.shape[-2:]
    z = window - window.mean(axis=-1, keepdims=True)
    cov = sym((z @ np.swapaxes(z, -1, -2)) / length)
    eps = np.maximum(SHRINKAGE_SCALE * np.trace(cov, axis1=-2, axis2=-1) / m, 1e-12)
    diag = np.arange(m)
    cov[..., diag, diag] += eps[..., None]
    return cov


def eig_fn(
    x: np.ndarray, fn, eig: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U diag(fn(w)) U^T`` from one eigendecomposition ``sym(x) = U diag(w) U^T``.

    The one eigenvalue-function primitive of the package, batched over
    leading axes.  ``fn`` maps the ascending eigenvalues ``w`` (shape
    ``(..., n)``) to an array of the same shape, or to a stack
    ``(P, ..., n)`` of P eigenvalue functions, which gives P matrices
    from the single decomposition; it may raise to reject a spectrum.
    ``eig`` is ``(w, u)`` when the caller already holds the
    decomposition of ``x``; then no ``eigh`` runs.  Returns
    ``(out, w, u)``, so a backward pass can reuse ``w`` and ``u``.
    """
    w, u = np.linalg.eigh(sym(x)) if eig is None else eig
    return (u * fn(w)[..., None, :]) @ np.swapaxes(u, -1, -2), w, u


def _log_spd(w: np.ndarray) -> np.ndarray:
    if np.any(w[..., 0] <= SPD_RTOL * np.maximum(w[..., -1], 0.0)) or np.any(
        w[..., -1] <= 0
    ):
        raise NotPositiveDefinite("spd_log requires a positive definite input")
    return np.log(w)


def _inv_sqrt(w: np.ndarray) -> np.ndarray:
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite("inv_sqrtm requires a positive definite input")
    return 1.0 / np.sqrt(w)


def spd_log(x: np.ndarray) -> np.ndarray:
    """Matrix logarithm ``U diag(ln w) U^T`` of an SPD matrix (batched)."""
    return eig_fn(np.asarray(x, dtype=np.float64), _log_spd)[0]


def spd_exp(v: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (batched)."""
    v = np.asarray(v, dtype=np.float64)
    if not is_symmetric(v):
        raise NotPositiveDefinite("spd_exp requires a symmetric input")
    return eig_fn(v, np.exp)[0]


def inv_sqrtm(x: np.ndarray) -> np.ndarray:
    """Inverse matrix square root of an SPD matrix (batched)."""
    return eig_fn(x, _inv_sqrt)[0]


def airm_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Geodesic distance ``||log(x^{-1/2} y x^{-1/2})||_F`` under the
    affine-invariant metric.

    Invariant under congruence ``(x, y) -> (A x A^T, A y A^T)`` for any
    invertible ``A``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch: {x.shape} vs {y.shape}")
    check_spd(x, "x")
    check_spd(y, "y")
    xi = inv_sqrtm(x)
    middle = sym(xi @ y @ xi)
    w = np.linalg.eigvalsh(middle)
    if w[0] <= 0:
        raise NotPositiveDefinite("whitened matrix lost positive definiteness")
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def centering_matrix(n: int) -> np.ndarray:
    """The centering matrix ``H = I_n - (1/n) 1 1^T``.

    Satisfies ``H 1 = 0`` and ``H H = H``.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def double_center(sq_dist: np.ndarray) -> np.ndarray:
    """Return ``-1/2 H S H`` for a matrix of squared distances ``S``."""
    n = sq_dist.shape[0]
    h = centering_matrix(n)
    return sym(-0.5 * (h @ sq_dist @ h))
