"""Symmetric positive-definite matrix algebra.

Covariance construction, eigendecomposition, matrix log/exp, the
affine-invariant geodesic distance, and the double-centering identities
used by the channel-selection objective.  Everything here is pure and
operates on plain ``numpy`` arrays; batched inputs use leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NotPositiveDefinite

# Relative symmetry tolerance for inputs claiming to be symmetric.
SYM_RTOL = 1e-10
# An SPD matrix must satisfy lambda_min > SPD_RTOL * lambda_max.
SPD_RTOL = 1e-12


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


def covariance(window: np.ndarray, shrinkage=0.0) -> np.ndarray:
    """Spatial covariance ``(1/L) Z Z^T + eps I`` of one window or a batch.

    ``window`` is channels x samples, or ``(..., M, L)`` for a batch of
    windows; ``Z`` is the row-mean-centered window.  ``shrinkage`` is
    ``eps``: a scalar, or one value per window (shape ``(...)``).  A
    window with zero shrinkage whose result is rank-deficient raises
    :class:`DegenerateInput`; any positive shrinkage guarantees an SPD
    output.  Each matrix of a batch equals the 2-D call on its window
    bit for bit when the windows are C-contiguous.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim < 2 or window.shape[-1] < 1:
        raise DimensionMismatch(
            f"window must be (..., M, L) with L >= 1, got {window.shape}"
        )
    shrinkage = np.asarray(shrinkage, dtype=np.float64)
    if shrinkage.shape not in ((), window.shape[:-2]):
        raise DimensionMismatch(
            f"shrinkage must be a scalar or of shape {window.shape[:-2]}, "
            f"got {shrinkage.shape}"
        )
    if np.any(shrinkage < 0):
        raise ValueError("shrinkage must be nonnegative")
    m, length = window.shape[-2:]
    z = window - window.mean(axis=-1, keepdims=True)
    cov = (z @ np.swapaxes(z, -1, -2)) / length + shrinkage[..., None, None] * np.eye(m)
    cov = sym(cov)
    unshrunk = np.broadcast_to(shrinkage == 0.0, window.shape[:-2])
    if np.any(unshrunk):
        w = np.linalg.eigvalsh(cov[unshrunk])
        wmin, wmax = w[:, 0], w[:, -1]
        if np.any(wmin <= SPD_RTOL * np.maximum(wmax, 0.0)) or np.any(wmax <= 0):
            raise DegenerateInput(
                f"covariance is singular (rank < {m}) and shrinkage is zero"
            )
    return cov


def sym_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix (batched over leading axes).

    Returns ``(eigenvalues, U)`` with eigenvalues sorted descending and
    ``x = U diag(w) U^T``.
    """
    if not is_symmetric(x):
        raise NotPositiveDefinite("sym_eig requires a symmetric input")
    w, u = np.linalg.eigh(sym(x))
    # eigh sorts ascending; flip to descending
    w = w[..., ::-1]
    u = u[..., ::-1]
    return w, u


def _eig_apply(x: np.ndarray, fn) -> np.ndarray:
    w, u = np.linalg.eigh(sym(x))
    return (u * fn(w)[..., None, :]) @ np.swapaxes(u, -1, -2)


def spd_log(x: np.ndarray) -> np.ndarray:
    """Matrix logarithm ``U diag(ln w) U^T`` of an SPD matrix (batched)."""
    x = np.asarray(x, dtype=np.float64)
    w, u = np.linalg.eigh(sym(x))
    if np.any(w[..., 0] <= SPD_RTOL * np.maximum(w[..., -1], 0.0)) or np.any(
        w[..., -1] <= 0
    ):
        raise NotPositiveDefinite("spd_log requires a positive definite input")
    return (u * np.log(w)[..., None, :]) @ np.swapaxes(u, -1, -2)


def spd_exp(v: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (batched)."""
    v = np.asarray(v, dtype=np.float64)
    if not is_symmetric(v):
        raise NotPositiveDefinite("spd_exp requires a symmetric input")
    return _eig_apply(v, np.exp)


def spd_power(x: np.ndarray, p: float) -> np.ndarray:
    """Matrix power ``x^p`` of an SPD matrix (batched)."""
    return _eig_apply(x, lambda w: np.power(np.maximum(w, 0.0), p))


def inv_sqrtm(x: np.ndarray) -> np.ndarray:
    """Inverse matrix square root of an SPD matrix (batched)."""
    w, u = np.linalg.eigh(sym(x))
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite("inv_sqrtm requires a positive definite input")
    return (u / np.sqrt(w)[..., None, :]) @ np.swapaxes(u, -1, -2)


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
        raise ValueError("n must be >= 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def double_center(sq_dist: np.ndarray) -> np.ndarray:
    """Return ``-1/2 H S H`` for a matrix of squared distances ``S``."""
    n = sq_dist.shape[0]
    h = centering_matrix(n)
    return sym(-0.5 * (h @ sq_dist @ h))


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
