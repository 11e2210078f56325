"""Symmetric positive-definite matrix algebra.

The package's one covariance estimator, shrunk by a fixed fraction of
its own trace: one general matrix product (BLAS ``gemm``) per window
padded with a row of ones gives its Gram matrix and its row sums, and
the row means are folded into the Gram matrix.  Then the
eigenvalue-function primitive and the matrix log, exp and inverse root
built on it; the one affine-invariant (AIRM) distance kernel; and the
two positivity guards on a spectrum, the strict one of
:func:`check_spd` and the ``w_min > 0`` one of the maps that only need
a positive spectrum.  Everything here is pure and
operates on plain ``numpy`` arrays; batched inputs use leading axes.
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
#: :func:`covariance` folds the mean into the Gram product of a window
#: whose every row has ``mean**2 <= FOLD_RATIO * var``, and centres any
#: other window first.  The fold's error is about ``c u (1 + mean**2 /
#: var)`` of the largest entry, with ``u = 2**-53``.  Against a two-pass
#: extended-precision oracle on noise rows with offsets, for M <= 22 and
#: L <= 2000, ``c`` measured 5-15 for most shapes and at most 29, at
#: M = 1 and L = 2000, where the row sum is one long dot product of the
#: padded ``gemm`` (``syrk`` with a pairwise row sum measured at most 17).
#: So 1e2 keeps it under 1e-12 with a 3x margin: 3.3e-13 was measured at
#: the ratio 1e2, 3.2e-12 at 1e3.
FOLD_RATIO = 1e2


def is_symmetric(x: np.ndarray, rtol: float = SYM_RTOL) -> bool:
    """True if ``x`` is symmetric within a relative tolerance."""
    scale = max(float(np.max(np.abs(x))), 1.0)
    return bool(np.max(np.abs(x - np.swapaxes(x, -1, -2))) <= rtol * scale)


def sym(x: np.ndarray) -> np.ndarray:
    """Symmetric part ``(x + x^T) / 2`` (over the trailing two axes)."""
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def require_spd(w: np.ndarray, name: str) -> np.ndarray:
    """Ascending spectra ``w`` (``(..., n)``) unchanged, if each has
    ``w_min > SPD_RTOL * w_max > 0``: the strict rule of :func:`check_spd`."""
    if np.any(w[..., 0] <= SPD_RTOL * np.maximum(w[..., -1], 0.0)) or np.any(w[..., -1] <= 0):
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return w


def require_positive(w: np.ndarray, name: str) -> np.ndarray:
    """Ascending spectra ``w`` (``(..., n)``) unchanged, if each has
    ``w_min > 0``: the rule of a map that needs only a positive spectrum."""
    if np.any(w[..., 0] <= 0):
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return w


def check_spd(x: np.ndarray, name: str = "matrix") -> None:
    """Raise unless ``x`` is symmetric and its spectrum passes :func:`require_spd`."""
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {x.shape}")
    if not is_symmetric(x):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    require_spd(np.linalg.eigvalsh(x), name)


def _first_byte(a: np.ndarray) -> np.ndarray:
    """A one-byte view of the non-empty ``a``'s first item: two arrays
    start at the same address iff theirs share memory.  Cheaper than
    comparing ``ndarray.ctypes.data``, which builds an object per array."""
    return a[(0,) * (a.ndim - 1)][:1].view(np.uint8)[:1]


def covariance(window: np.ndarray, padded: np.ndarray | None = None) -> np.ndarray:
    """Shrunk spatial covariance ``C + eps I`` of one window or a batch.

    ``window`` is channels x samples, or ``(..., M, L)`` for a batch of
    windows.  ``C`` is the population covariance of the rows, and
    ``eps = max(SHRINKAGE_SCALE * trace(C) / M, 1e-12)``, so every
    output is SPD, a zero or rank-deficient window included.

    ``C = X X^T / L - mu mu^T`` comes from one product of the window
    ``X`` as it is with ``[X; 1]^T``, ``X`` padded with a row of ones:
    its first M columns are ``X X^T`` and its last the row sums ``L mu``,
    so one pass over the window gives both.  ``padded`` is that
    ``(..., M + 1, L)`` buffer, with ``window`` its first M rows (a
    caller that filtered the windows into it, like
    :func:`~spdbci.trainer.prepare_dataset`); this call writes the ones
    into its last row.  Without it the window is padded in a copy, and
    the same product runs on the same values, so both routes give the
    same bits.  The product is a general one (``gemm``): numpy sends
    ``X @ X.T`` alone to the symmetric ``syrk``, which OpenBLAS 0.3.31
    runs about 1.6 times slower at these shapes (0.83 against 0.51 ms
    for the 72 windows of a 22-channel, 250-sample, 9-band trial on one
    thread of a 2-core x86-64 VM).  Its ``X X^T`` block is made exactly
    symmetric by averaging it with its transpose: a transposed copy, to
    which the block is added in place.  The trace and the shrinkage go
    through one strided view of the diagonals.  The window is never
    centred or written.

    That fold's rounding error in ``C_ij`` scales with the rows' mean
    squares ``mu_i^2 + var_i``, where centring's scales with their
    variances, so it is up to ``1 + mu_i^2 / var_i`` times larger.  A
    window whose rows all keep ``mu_i^2 <= FOLD_RATIO * var_i`` stays
    within 1e-12 of its largest entry (see :data:`FOLD_RATIO`); any
    other window is centred, ``C = Z Z^T / L`` with ``Z = X - mu``, as a
    copy.  The whole batch is tested at once, and the windows to centre
    are picked out only when there is one.  The choice is made per
    window from that window alone, so each matrix of a batch equals the
    2-D call on its window bit for bit when the windows' rows are
    contiguous, and every output is exactly symmetric.  A ``padded`` of
    another shape than ``(..., M + 1, L)``, or whose first M rows are not
    ``window``, raises :class:`DimensionMismatch`.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim < 2 or 0 in window.shape[-2:]:
        raise DimensionMismatch(
            f"window must be (..., M, L) with M, L >= 1, got {window.shape}"
        )
    m, length = window.shape[-2:]
    if padded is None:
        padded = np.empty(window.shape[:-2] + (m + 1, length))
        padded[..., :m, :] = window
    elif (padded.shape != window.shape[:-2] + (m + 1, length)
          or padded.strides != window.strides
          or (window.size
              and not np.shares_memory(_first_byte(padded), _first_byte(window)))):
        raise DimensionMismatch(
            f"padded must be the (..., M + 1, L) buffer whose first M rows are the "
            f"{window.shape} window, got {padded.shape}"
        )
    padded[..., m, :] = 1.0
    gram = padded[..., :m, :] @ np.swapaxes(padded, -1, -2)
    mean = gram[..., m] / length
    gram = gram[..., :m]
    # a + b == b + a, and (a + b) / 2 is exact, so one division by 2L
    # rounds as dividing by L does
    cov = np.swapaxes(gram, -1, -2).copy()
    cov += gram
    cov /= 2 * length
    cov -= mean[..., :, None] * mean[..., None, :]
    # a writable view of every diagonal, strided as np.diagonal's
    var = cov.reshape(cov.shape[:-2] + (m * m,))[..., :: m + 1]
    # a cancelled variance is tiny or negative, so it fails this test too
    unfolded = mean * mean > FOLD_RATIO * var
    if unfolded.any():
        centre = unfolded.any(axis=-1)
        z = window[centre] - mean[centre][..., None]
        cov[centre] = (z @ np.swapaxes(z, -1, -2)) / length
    # the sum of that view is np.trace's reduction
    eps = np.maximum(SHRINKAGE_SCALE * var.sum(axis=-1) / m, 1e-12)
    var += eps[..., None]
    return cov


def eig_fn(
    x: np.ndarray, fn, eig: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U diag(fn(w)) U^T`` from one eigendecomposition ``sym(x) = U diag(w) U^T``.

    The one eigenvalue-function primitive of the package, batched over
    leading axes.  ``fn`` maps the ascending eigenvalues ``w`` (shape
    ``(..., n)``) to an array of the same shape; it may raise to reject
    a spectrum.  ``eig`` is ``(w, u)`` when the caller already holds the
    decomposition of ``x``; then no ``eigh`` runs.  Returns
    ``(out, w, u)``, so a backward pass can reuse ``w`` and ``u``.
    """
    w, u = np.linalg.eigh(sym(x)) if eig is None else eig
    return (u * fn(w)[..., None, :]) @ np.swapaxes(u, -1, -2), w, u


def spd_log(x: np.ndarray) -> np.ndarray:
    """Matrix logarithm ``U diag(ln w) U^T`` of an SPD matrix (batched)."""
    return eig_fn(np.asarray(x, dtype=np.float64),
                  lambda w: np.log(require_spd(w, "spd_log input")))[0]


def spd_exp(v: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (batched)."""
    v = np.asarray(v, dtype=np.float64)
    if not is_symmetric(v):
        raise NotPositiveDefinite("spd_exp requires a symmetric input")
    return eig_fn(v, np.exp)[0]


def inv_sqrtm(x: np.ndarray) -> np.ndarray:
    """Inverse matrix square root of an SPD matrix (batched)."""
    return eig_fn(x, lambda w: 1.0 / np.sqrt(require_positive(w, "inv_sqrtm input")))[0]


def airm_distances(inv_factor: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """AIRM distances ``||log(x^{-1/2} y x^{-1/2})||_F`` from one SPD
    ``x = L L^T``, given ``inv_factor = L^{-1}``, to each ``y`` of ``ys``.

    ``L^{-1} y L^{-T}`` has the eigenvalues of ``x^{-1/2} y x^{-1/2}``.
    That whitened pair may be conditioned far past ``1 / SPD_RTOL``
    when x and y are SPD, so it is held only to ``w_min > 0``.
    """
    w = np.linalg.eigvalsh(sym(inv_factor @ ys @ inv_factor.T))
    return np.sqrt(np.sum(np.log(require_positive(w, "whitened AIRM pair")) ** 2, axis=-1))


def airm_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Geodesic distance ``||log(x^{-1/2} y x^{-1/2})||_F`` under the
    affine-invariant metric: :func:`airm_distances` of one pair.

    Invariant under congruence ``(x, y) -> (A x A^T, A y A^T)`` for any
    invertible ``A``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch: {x.shape} vs {y.shape}")
    check_spd(x, "x")
    check_spd(y, "y")
    return float(airm_distances(np.linalg.inv(np.linalg.cholesky(x)), y))
