"""Symmetric positive-definite matrix algebra.

The packed layout in which the package stores a window's covariance:
the M(M + 1)/2 entries on and above the diagonal, row by row
(:func:`packed_layout`, :func:`pack`, :func:`unpack`).  The package's
one covariance estimator, shrunk by a fixed fraction of its own trace,
returns it.  It takes the window as the first rows of the caller's
buffer, whose one spare row it fills with ones: one general matrix
product (BLAS ``gemm``) per window then gives its Gram matrix and its
row sums, and the row means are folded into the Gram matrix.  Then the
eigenvalue-function primitive and the matrix log, exp and inverse root
built on it; the one affine-invariant (AIRM) distance kernel; and the
two positivity guards on a spectrum, the strict one of
:func:`check_spd` and the ``w_min > 0`` one of the maps that only need
a positive spectrum.  Everything here but that spare row's write is
pure and operates on plain ``numpy`` arrays; batched inputs use leading
axes.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, ShapeMismatch

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


class PackedLayout(NamedTuple):
    """Index arrays of the packed layout of a symmetric M x M matrix: its
    P = M(M + 1)/2 entries ``(i, j)`` with ``i <= j``, in row-major
    order.  Every array is read-only."""

    #: (P,) the row ``i`` and the column ``j`` of each packed entry
    rows: np.ndarray
    cols: np.ndarray
    #: (M,) the packed position of each diagonal entry ``(i, i)``
    diag: np.ndarray
    #: (M, M) the packed position of entry ``(i, j)``, and so of ``(j, i)``
    full: np.ndarray
    #: (2, P) the flat positions of ``(i, j)`` and of ``(j, i)`` in an
    #: (M, M + 1) array, such as :func:`covariance`'s Gram product
    gram: np.ndarray


@functools.lru_cache(maxsize=32)
def packed_layout(m: int) -> PackedLayout:
    """The :class:`PackedLayout` of M = ``m`` channels, built once per M."""
    rows, cols = np.triu_indices(m)
    full = np.empty((m, m), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(len(rows))
    layout = PackedLayout(rows, cols, full.diagonal().copy(), full,
                          np.stack([rows * (m + 1) + cols, cols * (m + 1) + rows]))
    for index in layout:
        index.flags.writeable = False
    return layout


def packed_order(width: int) -> int:
    """The M whose packed rows are ``width`` entries wide, M(M + 1)/2 =
    ``width``; :class:`ShapeMismatch` when no M >= 1 gives that width."""
    m = (math.isqrt(8 * width + 1) - 1) // 2
    if m < 1 or m * (m + 1) // 2 != width:
        raise ShapeMismatch(f"{width} is not the packed width M(M + 1)/2 of any M >= 1")
    return m


def pack(full: np.ndarray) -> np.ndarray:
    """Packed rows (..., M(M + 1)/2) of symmetric matrices (..., M, M)."""
    layout = packed_layout(full.shape[-1])
    return full[..., layout.rows, layout.cols]


def unpack(packed: np.ndarray) -> np.ndarray:
    """Symmetric matrices (..., M, M) of packed rows (..., M(M + 1)/2),
    each entry read once for ``(i, j)`` and once for ``(j, i)``: one
    ``take``.  A width that no M gives raises :class:`ShapeMismatch`."""
    return packed.take(packed_layout(packed_order(packed.shape[-1])).full, axis=-1)


def covariance(padded: np.ndarray) -> np.ndarray:
    """Shrunk spatial covariance ``C + eps I`` of one window or a batch,
    as packed rows: (..., M(M + 1)/2) in the :func:`packed_layout` of M.

    ``padded`` is a writable ``(..., M + 1, L)`` array: its first M rows
    are the window, channels x samples (a batch of windows on the leading
    axes), and its last row is scratch, which this call fills with ones.
    ``C`` is the population covariance of the window's rows, and
    ``eps = max(SHRINKAGE_SCALE * trace(C) / M, 1e-12)``, so every
    output is SPD, a zero or rank-deficient window included.

    ``C = X X^T / L - mu mu^T`` comes from one product of the window
    ``X`` as it is with ``[X; 1]^T``, ``X`` padded with that row of ones:
    its first M columns are ``X X^T`` and its last the row sums ``L mu``,
    so one pass over the window gives both.  A caller filters its
    windows straight into the first M rows, as
    :func:`~spdbci.trainer.prepare_dataset` does, so no window is
    copied.  The product is a general one (``gemm``): numpy sends
    ``X @ X.T`` alone to the symmetric ``syrk``, which OpenBLAS 0.3.31
    runs about 1.6 times slower at these shapes (0.83 against 0.51 ms
    for the 72 windows of a 22-channel, 250-sample, 9-band trial on one
    thread of a 2-core x86-64 VM).  Each packed entry of its ``X X^T``
    block is the average of ``(i, j)`` and ``(j, i)``, so the matrix is
    exactly symmetric; the division by ``L``, the mean product
    ``mu_i mu_j``, the trace and the shrinkage then run on the packed
    entries alone, half the work of the full matrix, and each packed
    entry takes the same operations on the same operands as it would in
    the full one.  The window's rows are never centred or written.

    That fold's rounding error in ``C_ij`` scales with the rows' mean
    squares ``mu_i^2 + var_i``, where centring's scales with their
    variances, so it is up to ``1 + mu_i^2 / var_i`` times larger.  A
    window whose rows all keep ``mu_i^2 <= FOLD_RATIO * var_i`` stays
    within 1e-12 of its largest entry (see :data:`FOLD_RATIO`); any
    other window is centred, ``C = Z Z^T / L`` with ``Z = X - mu``, as a
    full copy that is then packed.  The whole batch is tested at once,
    and the windows to centre are picked out only when there is one.
    The choice is made per window from that window alone, so each row of
    a batch equals the 2-D call on its window bit for bit when the
    windows' rows are contiguous.  An array of fewer than two rows or of
    no columns (M < 1 or L < 1) raises :class:`DimensionMismatch`.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim < 2 or padded.shape[-2] < 2 or padded.shape[-1] < 1:
        raise DimensionMismatch(
            f"padded must be (..., M + 1, L) with M, L >= 1, got {padded.shape}"
        )
    m, length = padded.shape[-2] - 1, padded.shape[-1]
    layout = packed_layout(m)
    window = padded[..., :m, :]
    padded[..., m, :] = 1.0
    gram = window @ np.swapaxes(padded, -1, -2)
    mean = gram[..., m] / length
    gram = gram.reshape(gram.shape[:-2] + (-1,))
    # a + b == b + a, and (a + b) / 2 is exact, so one division by 2L
    # rounds as dividing by L does
    cov = gram.take(layout.gram[1], axis=-1)
    cov += gram.take(layout.gram[0], axis=-1)
    cov /= 2 * length
    # mu_i mu_j in place: one packed temporary fewer than multiplying
    # the two takes into a third
    outer = mean.take(layout.rows, axis=-1)
    outer *= mean.take(layout.cols, axis=-1)
    cov -= outer
    var = cov.take(layout.diag, axis=-1)
    # a cancelled variance is tiny or negative, so it fails this test too
    unfolded = mean * mean > FOLD_RATIO * var
    if unfolded.any():
        centre = unfolded.any(axis=-1)
        z = window[centre] - mean[centre][..., None]
        cov[centre] = pack((z @ np.swapaxes(z, -1, -2)) / length)
        var = cov.take(layout.diag, axis=-1)
    # a contiguous sum over each row of diagonals, as np.trace's reduction
    eps = np.maximum(SHRINKAGE_SCALE * var.sum(axis=-1) / m, 1e-12)
    var += eps[..., None]
    cov[..., layout.diag] = var
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
