"""End-to-end model: manifold feature extractor, multi-head tangent
transform, and the tangent-space classifier, wired for training with
hand-derived gradients.

Forward path per trial: covariance tensor (S, F, M, M) -> the rows and
columns of the m selected channels, (S, F, m, m) -> one
BiMap/RBN/ReEig block -> LogEig -> K bilinear heads -> per-band conv ->
band-importance gate -> linear head -> class logits.  Channel selection
thus cuts the SPD dimension: every layer after the cut runs at m x m.

RBN whitens by a reference mean fitted once before training (see
:class:`~spdbci.layers.RbnLayer`), so training decomposes each batch
once, in ReEig.  ReEig's output ``U diag(max(w, eps)) U^T`` comes with
its eigendecomposition, so LogEig runs its forward and backward on
``(max(w, eps), U)`` instead of a second ``eigh``.

Each layer has that one forward.  Evaluation runs the same map folded
into three steps, exact to round-off: the cut, BiMap and whitening by
the RBN mean, ``R = mean^(-1/2)``, are one fixed (m, M) congruence
``A = R W P^T`` with ``P`` the (M, m) selection, ReEig and LogEig are
one eigenvalue function ``log(max(w, eps))``, and everything from
LogEig to the conv output is linear, so the K heads and the conv kernel
fold into one kernel ``E[c, s] = K[c, s, 0] + sum_{k>=1} W_k K[c, s, k]
W_k^T``, head 0 being the identity.
"""

from __future__ import annotations

import numpy as np

from .classifier import TangentClassifier
from .config import config_from_mapping
from .eeg_io import ModelBundle
from .errors import MalformedHeader, ShapeMismatch
from .layers import BiMapLayer, LogEigLayer, RbnLayer, ReEigLayer, random_stiefel
from .selection import MbtHeads
from .spd import check_spd, eig_fn, inv_sqrtm

#: Largest entry of ``|W^T W - I|`` a bundle's BiMap or head weight may
#: show; the Stiefel retraction keeps trained weights near round-off.
ORTHONORMAL_ATOL = 1e-8

#: Rank of each bundle array that :func:`model_from_bundle` reads sizes
#: from before the model exists to check its full shape.
BUNDLE_RANKS = {"selection": 2, "clf_kernel": 3, "clf_w1": 2, "clf_head_b": 1}


class Model:
    """Trainable pipeline over per-trial covariance tensors.

    ``selection`` (M, m) holds the identity columns of the m selected
    channels, in ascending order; with m = M it is the identity and
    nothing is cut.  The chain and the heads run at m x m, and head 0 is
    the identity pass-through, which has no weight.  Weights are drawn in
    a fixed order: the BiMap weight, the classifier for one head's m*m
    features, then heads 1..K-1, whose conv-kernel slices start at zero.
    So a fresh model computes exactly what a fresh one-head model of the
    same seed does (the function-preserving growth of Net2Net, Chen et
    al., ICLR 2016).

    The first eval forward builds the folded plan from the current
    weights and RBN mean and caches it; :meth:`step` and
    :meth:`load_arrays` drop it, so weights are changed through those
    methods, and the RBN mean is fitted before the first forward.
    """

    def __init__(
        self,
        selection: np.ndarray,
        n_windows: int,
        n_bands: int,
        n_classes: int,
        k_heads: int,
        conv_out: int,
        seed: int,
    ):
        rng = np.random.default_rng(seed)
        self.n_windows = n_windows
        self.n_bands = n_bands
        self.n_channels, self.m = selection.shape
        self.n_classes = n_classes
        self.selection = selection

        m = self.m
        self.bimap = BiMapLayer(random_stiefel(rng, m, m).T)
        self.rbn = RbnLayer(m)
        self.reeig = ReEigLayer()
        self.logeig = LogEigLayer()
        self.clf = TangentClassifier(
            n_bands=n_bands,
            n_windows=n_windows,
            feat_len=m * m,
            n_classes=n_classes,
            conv_out=conv_out,
            rng=rng,
        )
        # heads 1..K-1 start unread: their kernel slices are zero, so the
        # model begins as the one-head model of the same seed
        self.clf.kernel = np.concatenate(
            [self.clf.kernel, np.zeros((conv_out, n_windows, (k_heads - 1) * m * m))],
            axis=-1,
        )
        self.heads = MbtHeads.initialize(m, k_heads, rng)
        self._plan: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------

    @property
    def channels(self) -> np.ndarray:
        """The selected channels, ascending: the row of each column's 1."""
        return np.argmax(self.selection, axis=0)

    def cut(self, covs: np.ndarray) -> np.ndarray:
        """The rows and columns of the selected channels: (..., M, M) ->
        (..., m, m)."""
        ch = self.channels
        return covs[..., ch[:, None], ch]

    def forward(self, covs: np.ndarray, training: bool = True) -> np.ndarray:
        """(B, S, F, M, M) covariance batch -> (B, C) logits."""
        b, s, f, big_m, _ = covs.shape
        if (s, f, big_m) != (self.n_windows, self.n_bands, self.n_channels):
            raise ShapeMismatch(
                f"covariance tensor {covs.shape[1:]} does not match model "
                f"({self.n_windows}, {self.n_bands}, {self.n_channels})"
            )
        m = self.m
        if not training:
            a, kernel = self._folded_plan()
            eps = self.reeig.epsilon
            tangent, _, _ = eig_fn(
                a @ covs.reshape(b * s * f, big_m, big_m) @ a.T,
                lambda w: np.log(np.maximum(w, eps)),
            )
            conv_out = np.tensordot(
                tangent.reshape(b, s, f, m * m), kernel, axes=([1, 3], [1, 2])
            ) + self.clf.bias
            return self.clf._gated_head(conv_out)[-1]
        x = self.bimap.forward(self.cut(covs).reshape(b * s * f, m, m))
        x = self.reeig.forward(self.rbn.forward(x))
        tangent = self.logeig.forward(x, eig=self.reeig.output_eig)
        stacked = self.heads.forward(tangent)  # (B*S*F, K, m, m)
        return self.clf.forward(stacked.reshape(b, s, f, -1))

    def _folded_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """The congruence ``A = inv_sqrtm(rbn.mean) W_bimap P^T`` (m, M)
        and the folded kernel ``E`` (C_out, S, m*m), built on first use."""
        if self._plan is None:
            c_out, s, _ = self.clf.kernel.shape
            w = self.heads.weights  # (K-1, m, m)
            k = self.clf.kernel.reshape(c_out, s, self.heads.K, self.m, self.m)
            # (C_out, S, m, m)
            folded = k[:, :, 0] + (w @ k[:, :, 1:] @ np.swapaxes(w, -1, -2)).sum(axis=2)
            self._plan = (
                inv_sqrtm(self.rbn.mean) @ self.bimap.weight @ self.selection.T,
                folded.reshape(c_out, s, -1),
            )
        return self._plan

    def backward(self, grad_logits: np.ndarray) -> None:
        d_features = self.clf.backward(grad_logits)  # (B, S, F, K*m*m)
        d_stacked = d_features.reshape(-1, self.heads.K, self.m, self.m)
        d_tangent = self.heads.backward(d_stacked)
        grad = self.reeig.backward(self.logeig.backward(d_tangent))
        self.bimap.backward(self.rbn.backward(grad))

    def step(self, lr: float) -> None:
        self._plan = None
        self.clf.step(lr)
        self.heads.step(lr)
        self.bimap.step(lr)

    # ------------------------------------------------------------------

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """All learnable parameters, in a stable order."""
        arrays: dict[str, np.ndarray] = {}
        for k, w in enumerate(self.heads.weights, start=1):
            arrays[f"head_{k}"] = w
        arrays["bimap_0"] = self.bimap.weight
        for name, arr in self.clf.parameters().items():
            arrays[f"clf_{name}"] = arr
        return arrays

    def buffer_arrays(self) -> dict[str, np.ndarray]:
        """Non-learnable state: the fitted RBN mean and the channel
        selection."""
        return {"rbn_mean_0": self.rbn.mean, "selection": self.selection}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self._plan = None
        self.heads.weights = np.reshape(
            [arrays[f"head_{k}"] for k in range(1, self.heads.K)], self.heads.weights.shape
        )
        self.bimap.weight = arrays["bimap_0"].copy()
        self.rbn.mean = arrays["rbn_mean_0"].copy()
        self.selection = arrays["selection"].copy()
        for name in self.clf.parameters():
            setattr(self.clf, name, arrays[f"clf_{name}"].copy())


def count_parameters(model: Model) -> int:
    """Exact number of scalar learnable parameters."""
    return int(sum(arr.size for arr in model.parameter_arrays().values()))


def model_to_bundle(model: Model, config: dict[str, str]) -> ModelBundle:
    """Bundle a model with the config snapshot it was built from; the
    model's shapes are read back from the arrays by :func:`model_from_bundle`."""
    return ModelBundle(
        config=dict(config),
        arrays={**model.parameter_arrays(), **model.buffer_arrays()},
    )


def _check_arrays(arrays: dict[str, np.ndarray]) -> None:
    """Reject bundle arrays whose sizes cannot be read: a non-finite
    entry, a zero-length axis, a missing ``BUNDLE_RANKS`` array or one of
    another rank, or a ``selection`` that is not the identity columns of
    m <= M channels in ascending order."""
    for name, arr in arrays.items():
        if 0 in arr.shape:
            raise MalformedHeader(f"model bundle array {name!r} has a zero-length axis")
        if not np.all(np.isfinite(arr)):
            raise MalformedHeader(f"model bundle array {name!r} is not finite")
    for name, ndim in BUNDLE_RANKS.items():
        if name not in arrays:
            raise MalformedHeader(f"model bundle has no array {name!r}")
        if arrays[name].ndim != ndim:
            raise MalformedHeader(
                f"model bundle array {name!r} has {arrays[name].ndim} dimensions, "
                f"expected {ndim}"
            )
    selection = arrays["selection"]
    big_m, m = selection.shape
    if m > big_m:
        raise MalformedHeader(
            f"model bundle array 'selection' has shape {(big_m, m)}, expected "
            "(M, m) with m <= M"
        )
    if not np.all((selection == 0) | (selection == 1)):
        raise MalformedHeader("model bundle array 'selection' has an entry other than 0 or 1")
    if not np.all(selection.sum(axis=0) == 1):
        raise MalformedHeader("model bundle array 'selection' has a column without exactly one 1")
    if not np.all(np.diff(np.argmax(selection, axis=0)) > 0):
        raise MalformedHeader(
            "model bundle array 'selection' repeats a channel or lists one out of order"
        )


def model_from_bundle(bundle: ModelBundle) -> Model:
    """Rebuild a model: hyperparameters from the config snapshot, sizes
    from the array shapes, K from the head arrays ``head_1..head_{K-1}``.
    The bundle's array names must be exactly the model's, so a missing or
    unexpected array, ``head_0`` among them, raises :class:`MalformedHeader`,
    and so do a non-finite array, a zero-length axis, an array whose rank
    or shape disagrees with the sizes, a ``selection`` that is not the
    identity columns of ascending channels and a BiMap or head weight
    without orthonormal columns (to ``ORTHONORMAL_ATOL``); an RBN mean
    (``rbn_mean_0``) that is not SPD raises
    :class:`~spdbci.errors.NotPositiveDefinite`."""
    config = config_from_mapping(bundle.config)
    arrays = bundle.arrays
    _check_arrays(arrays)
    _, n_windows, _ = arrays["clf_kernel"].shape
    model = Model(
        arrays["selection"],
        n_windows=n_windows,
        n_bands=arrays["clf_w1"].shape[0],
        n_classes=arrays["clf_head_b"].shape[0],
        k_heads=1 + sum(name.startswith("head_") for name in arrays),
        conv_out=config.conv_out,
        seed=config.seed,
    )
    expected = {**model.parameter_arrays(), **model.buffer_arrays()}
    if arrays.keys() != expected.keys():
        raise MalformedHeader(
            f"model bundle arrays differ from the model's: missing "
            f"{sorted(expected.keys() - arrays.keys())}, unexpected "
            f"{sorted(arrays.keys() - expected.keys())}"
        )
    for name, arr in expected.items():
        if arrays[name].shape != arr.shape:
            raise MalformedHeader(
                f"model bundle array {name!r} has shape {arrays[name].shape}, "
                f"expected {arr.shape}"
            )
        if name == "bimap_0" or name.startswith("head_"):
            w = arrays[name]
            drift = float(np.max(np.abs(w.T @ w - np.eye(w.shape[1]))))
            if drift > ORTHONORMAL_ATOL:
                raise MalformedHeader(
                    f"model bundle array {name!r} does not have orthonormal columns "
                    f"(max |W^T W - I| = {drift:.1e})"
                )
    check_spd(arrays["rbn_mean_0"], "model bundle array 'rbn_mean_0'")
    model.load_arrays(arrays)
    return model
