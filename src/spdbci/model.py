"""End-to-end model: manifold feature extractor, multi-head tangent
transform, and the tangent-space classifier, wired for training with
hand-derived gradients.

Forward path per trial: covariance tensor (S, F, M(M + 1)/2), each
window's matrix as its packed upper triangle (see
:func:`~spdbci.spd.packed_layout`) -> the rows and columns of the m
selected channels, (S, F, m, m) -> one
BiMap/RBN/ReEig block -> LogEig -> K bilinear heads -> per-band conv ->
band-importance gate -> linear head -> class logits.  Channel selection
thus cuts the SPD dimension: every layer after the cut runs at m x m.

Everything from LogEig to the conv output is linear, so the K heads
and the conv kernel fold into one kernel ``E[c, s] = K[c, s, 0] +
sum_{k>=1} W_k K[c, s, k] W_k^T``, head 0 being the identity (see
:class:`~spdbci.selection.MbtHeads`).  Training and evaluation both
convolve the m*m tangent with ``E``: a training step folds the kernel
once and maps the gradient of ``E`` back to the kernel slices and the
heads, instead of copying every tangent K times.

RBN whitens by a reference mean that :meth:`Model.fit_reference` fits
once before training (see :class:`~spdbci.layers.RbnLayer`), so
training decomposes each batch once, in ReEig.  ReEig's output
``U diag(max(w, eps)) U^T`` comes with its eigendecomposition, so
LogEig runs its forward and backward on ``(max(w, eps), U)`` instead of
a second ``eigh``.

Evaluation runs the same cut, then folds the layers into three steps,
exact to round-off: BiMap and whitening by the RBN mean,
``R = mean^(-1/2)``, are one fixed m x m congruence ``A = R W`` (its
right product by ``A^T`` is :func:`~spdbci.spd.right_product`), ReEig
and LogEig are one eigenvalue function ``log(max(w, eps))``, and the
conv reads the tangent through ``E``.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .classifier import TangentClassifier
from .config import TrainConfig, config_from_mapping
from .eeg_io import ModelBundle, eegb_rate
from .errors import DimensionMismatch, MalformedHeader, ShapeMismatch
from .layers import (BiMapLayer, LogEigLayer, RbnLayer, ReEigLayer, karcher_mean,
                     random_stiefel, stiefel_step)
from .selection import MbtHeads
from .spd import check_spd, eig_fn, packed_layout, right_product

#: Largest entry of ``|W^T W - I|`` a bundle's BiMap or head weight may
#: show; the Stiefel retraction keeps trained weights near round-off.
ORTHONORMAL_ATOL = 1e-8

#: Rank of each bundle array that :func:`model_from_bundle` reads sizes
#: or the sample rate from before the model exists to check its full
#: shape.
BUNDLE_RANKS = {"selection": 1, "clf_kernel": 3, "clf_head_b": 1, "sample_rate": 1}


class Model:
    """Trainable pipeline over per-trial covariance tensors, each
    window's matrix stored as its packed upper triangle.

    ``channels`` lists the m selected channels of the ``n_channels`` (M)
    of the covariances, in ascending order; with m = M nothing is cut.
    ``sample_rate`` is the rate in Hz of the trials the model is trained
    on; the filter designs depend on it, so
    :func:`~spdbci.trainer.bench_inference` runs a bundle only on trials
    at that rate.
    The chain and the heads run at m x m, and head 0 is the identity
    pass-through, which has no weight.  Weights are drawn in a fixed
    order: the BiMap weight, the classifier for one head's m*m features,
    then heads 1..K-1, whose conv-kernel slices start at zero.
    So a fresh model computes exactly what a fresh one-head model of the
    same seed does (the function-preserving growth of Net2Net, Chen et
    al., ICLR 2016): the folded kernel is then exactly the one-head one.

    A training forward folds the current kernel through the heads and
    convolves the m*m tangent with it, as evaluation does.  The first
    eval forward builds the folded plan from the current
    weights and RBN mean and caches it; :meth:`fit_reference` and
    :meth:`step` drop it, so weights and the RBN mean are changed through
    those methods, or filled by :func:`model_from_bundle` before the plan
    is built.  The channels and ``m`` are set only at construction.
    """

    def __init__(
        self,
        channels: np.ndarray | list[int],
        n_channels: int,
        n_windows: int,
        n_bands: int,
        n_classes: int,
        k_heads: int,
        conv_out: int,
        seed: int,
        sample_rate: float,
    ):
        rng = np.random.default_rng(seed)
        self.sample_rate = float(sample_rate)
        self.n_windows = n_windows
        self.n_bands = n_bands
        self.channels = np.asarray(channels)
        self.n_channels, self.m = n_channels, len(self.channels)
        # packed position of each (m, m) entry that cut reads off a row
        self._cut_index = packed_layout(n_channels).full[np.ix_(self.channels, self.channels)]
        self._packed_width = n_channels * (n_channels + 1) // 2

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

    def cut(self, covs: np.ndarray) -> np.ndarray:
        """The rows and columns of the selected channels: packed rows
        (..., M(M + 1)/2) -> full (..., m, m), read from each row through
        a precomputed (m, m) index of packed positions, one ``take``."""
        return covs.take(self._cut_index, axis=-1)

    def fit_reference(self, reps: np.ndarray) -> None:
        """Set the RBN mean to the :func:`~spdbci.layers.karcher_mean` of
        full SPD representatives (..., M, M), cut to the selected
        channels and seen through the BiMap weight;
        :func:`~spdbci.trainer.train` runs it once, on the initial weight."""
        self._plan = None
        w = self.bimap.weight
        self.rbn.mean = karcher_mean(
            right_product(w @ reps[..., self.channels[:, None], self.channels], w.T))

    def forward(self, covs: np.ndarray, training: bool = True) -> np.ndarray:
        """(B, S, F, M(M + 1)/2) packed covariance batch -> (B, C) logits.
        A tensor of another rank, or whose (S, F) or packed width is not
        the model's, raises :class:`~spdbci.errors.ShapeMismatch`."""
        # a tensor of another rank fails this test too
        if covs.shape[1:] != (self.n_windows, self.n_bands, self._packed_width):
            raise ShapeMismatch(
                f"covariance tensor of shape {covs.shape} does not match the model's "
                f"(B, {self.n_windows}, {self.n_bands}, {self._packed_width}): "
                f"packed rows of {self.n_channels} channels"
            )
        b, s, f = covs.shape[:3]
        m = self.m
        x = self.cut(covs).reshape(b * s * f, m, m)
        if not training:
            a, kernel = self._folded_plan()
            eps = self.reeig.epsilon
            tangent = eig_fn(right_product(a @ x, a.T), lambda w: np.log(np.maximum(w, eps)))[0]
            logits = self.clf.forward(tangent.reshape(b, s, f, m * m), kernel)
            # backward has nothing to differentiate, and the batch is freed
            self.clf._cache = None
            return logits
        x = self.reeig.forward(self.rbn.forward(self.bimap.forward(x)))
        tangent = self.logeig.forward(x, eig=self.reeig.output_eig)
        return self.clf.forward(tangent.reshape(b, s, f, m * m),
                                self.heads.forward(self.clf.kernel))

    def _folded_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """The congruence ``A = inv_sqrtm(rbn.mean) W_bimap`` (m, m) and
        the folded kernel ``E`` (C_out, S, m*m), built on first use and
        dropped by :meth:`fit_reference` and :meth:`step`."""
        if self._plan is None:
            self._plan = (
                self.rbn.whitener @ self.bimap.weight,
                self.heads.forward(self.clf.kernel),
            )
        return self._plan

    def backward(self, grad_logits: np.ndarray) -> None:
        """Gradients of the last forward, which must be a training one: an
        eval forward in between drops the classifier's cache, and backward
        then raises :class:`~spdbci.errors.MissingForwardCache`."""
        d_tangent = self.clf.backward(grad_logits)  # (B, S, F, m*m)
        self.clf.grads["kernel"] = self.heads.backward(self.clf.grads["kernel"])
        grad = self.logeig.backward(d_tangent.reshape(-1, self.m, self.m))
        self.bimap.backward(self.rbn.backward(self.reeig.backward(grad)))

    def step(self, lr: float) -> None:
        """Apply the pending gradients at rate ``lr`` and drop them: plain
        descent on the classifier's parameters, and a :func:`stiefel_step`
        on the heads' columns and on BiMap's rows, which keeps them
        orthonormal to round-off.  With K = 1 there is no head, and no
        linalg call runs on the empty stack."""
        self._plan = None
        clf, heads, bimap = self.clf, self.heads, self.bimap
        for name, grad in clf.grads.items():
            setattr(clf, name, getattr(clf, name) - lr * grad)
        if heads.grad_weights is not None and heads.K > 1:
            heads.weights = stiefel_step(heads.weights, heads.grad_weights, lr)
        if bimap.grad_weight is not None:
            bimap.weight = stiefel_step(bimap.weight.T, bimap.grad_weight.T, lr).T
        clf.grads, heads.grad_weights, bimap.grad_weight = {}, None, None

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
        """Non-learnable state: the fitted RBN mean, the channel
        selection as an (M,) mask, 1 at each selected channel, and the
        training sample rate as a (1,) array."""
        mask = np.zeros(self.n_channels)
        mask[self.channels] = 1.0
        return {"rbn_mean_0": self.rbn.mean, "selection": mask,
                "sample_rate": np.array([self.sample_rate])}


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


def _check_arrays(arrays: dict[str, np.ndarray], m: int) -> None:
    """Reject bundle arrays whose sizes cannot be read: a non-finite
    entry, a zero-length axis, a missing ``BUNDLE_RANKS`` array or one of
    another rank, a ``selection`` mask with an entry other than 0 or 1
    or whose count of 1s is not the snapshot's ``m``, or a
    ``sample_rate`` that :func:`~spdbci.eeg_io.eegb_rate` refuses: one
    whose float32 is not finite and positive, so that no trial set could
    match it."""
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
    if not np.all((selection == 0) | (selection == 1)):
        raise MalformedHeader("model bundle array 'selection' has an entry other than 0 or 1")
    count = np.count_nonzero(selection)
    if count != m:
        raise MalformedHeader(
            f"model bundle config key 'm' is {m}, but array 'selection' "
            f"selects {count} channels"
        )
    for rate in arrays["sample_rate"]:
        try:
            eegb_rate(rate)
        except DimensionMismatch as exc:
            raise MalformedHeader(f"model bundle array 'sample_rate': {exc}") from None


def bundle_config(bundle: ModelBundle) -> TrainConfig:
    """The bundle's config snapshot as a :class:`TrainConfig`.  Unlike a
    config file, the snapshot must name every key: a default standing in
    for a missing one (the default bank for a model trained on other
    bands) would run the model on a pipeline it was not trained for, so
    a missing key raises :class:`MalformedHeader`.  An unknown key or an
    unparsable value raises :class:`~spdbci.errors.ConfigError`."""
    missing = sorted({f.name for f in fields(TrainConfig)} - bundle.config.keys())
    if missing:
        raise MalformedHeader(f"model bundle config snapshot lacks the keys {missing}")
    return config_from_mapping(bundle.config)


def model_from_bundle(bundle: ModelBundle) -> Model:
    """Rebuild a model: K, the band count and the seed from the config
    snapshot (see :func:`bundle_config`), the other sizes from the array
    shapes and the training sample rate from ``sample_rate``.
    ``selection`` must be an (M,) mask of 0s and 1s with the snapshot's
    ``m`` 1s, and the bundle's array names must be exactly the model's,
    so a missing or unexpected array, ``head_0`` and ``sample_rate``
    among them, raises :class:`MalformedHeader`, and so do a non-finite
    array, a zero-length axis, an array whose rank or shape disagrees
    with the sizes, a mask entry other than 0 or 1, a sample rate whose
    float32 is not finite and positive (see
    :func:`~spdbci.eeg_io.eegb_rate`) and a BiMap or head weight without
    orthonormal columns (to ``ORTHONORMAL_ATOL``); an RBN mean (``rbn_mean_0``) that
    is not SPD raises :class:`~spdbci.errors.NotPositiveDefinite`.  The checked arrays fill
    the model built from the mask, and as its weights are final, its
    eval plan is built here, once."""
    config = bundle_config(bundle)
    arrays = bundle.arrays
    _check_arrays(arrays, config.m)
    model = Model(
        np.flatnonzero(arrays["selection"]),
        n_channels=arrays["selection"].shape[0],
        n_windows=arrays["clf_kernel"].shape[1],
        n_bands=len(config.bands),
        n_classes=arrays["clf_head_b"].shape[0],
        k_heads=config.k_heads,
        conv_out=config.conv_out,
        seed=config.seed,
        sample_rate=arrays["sample_rate"][0],
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
    model.heads.weights = np.reshape(
        [arrays[f"head_{k}"] for k in range(1, model.heads.K)], model.heads.weights.shape
    )
    model.bimap.weight = arrays["bimap_0"].copy()
    model.rbn.mean = arrays["rbn_mean_0"].copy()
    for name in model.clf.parameters():
        setattr(model.clf, name, arrays[f"clf_{name}"].copy())
    model._folded_plan()
    return model
