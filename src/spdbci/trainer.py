"""Training loop, cross-validated and holdout evaluation, and inference
benchmarking.

Training is deterministic: (config, data, seed) fixes every reported
number.  Unconstrained parameters take plain gradient-descent steps at
the configured rate; Stiefel-constrained weights take projected steps
followed by a QR retraction.  Channel selection is fitted once on the
training partition before network training.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .classifier import cross_entropy
from .config import TrainConfig, config_from_mapping
from .eeg_io import ModelBundle, RawTrialSet
from .errors import ConfigError, InsufficientData, NonFiniteLoss, SchemaMismatch
from .filterbank import design_bandpass, segment
from .layers import karcher_mean
from .model import Model, count_parameters, model_from_bundle
from .selection import fit_selection
from .spd import covariance


@dataclass
class EvalReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    confusion: np.ndarray
    parameter_count: int
    std_convention: str = "population over folds"


#: Windows filtered per :func:`prepare_dataset` block, in bytes: seven
#: 8-channel, 2-window trials of the default bank.  A larger trial is a
#: block of its own.  On train-c5, blocks of 1-4 MiB prepared equally
#: fast; smaller ones pay scipy's per-call overhead, and larger ones
#: leave the cache.
BLOCK_BYTES = 1 << 20


def prepare_dataset(trials: RawTrialSet, config: TrainConfig):
    """Segment, filter, and turn a trial set into covariance tensors.

    Returns ``(covs, labels)`` with covs of shape (N, S, F, M, M): each
    window's :func:`covariance`, shrunk by ``spd.SHRINKAGE_SCALE`` times
    its trace over M.  Trials are processed in blocks of about
    :data:`BLOCK_BYTES` of windows, at least one trial each: one
    :func:`segment` call (one ``lfilter`` call per band) and one batched
    :func:`covariance` call, which centres the block's (n, S, F, M, L)
    array in place rather than into a second block-sized array.  So
    the windows held in memory are bounded by the block, not the set,
    and every trial's covariances equal its own single-trial run bit
    for bit, whatever block it falls in.  Raises
    :class:`InsufficientData` for a set without trials.
    """
    if not trials.trials:
        raise InsufficientData("the trial set has no trials")
    spec = config.band_spec()
    n, m = len(trials.trials), trials.channels
    n_windows = trials.samples_per_trial // config.window_len
    # A trial too short for one window holds no bytes; segment rejects it.
    trial_bytes = 8 * n_windows * len(spec.bands) * m * config.window_len
    per_block = max(1, BLOCK_BYTES // max(1, trial_bytes))
    covs = np.empty((n, n_windows, len(spec.bands), m, m))
    for start in range(0, n, per_block):
        block = slice(start, start + per_block)
        windows = segment(trials, spec, config.window_len, block).data
        covs[block] = covariance(windows, overwrite_window=True)
    labels = np.asarray([label for label, _ in trials.trials], dtype=np.int64)
    return covs, labels


def class_band_representatives(covs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One representative per (class, band), pooling windows and trials:
    one Karcher-flow step from their arithmetic mean."""
    classes = np.unique(labels)
    n_bands = covs.shape[2]
    reps = []
    for c in classes:
        in_class = labels == c
        for f in range(n_bands):
            # index one (class, band) group: a whole-class copy sets the memory peak
            group = covs[in_class, :, f].reshape(-1, covs.shape[-1], covs.shape[-1])
            reps.append(karcher_mean(group))
    return np.stack(reps)


def train(
    config: TrainConfig,
    trials: RawTrialSet,
    dataset: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Model, list[float]]:
    """Fit channel selection, build the model on the selected channels
    and fit its RBN mean on the same class-band representatives, cut to
    those channels and seen through the initial BiMap weight; then train
    the network.  Returns the model and the per-epoch loss history."""
    covs, labels = dataset if dataset is not None else prepare_dataset(trials, config)
    n, s, f = covs.shape[:3]
    n_classes = trials.n_classes

    reps = class_band_representatives(covs, labels)
    selection = fit_selection(
        reps,
        m=config.m,
        max_iters=config.selection_max_iters,
        tol=config.selection_tol,
        scoring=config.channel_scoring,
    )
    model = Model(
        np.eye(covs.shape[-1])[:, selection.selected_channels],
        n_windows=s,
        n_bands=f,
        n_classes=n_classes,
        k_heads=config.k_heads,
        conv_out=config.conv_out,
        seed=config.seed,
    )
    w = model.bimap.weight
    model.rbn.fit(w @ model.cut(reps) @ w.T)

    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            logits = model.forward(covs[idx], training=True)
            loss, grad = cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss} at epoch {len(losses)}")
            model.backward(grad)
            model.step(config.learning_rate)
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / n)
    return model, losses


def predict(model: Model, covs: np.ndarray) -> np.ndarray:
    logits = model.forward(covs, training=False)
    return np.argmax(logits, axis=1)


def _accuracy_and_confusion(pred, truth, n_classes):
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(truth, pred):
        confusion[t, p] += 1
    return float(np.trace(confusion) / max(len(truth), 1)), confusion


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per trial; every class is spread evenly across folds.
    Fewer than two folds leave no training partition and raise
    :class:`ConfigError`."""
    if folds < 2:
        raise ConfigError(f"cross-validation needs at least 2 folds, got {folds}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels), dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < folds:
            raise InsufficientData(
                f"class {c} has {len(idx)} trials, fewer than {folds} folds"
            )
        idx = rng.permutation(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def evaluate_cv(config: TrainConfig, trials: RawTrialSet, folds: int = 10) -> EvalReport:
    """Stratified k-fold cross-validation; selection and training see
    only the training folds."""
    covs, labels = prepare_dataset(trials, config)
    assignment = stratified_folds(labels, folds, config.seed)
    accuracies = []
    confusion = np.zeros((trials.n_classes, trials.n_classes), dtype=np.int64)
    param_count = 0
    for fold in range(folds):
        test_mask = assignment == fold
        model, _ = train(
            config, trials, dataset=(covs[~test_mask], labels[~test_mask])
        )
        param_count = count_parameters(model)
        preds = predict(model, covs[test_mask])
        acc, conf = _accuracy_and_confusion(preds, labels[test_mask], trials.n_classes)
        accuracies.append(acc)
        confusion += conf
    return EvalReport(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=float(np.std(accuracies)),
        confusion=confusion,
        parameter_count=param_count,
    )


def evaluate_holdout(
    config: TrainConfig, train_set: RawTrialSet, eval_set: RawTrialSet
) -> EvalReport:
    """Train on one set and score another.  Sets that differ in channel
    count, class count, sample rate or windows per trial raise
    :class:`SchemaMismatch` before training."""
    if train_set.channels != eval_set.channels:
        raise SchemaMismatch("train and eval channel counts differ")
    if train_set.n_classes != eval_set.n_classes:
        raise SchemaMismatch("train and eval class counts differ")
    if train_set.sample_rate_hz != eval_set.sample_rate_hz:
        raise SchemaMismatch("train and eval sample rates differ")
    windows = [s.samples_per_trial // config.window_len for s in (train_set, eval_set)]
    if windows[0] != windows[1]:
        raise SchemaMismatch(f"train and eval windows per trial differ: {windows}")
    model, _ = train(config, train_set)
    covs, labels = prepare_dataset(eval_set, config)
    acc, confusion = _accuracy_and_confusion(
        predict(model, covs), labels, eval_set.n_classes
    )
    return EvalReport(
        fold_accuracies=[acc],
        mean_accuracy=acc,
        std_accuracy=0.0,
        confusion=confusion,
        parameter_count=count_parameters(model),
        std_convention="single holdout split",
    )


def bench_inference(
    bundle: ModelBundle, trials: RawTrialSet, repetitions: int = 1
) -> dict[str, float]:
    """Wall-clock for the full per-trial pipeline (segment through logits).

    The filter bank is designed once before the timed loop and its time
    is reported as ``design_s``, and the model's folded inference plan is
    built after it, untimed; the per-trial samples then measure the
    steady state, with every design served from the cache.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if not trials.trials:
        raise InsufficientData("the trial set has no trials")
    config = config_from_mapping(bundle.config)
    model = model_from_bundle(bundle)
    spec = config.band_spec()
    tic = time.perf_counter()
    for band in spec.bands:
        design_bandpass(band, trials.sample_rate_hz)
    design_s = time.perf_counter() - tic
    model._folded_plan()
    samples = []
    for _ in range(repetitions):
        for label, data in trials.trials:
            one = RawTrialSet(
                trials.sample_rate_hz, trials.channels, trials.samples_per_trial,
                [(label, data)], trials.n_classes,
            )
            tic = time.perf_counter()
            covs, _ = prepare_dataset(one, config)
            predict(model, covs)
            samples.append(time.perf_counter() - tic)
    arr = np.asarray(samples)
    return {
        "samples": len(arr),
        "design_s": design_s,
        "mean_s": float(arr.mean()),
        "median_s": float(np.median(arr)),
        "max_s": float(arr.max()),
    }
