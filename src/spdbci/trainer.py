"""Training loop, cross-validated and holdout evaluation, and inference
benchmarking.

Training is deterministic: (config, data, seed) fixes every reported
number.  Unconstrained parameters take plain gradient-descent steps at
the configured rate; Stiefel-constrained weights take projected steps
followed by a QR retraction.  Channel selection is fitted once on the
training partition before network training.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .classifier import cross_entropy
from .config import TrainConfig, config_to_mapping
from .eeg_io import ModelBundle, RawTrialSet
from .errors import ConfigError, InsufficientData, NonFiniteLoss, SchemaMismatch
from .filterbank import design_bandpass, segment
from .layers import karcher_mean
from .model import Model, count_parameters, model_from_bundle, model_to_bundle
from .selection import fit_selection
from .spd import covariance


@dataclass
class EvalReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    std_accuracy: float
    confusion: np.ndarray
    parameter_count: int
    latency_mean_s: float
    latency_max_s: float
    std_convention: str = "population over folds"


def prepare_dataset(trials: RawTrialSet, config: TrainConfig):
    """Segment, filter, and turn a trial set into covariance tensors.

    Returns ``(covs, labels)`` with covs of shape (N, S, F, M, M).  The
    shrinkage for each window is ``shrinkage_scale * trace / M`` of the
    raw covariance, with a tiny absolute floor so degenerate windows
    still produce SPD matrices.  Trials are processed one at a time
    (segment, shrinkage, one batched :func:`covariance` call), so only
    one trial's windows are held in memory, and a trial's covariances
    do not depend on the other trials in the set.  Raises
    :class:`InsufficientData` for a set without trials.
    """
    if not trials.trials:
        raise InsufficientData("the trial set has no trials")
    spec = config.band_spec()
    covs = np.empty((
        len(trials.trials), trials.samples_per_trial // config.window_len,
        len(spec.bands), trials.channels, trials.channels,
    ))
    for i, item in enumerate(trials.trials):
        one = dataclasses.replace(trials, trials=[item])
        [(_, tensor)] = segment(one, spec, config.window_len)
        windows = tensor.data  # (S, F, M, L), C-contiguous
        *_, m, length = windows.shape
        z = windows - windows.mean(axis=-1, keepdims=True)
        # Each window summed as one flat run, the order np.sum takes over
        # a contiguous 2-D window, so eps matches the per-window value.
        energy = np.sum((z * z).reshape(*z.shape[:-2], -1), axis=-1)
        eps = config.shrinkage_scale * energy / (length * m)
        covs[i] = covariance(windows, np.maximum(eps, 1e-12))
    labels = np.asarray([label for label, _ in trials.trials], dtype=np.int64)
    return covs, labels


def class_band_representatives(covs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One Karcher mean per (class, band), pooling windows and trials."""
    classes = np.unique(labels)
    n_bands = covs.shape[2]
    reps = []
    for c in classes:
        per_class = covs[labels == c]  # (Nc, S, F, M, M)
        for f in range(n_bands):
            group = per_class[:, :, f].reshape(-1, covs.shape[-1], covs.shape[-1])
            reps.append(karcher_mean(group))
    return np.stack(reps)


def train(
    config: TrainConfig,
    trials: RawTrialSet,
    dataset: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Model, list[float]]:
    """Fit channel selection, then train the network; returns the model
    and the per-epoch loss history."""
    covs, labels = dataset if dataset is not None else prepare_dataset(trials, config)
    n, s, f, m, _ = covs.shape
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
        selection,
        n_windows=s,
        n_bands=f,
        n_channels=m,
        n_classes=n_classes,
        k_heads=config.k_heads,
        reeig_epsilon=config.reeig_epsilon,
        bimap_layers=config.bimap_layers,
        karcher_iterations=config.karcher_iterations,
        rbn_momentum=config.rbn_momentum,
        conv_out=config.conv_out,
        seed=config.seed,
    )

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


def _std(values: np.ndarray, convention: str) -> float:
    ddof = 0 if convention == "population" else 1
    return float(np.std(values, ddof=ddof)) if len(values) > ddof else 0.0


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per trial; every class is spread evenly across folds."""
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


def _timed_predictions(model: Model, covs: np.ndarray):
    preds = np.empty(len(covs), dtype=np.int64)
    latencies = np.empty(len(covs))
    for i in range(len(covs)):
        tic = time.perf_counter()
        preds[i] = predict(model, covs[i : i + 1])[0]
        latencies[i] = time.perf_counter() - tic
    return preds, latencies


def evaluate_cv(config: TrainConfig, trials: RawTrialSet, folds: int = 10) -> EvalReport:
    """Stratified k-fold cross-validation; selection and training see
    only the training folds."""
    covs, labels = prepare_dataset(trials, config)
    assignment = stratified_folds(labels, folds, config.seed)
    accuracies = []
    confusion = np.zeros((trials.n_classes, trials.n_classes), dtype=np.int64)
    latencies = []
    param_count = 0
    for fold in range(folds):
        test_mask = assignment == fold
        model, _ = train(
            config, trials, dataset=(covs[~test_mask], labels[~test_mask])
        )
        param_count = count_parameters(model)
        preds, lat = _timed_predictions(model, covs[test_mask])
        acc, conf = _accuracy_and_confusion(preds, labels[test_mask], trials.n_classes)
        accuracies.append(acc)
        confusion += conf
        latencies.append(lat)
    latencies = np.concatenate(latencies)
    return EvalReport(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        std_accuracy=_std(np.asarray(accuracies), config.std_divisor),
        confusion=confusion,
        parameter_count=param_count,
        latency_mean_s=float(latencies.mean()),
        latency_max_s=float(latencies.max()),
    )


def evaluate_holdout(
    config: TrainConfig, train_set: RawTrialSet, eval_set: RawTrialSet
) -> tuple[EvalReport, Model]:
    if train_set.channels != eval_set.channels:
        raise SchemaMismatch("train and eval channel counts differ")
    if train_set.n_classes != eval_set.n_classes:
        raise SchemaMismatch("train and eval class counts differ")
    model, _ = train(config, train_set)
    covs, labels = prepare_dataset(eval_set, config)
    preds, latencies = _timed_predictions(model, covs)
    acc, confusion = _accuracy_and_confusion(preds, labels, eval_set.n_classes)
    report = EvalReport(
        fold_accuracies=[acc],
        mean_accuracy=acc,
        std_accuracy=0.0,
        confusion=confusion,
        parameter_count=count_parameters(model),
        latency_mean_s=float(latencies.mean()),
        latency_max_s=float(latencies.max()),
        std_convention="single holdout split",
    )
    return report, model


def bench_inference(
    bundle: ModelBundle, trials: RawTrialSet, repetitions: int = 1
) -> dict[str, float]:
    """Wall-clock for the full per-trial pipeline (segment through logits).

    The filter bank is designed once before the timed loop and its time
    is reported as ``design_s``; the per-trial samples then measure the
    steady state, with every design served from the cache.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if not trials.trials:
        raise InsufficientData("the trial set has no trials")
    from .config import config_from_mapping

    config = config_from_mapping(bundle.config)
    model = model_from_bundle(bundle)
    spec = config.band_spec()
    tic = time.perf_counter()
    for band in spec.bands:
        design_bandpass(band, trials.sample_rate_hz, spec.filter_order,
                        spec.stopband_atten_db)
    design_s = time.perf_counter() - tic
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


def train_to_bundle(config: TrainConfig, trials: RawTrialSet) -> ModelBundle:
    model, _ = train(config, trials)
    return model_to_bundle(model, config_to_mapping(config))
