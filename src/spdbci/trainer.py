"""Training loop, cross-validated and holdout evaluation, and inference
benchmarking.

Training is deterministic: (config, data, seed) fixes every reported
number.  Unconstrained parameters take plain gradient-descent steps at
the configured rate; Stiefel-constrained weights take projected steps
followed by a QR retraction.  Channel selection is fitted once on the
training partition before network training.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .classifier import cross_entropy
from .config import TrainConfig
from .eeg_io import ModelBundle, RawTrialSet, eegb_rate
from .errors import ConfigError, InsufficientData, NonFiniteLoss, SchemaMismatch
from .filterbank import bank_plan, row_len, segment
from .layers import karcher_mean
from .model import Model, bundle_config, count_parameters, model_from_bundle
from .selection import SelectionTransform, fit_selection
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
#: block of its own.  A trial is counted at its M rows of L-sample
#: windows, not the M + 1 block-aligned rows of the padded buffer that
#: holds them, which would put 6 of those trials in a block.  On
#: train-c5 with one filter-kernel call per block, 1 MiB prepared
#: fastest of 256 KiB-4 MiB: smaller blocks repeat the kernel's
#: per-call work for fewer trials (256 KiB, one trial a block, at half
#: the rate), and larger ones leave the cache (1.5-4 MiB 9-16% slower).
BLOCK_BYTES = 1 << 20


def prepare_dataset(trials: RawTrialSet, config: TrainConfig):
    """Segment, filter, and turn a trial set into covariance tensors.

    Returns ``(covs, labels)`` with covs of shape (N, S, F, M, M): each
    window's :func:`covariance`, shrunk by ``spd.SHRINKAGE_SCALE`` times
    its trace over M.  Trials are processed in blocks of about
    :data:`BLOCK_BYTES` of windows, at least one trial each: one
    :func:`segment` call (one filter-kernel call for all trials and
    bands of the block, which reads a lone trial where it is) and one
    batched :func:`covariance` call on the block's windows.  A set of
    one block returns that call's covariances as they are; a larger set
    copies each block's into one array.  The windows are the first M rows
    of an (n, S, F, M + 1, Q * b) buffer of block-aligned rows (Q * b =
    :func:`~spdbci.filterbank.row_len` of the window length L),
    allocated once and reused by every block.  :func:`segment` filters
    into that M-row view; columns L to Q * b of each row hold the
    filter's response past the window and are never read.  The spare
    last row belongs to :func:`covariance`, which takes the buffer's
    ``[..., :L]`` columns and fills that row with ones, so one matrix
    product per window gives the Gram matrix and the row sums, with no
    copy or centring of the window.  So the windows
    held in memory are bounded by the block, not the set, and every
    trial's covariances equal its own single-trial run bit for bit,
    whatever block it falls in.  Raises :class:`InsufficientData` for a
    set without trials.
    """
    if not trials.trials:
        raise InsufficientData("the trial set has no trials")
    spec = config.band_spec()
    n, m = len(trials.trials), trials.channels
    n_windows = trials.samples_per_trial // config.window_len
    # A trial too short for one window holds no bytes; segment rejects it.
    trial_bytes = 8 * n_windows * len(spec.bands) * m * config.window_len
    per_block = min(n, max(1, BLOCK_BYTES // max(1, trial_bytes)))
    padded = np.empty((per_block, n_windows, len(spec.bands), m + 1, row_len(config.window_len)))

    def block_covariances(start):
        out = padded[: min(per_block, n - start)]
        segment(trials, spec, config.window_len, slice(start, start + per_block), out[..., :m, :])
        return covariance(out[..., : config.window_len])

    if n == per_block:
        # one block: its covariances are the set's, with no copy
        covs = block_covariances(0)
    else:
        covs = np.empty((n, n_windows, len(spec.bands), m, m))
        for start in range(0, n, per_block):
            covs[start : start + per_block] = block_covariances(start)
    labels = np.asarray([label for label, _ in trials.trials], dtype=np.int64)
    return covs, labels


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def class_band_representatives(covs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One representative per (class, band), pooling windows and trials:
    the :func:`~spdbci.layers.karcher_mean` of the group, one
    Karcher-flow step from their arithmetic mean.

    The groups run on a pool of one thread per CPU the process may use
    (:func:`_cpu_count`), at most one per group.  The caller only waits,
    so no more threads are runnable than there are CPUs; numpy releases
    the GIL in the ``eigh`` and ``gemm`` calls that make up a mean.  The
    pool is made for this call and joined before it returns.  No pool is
    made with one CPU or one group, nor when ``karcher_mean`` is wrapped
    (it has a ``__wrapped__``, as a ``functools.wraps`` profiler or
    tracer gives it): such a wrapper may keep state that two threads
    would corrupt, so it runs in the caller alone.  Each group's mean is
    computed alone from the same data, so the result is the same bit for
    bit whatever the CPU count.  Results come back in (class, band)
    order, so the first failing group's error is raised, as the serial
    loop raised it, and groups not yet started are cancelled.
    """
    m = covs.shape[-1]
    groups = [(labels == c, f) for c in np.unique(labels) for f in range(covs.shape[2])]

    def fit(group):
        in_class, f = group
        # index one (class, band) group: a whole-class copy sets the memory peak
        return karcher_mean(covs[in_class, :, f].reshape(-1, m, m))

    workers = min(_cpu_count(), len(groups))
    if workers < 2 or hasattr(karcher_mean, "__wrapped__"):
        return np.stack([fit(g) for g in groups])
    with ThreadPoolExecutor(workers) as pool:
        return np.stack(list(pool.map(fit, groups)))


def select_channels(config: TrainConfig, reps: np.ndarray) -> SelectionTransform:
    """Fit channel selection on class-band representatives with the
    config's ``m``, iteration cap, tolerance and scoring rule."""
    return fit_selection(reps, m=config.m, max_iters=config.selection_max_iters,
                         tol=config.selection_tol, scoring=config.channel_scoring)


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
    model = Model(
        select_channels(config, reps).selected_channels,
        n_channels=covs.shape[-1],
        n_windows=s,
        n_bands=f,
        n_classes=n_classes,
        k_heads=config.k_heads,
        conv_out=config.conv_out,
        seed=config.seed,
        sample_rate=trials.sample_rate_hz,
    )
    model.fit_reference(reps)

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
    :class:`SchemaMismatch` before training; rates are compared by
    :func:`~spdbci.eeg_io.eegb_rate`, as the float32 that EEGB stores,
    so a set matches its own EEGB round trip."""
    if train_set.channels != eval_set.channels:
        raise SchemaMismatch("train and eval channel counts differ")
    if train_set.n_classes != eval_set.n_classes:
        raise SchemaMismatch("train and eval class counts differ")
    if eegb_rate(train_set.sample_rate_hz) != eegb_rate(eval_set.sample_rate_hz):
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

    The filter bank is designed and its kernel plan built once before the
    timed loop, and that time is reported as ``design_s``; the per-trial
    samples then measure the steady state, with every design and the
    kernel plan served from the cache and the folded plan that
    :func:`~spdbci.model.model_from_bundle` built.  A trial set at
    another sample rate than the model was trained on raises
    :class:`SchemaMismatch`; rates are compared by
    :func:`~spdbci.eeg_io.eegb_rate`, as the float32 that EEGB stores,
    so trials match a model trained on their own EEGB round trip.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if not trials.trials:
        raise InsufficientData("the trial set has no trials")
    config = bundle_config(bundle)
    model = model_from_bundle(bundle)
    if eegb_rate(trials.sample_rate_hz) != eegb_rate(model.sample_rate):
        raise SchemaMismatch(
            f"model was trained at {model.sample_rate} Hz, trials are at "
            f"{trials.sample_rate_hz} Hz"
        )
    spec = config.band_spec()
    tic = time.perf_counter()
    bank_plan(spec, trials.sample_rate_hz, config.window_len)
    design_s = time.perf_counter() - tic
    samples = []
    for _ in range(repetitions):
        for label, data in trials.trials:
            one = replace(trials, trials=[(label, data)])
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
