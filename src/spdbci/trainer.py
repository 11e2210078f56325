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
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .classifier import cross_entropy
from .config import TrainConfig
from .eeg_io import ModelBundle, RawTrialSet, eegb_rate
from .errors import (ConfigError, InsufficientData, NonFiniteLoss, SchemaMismatch,
                     ShapeMismatch)
from .filterbank import bank_plan, row_len, segment
from .layers import karcher_mean
from .model import Model, bundle_config, count_parameters, model_from_bundle
from .selection import SelectionTransform, fit_selection
from .spd import covariance, packed_order, unpack


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

    Returns ``(covs, labels)`` with covs of shape (N, S, F, M(M + 1)/2):
    each window's :func:`covariance`, shrunk by ``spd.SHRINKAGE_SCALE``
    times its trace over M, as its packed upper triangle (see
    :func:`~spdbci.spd.packed_layout`), so each entry is stored once, and
    the set takes about half the memory of full (M, M) matrices: 42 MB
    against 80 MB for 288 22-channel trials of 8 windows and 9 bands.
    Trials are processed in blocks of about
    :data:`BLOCK_BYTES` of windows, at least one trial each: one
    :func:`segment` call (one filter-kernel call for all trials and
    bands of the block, which reads a lone trial where it is) and one
    batched :func:`covariance` call on the block's windows.  A set of
    one block returns that call's covariances as they are; a larger set
    copies each block's into one array.  The windows are the first M rows
    of an (n, S, F, M + 1, Q * b) buffer of block-aligned rows (Q * b =
    :func:`~spdbci.filterbank.row_len` of the window length L),
    allocated once (twice when pipelined, below) and reused by every
    block.  :func:`segment` filters into that M-row view; columns L to
    Q * b of each row hold the filter's response past the window and are
    never read.  The spare last row belongs to :func:`covariance`, which
    takes the buffer's ``[..., :L]`` columns and fills that row with
    ones, so one matrix product per window gives the Gram matrix and the
    row sums, with no copy or centring of the window.  So the windows
    held in memory are bounded by the block, not the set, and every
    trial's covariances equal its own single-trial run bit for bit,
    whatever block it falls in.

    When each trial fills a block by itself (its windows exceed
    :data:`BLOCK_BYTES`, as 22-channel, 4 s trials do), the set has more
    than one, and :func:`_pool_workers` grants two or more workers, the
    blocks run as a two-stage pipeline (:func:`_pipeline`): the caller
    filters each trial into one of two padded buffers while one pool
    thread takes the other buffer's covariances and writes its trial's
    rows of ``covs``; numpy releases the GIL in the filter kernel's and
    ``covariance``'s products.  The covariances are about a third of a
    trial's time, so the caller's filtering stays the critical path: the
    stage runs at the calling thread's speed and waits for the helper
    only when the helper's CPU runs at under about half the caller's.
    Multi-trial blocks and one-trial sets run in the caller alone:
    pooled 8-channel blocks measured no faster.  Either way the first
    failing block's error is raised, and the pool is joined before the
    call returns.  Raises :class:`InsufficientData` for a set without
    trials.
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

    def filtered(buffer, start):
        out = buffer[: min(per_block, n - start)]
        segment(trials, spec, config.window_len, slice(start, start + per_block), out[..., :m, :])
        return out[..., : config.window_len]

    if n == per_block:
        # one block: its covariances are the set's, with no copy
        covs = covariance(filtered(padded, 0))
    else:
        covs = np.empty((n, n_windows, len(spec.bands), m * (m + 1) // 2))

        def reduce(windows, start):
            covs[start : start + per_block] = covariance(windows)

        if per_block == 1 and _pool_workers(n, segment, covariance) > 1:
            _pipeline(range(n), padded, filtered, reduce)
        else:
            for start in range(0, n, per_block):
                reduce(filtered(padded, start), start)
    labels = np.asarray([label for label, _ in trials.trials], dtype=np.int64)
    return covs, labels


def _pipeline(starts, buffer, first, second):
    """Run ``second(first(b, start), start)`` for each of ``starts`` in
    order, the caller calling each ``first`` and one pool thread each
    ``second``, so the ``second`` of one start overlaps the ``first`` of
    the next.  The calls alternate between ``buffer`` and an empty array
    like it: a ``first`` waits until the ``second`` that last used its
    buffer has returned.  After a ``first`` fails the caller starts no
    other, and the ``second`` calls already handed over still run; after
    a ``second`` fails the thread runs no other and the caller starts no
    new ``first``.  Once the thread is joined, the lower failing start's
    error is raised, which is the error a loop over ``starts`` raises."""
    free, filled = queue.SimpleQueue(), queue.SimpleQueue()
    free.put(buffer)
    free.put(np.empty_like(buffer))
    failed = {}  # "first" and "second": (start, error), each set once

    def drain():
        while (item := filled.get()) is not None:
            buf, start, result = item
            try:
                if "second" not in failed:
                    second(result, start)
            except BaseException as exc:
                failed["second"] = (start, exc)
            finally:
                free.put(buf)

    with ThreadPoolExecutor(1) as pool:
        helper = pool.submit(drain)
        try:
            for start in starts:
                buf = free.get()
                if "second" in failed:
                    break
                try:
                    result = first(buf, start)
                except BaseException as exc:
                    failed["first"] = (start, exc)
                    break
                filled.put((buf, start, result))
        finally:
            filled.put(None)
            helper.result()
    if failed:
        raise min(failed.values(), key=lambda item: item[0])[1]


#: Where :func:`_cpu_count` reads the process's cgroups, and the root
#: under which their controllers are mounted.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _cgroup_cpu_limit() -> int | None:
    """The CPUs a cgroup CPU quota grants this process, or None where
    no quota is set or none can be read.

    Each line of :data:`_PROC_CGROUP` names a hierarchy and the
    process's cgroup in it.  cgroup v2 (``0::/path``) keeps the quota
    in ``cpu.max`` as ``quota period``, or ``max period`` for none; a
    v1 hierarchy with the ``cpu`` controller keeps it in
    ``cpu.cfs_quota_us`` (-1 for none) and ``cpu.cfs_period_us``.  A
    parent's quota bounds its children, so the process's cgroup and
    each of its parents up to the hierarchy's root count, and the
    smallest ``ceil(quota / period)``, at least 1, wins.  A file that
    is missing, unreadable or malformed counts as no quota.
    """
    try:
        with open(_PROC_CGROUP, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError):
        return None
    limits = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        _, controllers, path = fields
        if controllers == "":
            base, read = _CGROUP_ROOT, _read_cpu_max
        elif "cpu" in controllers.split(","):
            base, read = os.path.join(_CGROUP_ROOT, controllers), _read_cfs_quota
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            try:
                quota = read(os.path.join(base, *parts[:depth]))
            except (OSError, ValueError):
                continue
            if quota is not None:
                limits.append(max(1, -(-quota[0] // quota[1])))
    return min(limits, default=None)


def _read_cpu_max(directory):
    with open(os.path.join(directory, "cpu.max"), encoding="ascii") as fh:
        quota, period = fh.read().split()
    return None if quota == "max" else (int(quota), int(period))


def _read_cfs_quota(directory):
    with open(os.path.join(directory, "cpu.cfs_quota_us"), encoding="ascii") as fh:
        quota = int(fh.read())
    with open(os.path.join(directory, "cpu.cfs_period_us"), encoding="ascii") as fh:
        period = int(fh.read())
    return None if quota < 0 else (quota, period)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else the machine's count, and no more than a cgroup
    CPU quota grants (:func:`_cgroup_cpu_limit`)."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    limit = _cgroup_cpu_limit()
    return count if limit is None else min(count, limit)


def _pool_workers(items: int, *work) -> int:
    """Workers for ``items`` independent tasks, the one pool rule: one
    per CPU the process may use (:func:`_cpu_count`), at most one per
    item.  The caller is one of them: a pooled stage computes in the
    caller too, beside at most one pool thread fewer than this count
    (:func:`_pipeline`, :func:`_ordered_map`), so no more threads
    compute than there are CPUs.  1, so no pool, when a function of the
    ``work`` is wrapped (it has a ``__wrapped__``, as a
    ``functools.wraps`` profiler or tracer gives it): such a wrapper may
    keep state that two threads would corrupt, so it runs in the caller
    alone."""
    if any(hasattr(fn, "__wrapped__") for fn in work):
        return 1
    return min(_cpu_count(), items)


def _ordered_map(fn, items, workers):
    """``[fn(item) for item in items]`` on ``workers`` threads: the
    caller and ``workers - 1`` pool threads take the items in order from
    one shared queue, so the caller computes too.  After an item fails
    no thread starts another, and the items already started finish.
    Once the pool is joined, the lowest failing item's error is raised:
    every item before it had started, so that is the error the loop
    raises."""
    taken = iter(range(len(items)))
    results = [None] * len(items)
    failed = {}  # item index: error
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                k = None if failed else next(taken, None)
            if k is None:
                return
            try:
                results[k] = fn(items[k])
            except BaseException as exc:
                with lock:
                    failed[k] = exc

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        try:
            work()
        finally:
            for helper in helpers:
                helper.result()
    if failed:
        raise failed[min(failed)]
    return results


def class_band_representatives(covs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One representative per (class, band), pooling windows and trials:
    the :func:`~spdbci.layers.karcher_mean` of the group, one
    Karcher-flow step from their arithmetic mean.  ``covs`` holds packed
    rows (N, S, F, M(M + 1)/2), as :func:`prepare_dataset` returns them;
    each group's rows are copied out and unpacked into the full
    (n * S, M, M) batch that the mean takes, and the representatives come
    back full, (C, F, M, M).  A ``covs`` of another rank, or of a width
    that no M gives, raises :class:`~spdbci.errors.ShapeMismatch`.

    The groups run on :func:`_pool_workers` threads, one per CPU the
    process may use and at most one per group, with no pool for one
    worker or a wrapped ``karcher_mean``.  The caller is one of them: it
    takes groups in (class, band) order from one queue, shared with a
    pool of one thread fewer (:func:`_ordered_map`), so no more threads
    compute than there are CPUs, and the caller's groups are allocated
    in its own heap, which the single-trial calls after it reuse; numpy
    releases the GIL in the ``eigh`` and ``gemm`` calls that make up a
    mean.  The pool is made for this call and joined before it returns.
    Each group's mean is computed alone from the same data, so the
    result is the same bit for bit whatever the CPU count.  Results come
    back in (class, band) order; no group starts after one has failed,
    and the first failing group in that order sets the error, as the
    serial loop raised it.
    """
    if covs.ndim != 4:
        raise ShapeMismatch(f"covs must be (N, S, F, M(M + 1)/2) packed rows, got {covs.shape}")
    m = packed_order(covs.shape[-1])
    groups = [(labels == c, f) for c in np.unique(labels) for f in range(covs.shape[2])]

    def fit(group):
        in_class, f = group
        # index one (class, band) group: a whole-class copy sets the memory peak
        return karcher_mean(unpack(covs[in_class, :, f]).reshape(-1, m, m))

    workers = _pool_workers(len(groups), karcher_mean)
    if workers < 2:
        return np.stack([fit(g) for g in groups])
    return np.stack(_ordered_map(fit, groups, workers))


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
        n_channels=reps.shape[-1],
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
            # a diverging step overflows here; the loss check below
            # reports it, typed, instead of numpy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
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
