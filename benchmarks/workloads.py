"""The three benchmark workloads: ``train-c5``, ``online-1trial`` and
``select-22ch``.

Each workload is a closed loop with one caller in one process.  Inputs
come from the seed alone.  ``setup`` builds the inputs (and, for
``online-1trial``, the model under test); ``measure`` runs the timed
part, checks the outputs and returns the end-to-end figures.  Every
workload reports the same end-to-end metric names, with the meaning
given in NOTES.md.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from spdbci import config, eeg_io, model, synth, trainer
from spdbci.eeg_io import RawTrialSet

from calibrate import Clock, Interval

#: Samples in a latency loop, so that the p99 has ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
#: Chunks of the latency samples whose p99s give the reported p99.
TAIL_CHUNKS = 5
#: Single-trial logits must equal the batched logits to this relative
#: round-off (the two paths sum in the same order; 6e-15 was observed).
LOGIT_RTOL = 1e-10
#: Generator seed of the class covariances in tests/test_acceptance.py,
#: criterion 5.
C5_GEOMETRY_SEED = 55


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


@dataclass
class Ops:
    """Operations attempted and failed in one pass."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def stage(self, fn, *args, **kwargs):
        """Run one stage; its failure ends the pass."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def attempt(self, fn, *args):
        """Run one repeated operation; a failure is counted and skipped."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # counted into `failed`, which fails the run
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


@dataclass
class Context:
    """What a pass needs besides the workload's own state."""

    ops: Ops
    clock: Clock
    seconds: float
    min_samples: int


class Timings:
    """Named lists of timed intervals, converted once the pass is done."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.intervals: dict[str, list[Interval]] = {}

    def run(self, name: str, fn, *args, **kwargs):
        out, iv = self.clock.timed(fn, *args, **kwargs)
        self.intervals.setdefault(name, []).append(iv)
        return out

    def seconds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Reference and wall seconds of every interval under ``name``."""
        pairs = np.array([self.clock.reference(iv) for iv in self.intervals[name]])
        return pairs[:, 0], pairs[:, 1]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _single_trials(trials: RawTrialSet) -> list[RawTrialSet]:
    return [
        RawTrialSet(trials.sample_rate_hz, trials.channels, trials.samples_per_trial,
                    [item], trials.n_classes)
        for item in trials.trials
    ]


def _latency_loop(ctx: Context, times: Timings, step, items: list, first_pass,
                  after_pass=None) -> None:
    """Send ``items`` through ``step`` one at a time, cycling, until a full
    pass, ``ctx.min_samples`` attempts and ``ctx.seconds`` have all been
    reached.  Each successful operation's interval goes to ``times``
    under ``"latency"``.

    ``first_pass(k, out)`` sees each output of the first pass and
    ``after_pass()`` runs after every full pass, both outside the timed
    region.
    """
    done = times.intervals.setdefault("latency", [])
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while i < len(items) or i < ctx.min_samples or time.perf_counter() < deadline:
        k = i % len(items)
        out, iv = ctx.clock.timed(ctx.ops.attempt, step, items[k])
        # Contention bursts shorter than the timer period set the tail, so
        # each sample gets a probe of its own right after it.
        ctx.clock.mark()
        if out is not None:
            done.append(iv)
            if i < len(items):
                first_pass(k, out)
        i += 1
        if after_pass is not None and i % len(items) == 0:
            after_pass()


def _latency_metrics(times: Timings, ref: dict, wall: dict) -> list[float]:
    """p50 of all samples, and the median over ``TAIL_CHUNKS`` consecutive
    chunks of each chunk's p99, which one burst of contention on a
    shared machine cannot move by itself.  Returns the samples in ms at
    reference speed."""
    ref_s, wall_s = times.seconds("latency")
    for out, samples in ((ref, ref_s), (wall, wall_s)):
        out["online_p50_ms"] = 1e3 * float(np.percentile(samples, 50))
        out["online_p99_ms"] = 1e3 * float(np.median(
            [np.percentile(chunk, 99) for chunk in np.array_split(samples, TAIL_CHUNKS)]))
    return [round(1e3 * x, 4) for x in ref_s]


def _criterion5_sets(seed, per_class, held_out_per_class):
    """Trials drawn from ``seed`` around the fixed criterion-5 class
    covariances (8 channels, planted 1, 3, 5, separation 2), so that the
    seed varies the sample and not the difficulty of the task."""
    covs = synth.two_class_covariances(8, planted=[1, 3, 5], separation=2.0,
                                       rng=np.random.default_rng(C5_GEOMETRY_SEED))
    rng = np.random.default_rng(seed)
    fit_set = synth.synthetic_trials(covs, per_class, 250, 250.0, rng=rng)
    held_out = synth.synthetic_trials(covs, held_out_per_class, 250, 250.0, rng=rng)
    return fit_set, held_out


def _forward_one(model_, cfg):
    def step(one: RawTrialSet) -> np.ndarray:
        covs, _ = trainer.prepare_dataset(one, cfg)
        return model_.forward(covs, training=False)[0]
    return step


def _compare_logits(single: np.ndarray, batched: np.ndarray, what: str) -> None:
    scale = max(1.0, float(np.max(np.abs(batched))))
    err = float(np.max(np.abs(single - batched)))
    _check(err <= LOGIT_RTOL * scale,
           f"{what}: single-trial logits differ from batched logits by {err:.3e}")


# ---------------------------------------------------------------------------
# train-c5
# ---------------------------------------------------------------------------

class TrainC5:
    """Criterion-5 shape: 8 channels, 250 Hz, 1 s trials, 200 trials per
    class; the default TrainConfig (9 bands, 2 windows, batch 64, model
    seed 0) for a fixed epoch budget, scored on 100 held-out trials per
    class from the same generator."""

    name = "train-c5"
    epochs = 10
    #: Held-out accuracy must reach this; chance is 0.5.
    accuracy_floor = 0.6

    def __init__(self, toy: bool):
        self.per_class, self.held_out = (10, 10) if toy else (200, 100)
        self.epochs = 1 if toy else TrainC5.epochs
        self.accuracy_floor = 0.0 if toy else TrainC5.accuracy_floor

    def setup(self, seed: int):
        return _criterion5_sets(seed, self.per_class, self.held_out)

    def measure(self, state, ctx: Context):
        fit_set, held_out = state
        ops = ctx.ops
        cfg = config.TrainConfig(epochs=self.epochs)
        n = len(fit_set.trials)
        times = Timings(ctx.clock)

        def prepare():
            return times.run("prepare", ops.stage, trainer.prepare_dataset, fit_set, cfg)

        # Preparation is timed three times across the run, so that its
        # median does not rest on one moment of a shared machine.
        dataset = prepare()
        net, losses = times.run("train", ops.stage, trainer.train, cfg, fit_set,
                                dataset=dataset)

        _, prefix = ops.stage(trainer.train, dataclasses.replace(cfg, epochs=1), fit_set,
                              dataset=prepare())
        _check(prefix == losses[:1],
               f"loss history does not repeat: {prefix} vs {losses[:1]}")

        covs, labels = ops.stage(trainer.prepare_dataset, held_out, cfg)
        logits = ops.stage(net.forward, covs, training=False)
        accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
        _check(accuracy >= self.accuracy_floor,
               f"held-out accuracy {accuracy:.3f} below floor {self.accuracy_floor}")

        single = np.full_like(logits, np.nan)

        def keep(k, out):
            single[k] = out

        _latency_loop(ctx, times, _forward_one(net, cfg), _single_trials(held_out), keep)
        _compare_logits(single, logits, "held-out set")
        prepare()

        ctx.clock.mark()
        ref, wall = {}, {}
        for out, prep, train_s in zip((ref, wall), times.seconds("prepare"),
                                      times.seconds("train")):
            out["prepare_trials_per_s"] = n / float(np.median(prep))
            out["trials_per_s"] = cfg.epochs * n / float(train_s[0])
            out["accuracy"] = accuracy
        latency_ms = _latency_metrics(times, ref, wall)
        return ref, wall, {"latency_ms": latency_ms, "epochs": cfg.epochs,
                           "loss_history": losses}


# ---------------------------------------------------------------------------
# online-1trial
# ---------------------------------------------------------------------------

class Online1Trial:
    """A small model trained in setup and round-tripped through a bundle
    file, then fed one raw trial at a time (the ``spdbci bench`` path).
    After every pass over the trials, the same trials are scored in one
    batch."""

    name = "online-1trial"

    def __init__(self, toy: bool, out_dir: str):
        self.fit_per_class, self.per_class = (10, 10) if toy else (30, 100)
        self.epochs = 1 if toy else 2
        self.out_dir = out_dir

    def setup(self, seed: int):
        fit_set, trials = _criterion5_sets(seed, self.fit_per_class, self.per_class)
        cfg = config.TrainConfig(epochs=self.epochs)
        net, _ = trainer.train(cfg, fit_set)
        bundle = model.model_to_bundle(net, config.config_to_mapping(cfg))
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"online-1trial-{seed}-{os.getpid()}.sbcm")
        try:
            eeg_io.save_model(bundle, path)
            loaded = eeg_io.load_model(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        _check(loaded == bundle, "reloaded bundle differs from the saved one")
        return trials, net, config.config_from_mapping(loaded.config), \
            model.model_from_bundle(loaded)

    def measure(self, state, ctx: Context):
        trials, in_memory, cfg, net = state
        ops = ctx.ops
        n = len(trials.trials)
        single = np.full((n, trials.n_classes), np.nan)
        times = Timings(ctx.clock)
        batched = []

        def keep(k, out):
            single[k] = out

        def score_batch():
            covs, labels = times.run("prepare", ops.stage, trainer.prepare_dataset, trials, cfg)
            logits = times.run("forward", ops.stage, net.forward, covs, training=False)
            batched[:] = [covs, labels, logits]

        _latency_loop(ctx, times, _forward_one(net, cfg), _single_trials(trials), keep,
                      score_batch)
        covs, labels, logits = batched
        _compare_logits(single, logits, "online trials")
        reference = in_memory.forward(covs, training=False)
        _check(np.array_equal(reference, logits),
               "reloaded model does not predict exactly like the in-memory model")

        ctx.clock.mark()
        ref, wall = {}, {}
        for out, prep, fwd in zip((ref, wall), times.seconds("prepare"),
                                  times.seconds("forward")):
            out["prepare_trials_per_s"] = n / float(np.median(prep))
            out["trials_per_s"] = n / float(np.median(prep + fwd))
            out["accuracy"] = float(np.mean(np.argmax(logits, axis=1) == labels))
        latency_ms = _latency_metrics(times, ref, wall)
        return ref, wall, {"latency_ms": latency_ms, "batches": len(times.intervals["prepare"])}


# ---------------------------------------------------------------------------
# select-22ch
# ---------------------------------------------------------------------------

class Select22Ch:
    """BCI-IV-2a shape: 22 channels, 500 Hz, 4 s trials, 144 trials per
    class, a planted 5-channel subset drawn from the seed; window 250
    (8 windows x 9 bands).  Runs the ``spdbci select`` path, then times
    each trial's own trip through ``prepare_dataset``."""

    name = "select-22ch"
    channels = 22
    planted_count = 5

    def __init__(self, toy: bool):
        self.per_class = 12 if toy else 144

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        planted = sorted(int(c) for c in rng.choice(self.channels, self.planted_count,
                                                     replace=False))
        covs = synth.two_class_covariances(self.channels, planted=planted,
                                           separation=2.0, rng=rng)
        trials = synth.synthetic_trials(covs, self.per_class, 2000, 500.0, rng=rng)
        return trials, planted

    def measure(self, state, ctx: Context):
        trials, planted = state
        ops = ctx.ops
        cfg = config.TrainConfig(window_len=250, m=self.planted_count)
        n = len(trials.trials)
        times = Timings(ctx.clock)

        covs, labels = times.run("prepare", ops.stage, trainer.prepare_dataset, trials, cfg)
        reps = times.run("select", ops.stage, trainer.class_band_representatives,
                         covs, labels)
        result = times.run(
            "select", ops.stage, trainer.fit_selection, reps, m=cfg.m,
            max_iters=cfg.selection_max_iters, tol=cfg.selection_tol,
            scoring=cfg.channel_scoring,
        )
        _check(result.selected_channels == planted,
               f"selected {result.selected_channels}, planted {planted}")

        mismatched = []

        def compare(k, out):
            if not np.array_equal(out, covs[k : k + 1]):
                mismatched.append(k)

        def step(one: RawTrialSet) -> np.ndarray:
            return trainer.prepare_dataset(one, cfg)[0]

        _latency_loop(ctx, times, step, _single_trials(trials), compare)
        _check(not mismatched,
               f"single-trial covariances differ from the batch for trials {mismatched[:5]}")

        ctx.clock.mark()
        accuracy = len(set(result.selected_channels) & set(planted)) / len(planted)
        ref, wall = {}, {}
        for out, prep, select in zip((ref, wall), times.seconds("prepare"),
                                     times.seconds("select")):
            out["prepare_trials_per_s"] = n / float(prep[0])
            out["trials_per_s"] = n / float(prep[0] + select.sum())
            out["accuracy"] = accuracy
        latency_ms = _latency_metrics(times, ref, wall)
        return ref, wall, {"latency_ms": latency_ms, "select_s": n / wall["trials_per_s"],
                           "selected_channels": result.selected_channels,
                           "selection_iterations": result.iterations_run}


def make(name: str, toy: bool, out_dir: str):
    if name == TrainC5.name:
        return TrainC5(toy)
    if name == Online1Trial.name:
        return Online1Trial(toy, out_dir)
    if name == Select22Ch.name:
        return Select22Ch(toy)
    raise KeyError(name)


WORKLOADS = (TrainC5.name, Online1Trial.name, Select22Ch.name)
