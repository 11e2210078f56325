"""Synthetic trial generators for desk-scale experiments.

Two-class Gaussian time series whose spatial covariance differs between
classes.  Class structure can be confined to a planted channel subset,
leaving the remaining channels identically distributed in both classes,
which makes the correct channel subset recoverable by exhaustive search.
"""

from __future__ import annotations

import numpy as np

from .config import SyntheticSpec, read_mapping
from .eeg_io import RawTrialSet
from .errors import ConfigError
from .spd import SPD_RTOL, airm_distance


def two_class_covariances(
    n_channels: int,
    planted: list[int] | None = None,
    separation: float = 2.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two SPD spatial covariances with AIRM distance >= ``separation``.

    Class differences live entirely on ``planted`` channels (all channels
    when None): planted variances are scaled by exp(+-a) and the planted
    block receives class-dependent correlations.  ``a`` is grown until
    the separation target is met; a target that is not finite and
    positive, or that the pair cannot reach while staying numerically
    SPD, raises :class:`ConfigError`.
    """
    rng = rng or np.random.default_rng(0)
    if not (np.isfinite(separation) and separation > 0):
        raise ConfigError(f"separation must be finite and > 0, got {separation}")
    if planted is None:
        planted = list(range(n_channels))
    planted = sorted(planted)
    p = len(planted)
    if p < 1:
        raise ConfigError("need at least one planted channel")

    # class-dependent rotations of the planted block, fixed by the rng
    q0, _ = np.linalg.qr(rng.standard_normal((p, p)))
    q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
    a = separation / (2.0 * np.sqrt(p))
    # The planted eigenvalues are exp(+-a), so the whitened pair that
    # airm_distance forms spans up to exp(4a); past 1/SPD_RTOL it is no
    # longer SPD to working precision and the target is out of reach.
    while 4.0 * a < -np.log(SPD_RTOL):
        d0 = np.exp(a * np.linspace(1.0, -1.0, p))
        d1 = np.exp(a * np.linspace(-1.0, 1.0, p))
        block0 = q0 @ np.diag(d0) @ q0.T
        block1 = q1 @ np.diag(d1) @ q1.T
        cov0 = np.eye(n_channels)
        cov1 = np.eye(n_channels)
        cov0[np.ix_(planted, planted)] = block0
        cov1[np.ix_(planted, planted)] = block1
        if airm_distance(cov0, cov1) >= separation:
            return cov0, cov1
        a *= 1.25
    raise ConfigError(
        f"separation {separation} is out of reach with {p} planted channels"
    )


def synthetic_trials(
    covariances: tuple[np.ndarray, np.ndarray],
    trials_per_class: int,
    samples_per_trial: int,
    sample_rate_hz: float,
    noise_scale: float = 0.1,
    rng: np.random.Generator | None = None,
) -> RawTrialSet:
    """Gaussian trials with class-specific spatial covariance plus
    additive white noise, classes interleaved.

    Every trial is a view of one (N, channels, samples) float32 array,
    EEGB's sample type, so the set is one allocation, freed whole, and
    equals its own EEGB round trip.  Each trial is computed in float64,
    ``chol @ z + noise_scale * z'``, and rounded to float32 once.  A
    sample that float32 cannot hold raises
    :class:`~spdbci.errors.NonFiniteValue` (see
    :class:`~spdbci.eeg_io.RawTrialSet`).  Trials allocated one by one
    leave holes in the heap when freed, and whether a later large array
    reuses them or takes fresh pages then varies from run to run.
    """
    rng = rng or np.random.default_rng(0)
    chols = [np.linalg.cholesky(c) for c in covariances]
    n_channels = covariances[0].shape[0]
    shape = (n_channels, samples_per_trial)
    labels = [label for _ in range(trials_per_class) for label in range(len(chols))]
    data = np.empty((len(labels),) + shape, dtype=np.float32)
    draw, trial64 = np.empty(shape), np.empty(shape)
    for trial, label in zip(data, labels):
        np.matmul(chols[label], rng.standard_normal(out=draw), out=trial64)
        trial64 += np.multiply(rng.standard_normal(out=draw), noise_scale, out=draw)
        # an overflow to +-inf is RawTrialSet's typed failure, not a warning
        with np.errstate(over="ignore"):
            trial[...] = trial64
    return RawTrialSet(
        sample_rate_hz=sample_rate_hz,
        channels=n_channels,
        samples_per_trial=samples_per_trial,
        trials=list(zip(labels, data)),
        n_classes=len(covariances),
    )


def generate_from_spec(items: dict[str, str]) -> RawTrialSet:
    """Build a synthetic trial set from a flat key=value spec: the keys
    and their checks are :class:`~spdbci.config.SyntheticSpec`'s, and a
    separation that is not finite, positive and reachable raises
    :class:`ConfigError` too."""
    spec = read_mapping(SyntheticSpec, items, "synthetic spec")
    rng = np.random.default_rng(spec.seed)
    covs = two_class_covariances(spec.channels, list(spec.planted) or None,
                                 spec.separation, rng)
    return synthetic_trials(covs, spec.trials_per_class, spec.samples_per_trial,
                            spec.sample_rate, spec.noise, rng)
