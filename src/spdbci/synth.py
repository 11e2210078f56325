"""Synthetic trial generators for desk-scale experiments.

Two-class Gaussian time series whose spatial covariance differs between
classes.  Class structure can be confined to a planted channel subset,
leaving the remaining channels identically distributed in both classes,
which makes the correct channel subset recoverable by exhaustive search.
"""

from __future__ import annotations

import numpy as np

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

    Every trial is a view of one (N, channels, samples) array, so the set
    is one allocation, freed whole.  Trials allocated one by one leave
    holes in the heap when freed, and whether a later large array reuses
    them or takes fresh pages then varies from run to run.
    """
    rng = rng or np.random.default_rng(0)
    chols = [np.linalg.cholesky(c) for c in covariances]
    n_channels = covariances[0].shape[0]
    shape = (n_channels, samples_per_trial)
    labels = [label for _ in range(trials_per_class) for label in range(len(chols))]
    data = np.empty((len(labels),) + shape)
    for trial, label in zip(data, labels):
        np.matmul(chols[label], rng.standard_normal(shape), out=trial)
        trial += noise_scale * rng.standard_normal(shape)
    return RawTrialSet(
        sample_rate_hz=sample_rate_hz,
        channels=n_channels,
        samples_per_trial=samples_per_trial,
        trials=list(zip(labels, data)),
    )


#: The keys :func:`generate_from_spec` reads.
SPEC_KEYS = ("seed", "channels", "samples_per_trial", "sample_rate", "trials_per_class",
             "separation", "noise", "planted")


def _spec_value(items: dict[str, str], key: str, kind, default: str | None = None):
    """``kind(items[key])``, or ``kind(default)`` when the key is absent;
    a missing required key or an unparsable value raises ConfigError."""
    value = items.get(key, default)
    if value is None:
        raise ConfigError(f"synthetic spec lacks the required key {key!r}")
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"synthetic spec key {key!r}: cannot parse {value!r}") from exc


def _positive_spec_value(items: dict[str, str], key: str) -> int:
    value = _spec_value(items, key, int)
    if value < 1:
        raise ConfigError(f"synthetic spec key {key!r} must be >= 1, got {value}")
    return value


def generate_from_spec(items: dict[str, str]) -> RawTrialSet:
    """Build a synthetic trial set from a flat key=value spec.

    Keys: seed, channels, samples_per_trial, sample_rate, trials_per_class,
    separation, noise, planted (comma-separated indices, optional).
    channels, samples_per_trial and trials_per_class are required;
    channels and samples_per_trial must be >= 1, seed >= 0, separation
    finite, positive and reachable, and the planted indices distinct
    channels, else :class:`ConfigError` is raised, as it is for any other
    key.
    """
    unknown = sorted(items.keys() - SPEC_KEYS)
    if unknown:
        raise ConfigError(f"synthetic spec has unknown keys {unknown}")
    seed = _spec_value(items, "seed", int, "0")
    if seed < 0:
        raise ConfigError(f"synthetic spec key 'seed' must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n_channels = _positive_spec_value(items, "channels")
    planted = None
    if items.get("planted", "").strip():
        planted = _spec_value(items, "planted",
                              lambda text: [int(tok) for tok in text.split(",")])
        if len(set(planted)) != len(planted) or not all(
            0 <= i < n_channels for i in planted
        ):
            raise ConfigError(
                f"synthetic spec key 'planted': indices {planted} must be "
                f"distinct and lie in 0..{n_channels - 1}"
            )
    covs = two_class_covariances(
        n_channels=n_channels,
        planted=planted,
        separation=_spec_value(items, "separation", float, "2.0"),
        rng=rng,
    )
    return synthetic_trials(
        covs,
        trials_per_class=_spec_value(items, "trials_per_class", int),
        samples_per_trial=_positive_spec_value(items, "samples_per_trial"),
        sample_rate_hz=_spec_value(items, "sample_rate", float, "250"),
        noise_scale=_spec_value(items, "noise", float, "0.1"),
        rng=rng,
    )
