"""Filter-bank decomposition and fixed-length windowing of raw trials.

Raw multi-channel trials are passed through a bank of causal Chebyshev
Type II bandpass filters and cut into non-overlapping windows, producing
a windows x bands x channels x samples tensor per trial.  A block of
trials is filtered together, one ``lfilter`` call per band over all of
its trials, into one trials x windows x bands x channels x samples
array.  The design (order 4, 40 dB stopband attenuation) is fixed;
designs are cached per (band, sample rate), so a bank is designed once
per process and every later block only filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import ConfigError, GaborViolation, InvalidBand, UnstableDesign, WindowTooLong

#: Default layout: nine 4 Hz-wide bands covering 4-40 Hz.
DEFAULT_BANDS: tuple[tuple[float, float], ...] = tuple(
    (4.0 + 4.0 * i, 8.0 + 4.0 * i) for i in range(9)
)

GABOR_BOUND = 1.0 / (4.0 * np.pi)

#: Chebyshev Type II design of every band.
FILTER_ORDER = 4
STOPBAND_ATTEN_DB = 40.0


@dataclass(frozen=True)
class BandSpec:
    """Ordered bandpass layout."""

    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS

    def __post_init__(self):
        if len(self.bands) < 1:
            raise InvalidBand("at least one band is required")
        prev_high = 0.0
        for low, high in self.bands:
            if not (0.0 < low < high):
                raise InvalidBand(f"bad band ({low}, {high})")
            if low < prev_high:
                raise InvalidBand("bands must be disjoint or touching, increasing")
            prev_high = high

    @property
    def narrowest_width_hz(self) -> float:
        return min(high - low for low, high in self.bands)


@dataclass
class TrialTensor:
    """Bandpassed, windowed view of one trial: shape (S, F, M, L)."""

    data: np.ndarray


#: Successful designs of :func:`design_bandpass`, by their arguments.
_DESIGNS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def design_bandpass(
    band: tuple[float, float], sample_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Design a causal Chebyshev Type II bandpass filter of order
    :data:`FILTER_ORDER`.

    Returns ``(b, a)`` transfer-function coefficients.  The band edges
    are the stopband corners; attenuation outside the band is at least
    :data:`STOPBAND_ATTEN_DB`.  Raises :class:`InvalidBand` for edges
    outside ``(0, sample_rate / 2)`` and :class:`UnstableDesign` if any
    pole is not strictly inside the unit circle.

    Designs are cached by ``(low, high, sample_rate)`` and shared
    between callers, so ``b`` and ``a`` are read-only.  Only successful
    designs are cached; a rejected band is checked again on every call.
    """
    low, high = band
    key = (low, high, sample_rate)
    cached = _DESIGNS.get(key)
    if cached is not None:
        return cached
    nyquist = sample_rate / 2.0
    if not (0.0 < low < high < nyquist):
        raise InvalidBand(
            f"band ({low}, {high}) must satisfy 0 < low < high < {nyquist}"
        )
    b, a = signal.cheby2(FILTER_ORDER, STOPBAND_ATTEN_DB, [low, high],
                         btype="bandpass", fs=sample_rate)
    poles = np.roots(a)
    if poles.size and np.max(np.abs(poles)) >= 1.0:
        raise UnstableDesign(f"pole magnitude {np.max(np.abs(poles)):.6f} >= 1")
    b.setflags(write=False)
    a.setflags(write=False)
    _DESIGNS[key] = (b, a)
    return b, a


def check_gabor(window_len_samples: int, sample_rate: float, band_width_hz: float) -> bool:
    """True iff the window satisfies the time-frequency uncertainty bound
    ``(L / fs) * bandwidth >= 1 / (4 pi)``."""
    if window_len_samples <= 0 or sample_rate <= 0 or band_width_hz <= 0:
        raise ConfigError("arguments must be positive")
    return (window_len_samples / sample_rate) * band_width_hz >= GABOR_BOUND


class Segments(list):
    """``[(label, TrialTensor), ...]`` in trial order, where every tensor
    is a view of ``data``: one C-contiguous (N, S, F, M, L) array."""

    def __init__(self, labels, data: np.ndarray):
        super().__init__((label, TrialTensor(tensor)) for label, tensor in zip(labels, data))
        self.data = data


def segment(trials, spec: BandSpec, window_len: int, block: slice = slice(None)) -> Segments:
    """Filter and window the trials ``trials.trials[block]`` of a
    :class:`~spdbci.eeg_io.RawTrialSet` (all of them by default).

    The trials are stacked into one (N, M, T) array, and each band
    filters all of them in one causal, forward-only ``lfilter`` call
    along the sample axis; rows are independent, so a trial's output
    does not depend on the others.  Each trial is split into
    ``S = floor(T / window_len)`` non-overlapping windows covering a
    prefix of the trial; trailing samples are dropped.  Each band's
    windows are copied once, by a reshape and a transpose, into one
    C-contiguous (N, S, F, M, L) array, so every window is contiguous
    too.  Returns the :class:`Segments` of the block: ``[(label,
    TrialTensor), ...]`` in trial order, each tensor a view of that
    array, which is the list's ``data``.
    """
    fs = trials.sample_rate_hz
    if not check_gabor(window_len, fs, spec.narrowest_width_hz):
        raise GaborViolation(
            f"window of {window_len} samples at {fs} Hz violates the "
            f"uncertainty bound for a {spec.narrowest_width_hz} Hz band"
        )
    if window_len > trials.samples_per_trial:
        raise WindowTooLong(
            f"window_len {window_len} exceeds trial length {trials.samples_per_trial}"
        )
    coeffs = [design_bandpass(band, fs) for band in spec.bands]
    items = trials.trials[block]
    n, m = len(items), trials.channels
    n_windows = trials.samples_per_trial // window_len
    used = n_windows * window_len
    x = np.asarray([data for _, data in items]).reshape(n, m, trials.samples_per_trial)
    out = np.empty((n, n_windows, len(coeffs), m, window_len))
    for f, (b, a) in enumerate(coeffs):
        filtered = signal.lfilter(b, a, x, axis=-1)
        # (N, M, S*L) -> (N, M, S, L) -> (N, S, M, L), copied once into place.
        out[:, :, f] = filtered[..., :used].reshape(n, m, n_windows, window_len).swapaxes(1, 2)
    return Segments([label for label, _ in items], out)
