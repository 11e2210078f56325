"""Filter-bank decomposition and fixed-length windowing of raw trials.

Raw multi-channel trials are passed through a bank of causal Chebyshev
Type II bandpass filters and cut into non-overlapping windows, producing
a windows x bands x channels x samples tensor per trial.  Filter designs
are cached per (band, sample rate, order, attenuation), so a bank is
designed once per process and every later trial only filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from .errors import GaborViolation, InvalidBand, UnstableDesign, WindowTooLong

#: Default layout: nine 4 Hz-wide bands covering 4-40 Hz.
DEFAULT_BANDS: tuple[tuple[float, float], ...] = tuple(
    (4.0 + 4.0 * i, 8.0 + 4.0 * i) for i in range(9)
)

GABOR_BOUND = 1.0 / (4.0 * np.pi)


@dataclass(frozen=True)
class BandSpec:
    """Ordered bandpass layout plus filter design parameters."""

    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS
    filter_order: int = 4
    stopband_atten_db: float = 40.0

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
        if self.filter_order < 1:
            raise InvalidBand("filter_order must be positive")
        if self.stopband_atten_db <= 0:
            raise InvalidBand("stopband attenuation must be positive")

    @property
    def narrowest_width_hz(self) -> float:
        return min(high - low for low, high in self.bands)


@dataclass
class TrialTensor:
    """Bandpassed, windowed view of one trial: shape (S, F, M, L)."""

    data: np.ndarray
    window_len: int
    windows: int = field(init=False)
    bands: int = field(init=False)
    channels: int = field(init=False)

    def __post_init__(self):
        s, f, m, length = self.data.shape
        if length != self.window_len:
            raise WindowTooLong("tensor last axis must equal window_len")
        self.windows = s
        self.bands = f
        self.channels = m


#: Successful designs of :func:`design_bandpass`, by their arguments.
_DESIGNS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def design_bandpass(
    band: tuple[float, float],
    sample_rate: float,
    order: int = 4,
    atten_db: float = 40.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Design a causal Chebyshev Type II bandpass filter.

    Returns ``(b, a)`` transfer-function coefficients.  The band edges
    are the stopband corners; attenuation outside the band is at least
    ``atten_db``.  Raises :class:`InvalidBand` for edges outside
    ``(0, sample_rate / 2)`` and :class:`UnstableDesign` if any pole is
    not strictly inside the unit circle.

    Designs are cached by ``(low, high, sample_rate, order, atten_db)``
    and shared between callers, so ``b`` and ``a`` are read-only.  Only
    successful designs are cached; a rejected band is checked again on
    every call.
    """
    low, high = band
    key = (low, high, sample_rate, order, atten_db)
    cached = _DESIGNS.get(key)
    if cached is not None:
        return cached
    nyquist = sample_rate / 2.0
    if not (0.0 < low < high < nyquist):
        raise InvalidBand(
            f"band ({low}, {high}) must satisfy 0 < low < high < {nyquist}"
        )
    b, a = signal.cheby2(order, atten_db, [low, high], btype="bandpass", fs=sample_rate)
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
        raise ValueError("arguments must be positive")
    return (window_len_samples / sample_rate) * band_width_hz >= GABOR_BOUND


def segment(trials, spec: BandSpec, window_len: int) -> list[tuple[int, TrialTensor]]:
    """Filter and window every trial of a :class:`~spdbci.eeg_io.RawTrialSet`.

    Each trial is bandpass-filtered per band (causal, forward-only), then
    split into ``S = floor(samples / window_len)`` non-overlapping windows
    covering a prefix of the trial; trailing samples are dropped.  Each
    band's windows are copied once, by a reshape and a transpose, into
    the trial's C-contiguous (S, F, M, L) array, so every window is
    contiguous too.  Returns ``[(label, TrialTensor), ...]`` in trial
    order.
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
    coeffs = [
        design_bandpass(band, fs, spec.filter_order, spec.stopband_atten_db)
        for band in spec.bands
    ]
    n_windows = trials.samples_per_trial // window_len
    used = n_windows * window_len
    out = []
    for label, data in trials.trials:
        m = data.shape[0]
        tensor = np.empty((n_windows, len(spec.bands), m, window_len))
        for f, (b, a) in enumerate(coeffs):
            filtered = signal.lfilter(b, a, data, axis=1)
            # (M, S*L) -> (M, S, L) -> (S, M, L), copied once into place.
            windows = filtered[:, :used].reshape(m, n_windows, window_len)
            tensor[:, f] = windows.swapaxes(0, 1)
        out.append((label, TrialTensor(tensor, window_len)))
    return out
