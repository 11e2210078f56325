"""Filter design, the time-frequency bound, and trial segmentation."""

import numpy as np
import pytest
from scipy import signal

from spdbci import filterbank
from spdbci.eeg_io import RawTrialSet
from spdbci.errors import (
    ConfigError,
    DimensionMismatch,
    GaborViolation,
    InvalidBand,
    UnstableDesign,
    WindowTooLong,
)
from spdbci.filterbank import (
    DEFAULT_BANDS,
    BandSpec,
    check_gabor,
    design_bandpass,
    segment,
)


def _magnitude_db(sos, freq_hz, fs):
    """|H(e^{jw})| in dB by direct evaluation of every section
    (freqz-free oracle)."""
    z = np.exp(-1j * 2 * np.pi * np.asarray(freq_hz) / fs)
    h = np.ones_like(z)
    for section in sos:
        h = h * np.polyval(section[2::-1], z) / np.polyval(section[:2:-1], z)
    return 20 * np.log10(np.abs(h))


def _section_poles(sos):
    return np.concatenate([np.roots(section[3:]) for section in sos])


RATES = [250.0, 500.0, 1000.0, 2000.0]


class TestDesign:
    def test_passband_and_stopband_response(self):
        sos = design_bandpass((8.0, 12.0), 250.0)
        assert _magnitude_db(sos, 10.0, 250.0) >= -3.0
        assert _magnitude_db(sos, 4.0, 250.0) <= -40.0

    @pytest.mark.parametrize("fs", RATES)
    def test_default_bank_meets_its_response_at_every_rate(self, fs):
        # The -3 dB passband spans about 0.24-0.68 of every band.  The
        # stopband is equiripple: it touches -40 dB at its edges and its
        # ripple peaks, so round-off of 1e-6 dB is allowed there.
        for low, high in DEFAULT_BANDS:
            sos = design_bandpass((low, high), fs)
            passband = low + (high - low) * np.linspace(0.25, 0.65, 21)
            stopband = np.concatenate([np.linspace(0.01, low, 200),
                                       np.linspace(high, 0.999 * fs / 2, 2000)])
            assert np.min(_magnitude_db(sos, passband, fs)) >= -3.0
            assert np.max(_magnitude_db(sos, stopband, fs)) <= -40.0 + 1e-6

    def test_poles_inside_unit_circle(self):
        sos = design_bandpass((8.0, 12.0), 250.0)
        assert np.max(np.abs(_section_poles(sos))) < 1.0

    def test_narrowest_low_band_designs_at_2000_hz(self):
        # the (b, a) form of this design put a root at 1.0089
        sos = design_bandpass((4.0, 8.0), 2000.0)
        assert np.max(np.abs(_section_poles(sos))) == pytest.approx(0.99910, abs=1e-5)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(InvalidBand):
            design_bandpass((100.0, 130.0), 250.0)

    def test_inverted_band_rejected(self):
        with pytest.raises(InvalidBand):
            design_bandpass((12.0, 8.0), 250.0)

    def test_cached_design_equals_direct_design(self):
        direct = signal.cheby2(4, 40.0, [8.0, 12.0], btype="bandpass", fs=250.0,
                               output="sos")
        for _ in range(2):
            assert np.array_equal(design_bandpass((8.0, 12.0), 250.0), direct)

    def test_cached_design_is_read_only(self):
        sos = design_bandpass((8.0, 12.0), 250.0)
        with pytest.raises(ValueError):
            sos[0, 0] = 0.0

    def test_sample_rate_changes_design(self):
        sos250 = design_bandpass((8.0, 12.0), 250.0)
        sos500 = design_bandpass((8.0, 12.0), 500.0)
        assert not np.array_equal(sos250, sos500)
        direct = signal.cheby2(4, 40.0, [8.0, 12.0], btype="bandpass", fs=500.0,
                               output="sos")
        assert np.array_equal(sos500, direct)

    def test_invalid_band_rejected_on_every_call(self):
        for _ in range(3):
            with pytest.raises(InvalidBand):
                design_bandpass((100.0, 130.0), 250.0)

    def test_unstable_design_rejected_and_not_cached(self):
        # at 2000 Hz a 1-2 microhertz band puts a section pole at 1.0000000146
        for _ in range(2):
            with pytest.raises(UnstableDesign,
                               match=r"band \(1e-06, 2e-06\) at 2000\.0 Hz"):
                design_bandpass((1e-6, 2e-6), 2000.0)
            assert (1e-6, 2e-6, 2000.0) not in filterbank._DESIGNS


def _sosfilt_windows(data, spec, fs, window_len):
    """Reference for ``segment``: ``sosfilt`` of each band over the whole
    trial, cut into (S, F, M, L) windows."""
    n_windows = data.shape[1] // window_len
    used = n_windows * window_len
    out = np.empty((n_windows, len(spec.bands), data.shape[0], window_len))
    for f, band in enumerate(spec.bands):
        sos = signal.cheby2(4, 40.0, list(band), btype="bandpass", fs=fs, output="sos")
        filtered = signal.sosfilt(sos, data, axis=-1)[:, :used]
        out[:, f] = filtered.reshape(data.shape[0], n_windows, window_len).swapaxes(0, 1)
    return out


class TestKernel:
    """``segment``'s block kernel against ``sosfilt``."""

    @pytest.mark.parametrize("fs", RATES)
    @pytest.mark.parametrize("window_len, samples",
                             [(125, 1000), (127, 800), (250, 1130), (64, 640), (40, 410),
                              (32, 330), (33, 340), (63, 640)])
    def test_matches_sosfilt(self, rng, fs, window_len, samples):
        # windows of whole blocks (64, and 32: one block) and not (125,
        # 127, 250, 40, and 33 and 63: a last block of 1 and of 31
        # samples), and trials with trailing samples past the last window.
        # Windows too short for the default 4 Hz bands at this rate run
        # on 8 Hz-wide ones.
        spec = BandSpec()
        if not check_gabor(window_len, fs, spec.narrowest_width_hz):
            spec = BandSpec(bands=((4.0, 12.0), (12.0, 20.0), (20.0, 28.0), (28.0, 36.0)))
        data = rng.standard_normal((3, samples))
        out = segment(_trial_set(data, fs), spec, window_len)[0][1]
        expected = _sosfilt_windows(data, spec, fs, window_len)
        assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_window_shorter_than_a_block(self, rng):
        data = rng.standard_normal((2, 100))
        out = segment(_trial_set(data), BandSpec(), 20)[0][1]
        expected = _sosfilt_windows(data, BandSpec(), 250.0, 20)
        assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    @staticmethod
    def _products(monkeypatch, trials, window_len):
        """The operand shapes of every ``np.matmul`` call of one
        ``segment`` call, with unit axes dropped."""
        products = []
        real = np.matmul

        def counting(a, b, **kwargs):
            products.append(tuple(tuple(d for d in np.shape(op) if d != 1)
                                  for op in (a, b, kwargs["out"])))
            return real(a, b, **kwargs)

        monkeypatch.setattr(filterbank.np, "matmul", counting)
        segment(trials, BandSpec(), window_len)
        monkeypatch.undo()
        return products

    def test_prime_window_is_blocks_not_a_per_sample_scan(self, monkeypatch):
        data = np.random.default_rng(0).standard_normal((2, 127 * 4))
        products = self._products(monkeypatch, _trial_set(data), 127)
        # 127 samples are 4 blocks a window, so per block of trials: one
        # product of states from rest, 4 * 4 - 1 state steps and one
        # product a band, however many trials the block holds
        assert len(products) == 1 + (4 * 4 - 1) + len(DEFAULT_BANDS) == 25

    def test_one_trial_block_makes_the_lone_trial_products(self, monkeypatch):
        # the products a per-trial kernel made for this trial: 4 windows
        # of 4 blocks, the last of 31 samples, on 2 channels, 9 bands of
        # 8 states each, 32 + 8 columns a block row; each band writes the
        # 2 * 4 block rows of every window in one product
        data = np.random.default_rng(0).standard_normal((2, 127 * 4))
        trials = RawTrialSet(250.0, 2, 127 * 4, [(0, data)], n_classes=2)
        expected = ([((32, 32), (9, 32, 8), (9, 32, 8))]
                    + [((9, 2, 16), (9, 16, 8), (9, 2, 8))] * 15
                    + [((4, 8, 40), (40, 32), (4, 8, 32))] * 9)
        assert self._products(monkeypatch, trials, 127) == expected

    def test_white_noise_at_2000_hz_stays_with_sosfilt(self):
        # lfilter on the (b, a) form of 12-16 Hz peaks at 3.5e6 here
        noise = np.random.default_rng(5).standard_normal((1, 200_000))
        spec = BandSpec(bands=((12.0, 16.0),))
        out = segment(_trial_set(noise, 2000.0), spec, 200_000)[0][1]
        expected = _sosfilt_windows(noise, spec, 2000.0, 200_000)
        assert np.max(np.abs(expected)) < 1.0
        assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_block_of_mixed_layouts_equals_its_single_trials(self, rng):
        # a C-contiguous trial, a Fortran-ordered one and a strided view
        # of a wider array filter in one kernel call
        wide = rng.standard_normal((8, 1000))
        items = [(0, rng.standard_normal((8, 500))),
                 (1, np.asfortranarray(rng.standard_normal((8, 500)))),
                 (1, wide[:, ::2])]
        assert not items[2][1].flags.c_contiguous and not items[2][1].flags.f_contiguous
        trials = RawTrialSet(250.0, 8, 500, items, n_classes=2)
        block = segment(trials, BandSpec(), 125)
        for k, item in enumerate(items):
            one = segment(RawTrialSet(250.0, 8, 500, [item], n_classes=2), BandSpec(), 125)
            assert np.array_equal(block[k][1], one[0][1])

    def test_multi_trial_block_at_2000_hz_stays_with_sosfilt(self, rng):
        spec = BandSpec(bands=((4.0, 8.0), (12.0, 16.0)))
        data = [rng.standard_normal((3, 4100)) for _ in range(3)]
        trials = RawTrialSet(2000.0, 3, 4100, [(k % 2, d) for k, d in enumerate(data)],
                             n_classes=2)
        block = segment(trials, spec, 1000)
        for k, d in enumerate(data):
            expected = _sosfilt_windows(d, spec, 2000.0, 1000)
            assert np.max(np.abs(block[k][1] - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_plan_is_cached_and_read_only(self):
        plan = filterbank.bank_plan(BandSpec(), 250.0, 125)
        assert filterbank.bank_plan(BandSpec(), 250.0, 125) is plan
        # 125 = 3 * 32 + 29: a window of 189 shares the plan
        assert filterbank.bank_plan(BandSpec(), 250.0, 189) is plan
        assert plan.last == 29
        assert plan.response.shape == (9, filterbank.BLOCK + 8, filterbank.BLOCK)
        assert not hasattr(plan, "last_response")
        for array in (plan.response, plan.state_in, plan.transition, plan.last_transition):
            with pytest.raises(ValueError):
                array[0, 0, 0] = 0.0

    def test_plan_designs_every_band_on_every_call(self, monkeypatch):
        filterbank.bank_plan(BandSpec(), 250.0, 125)
        calls = []
        real = filterbank.design_bandpass

        def counting(band, fs):
            calls.append(band)
            return real(band, fs)

        monkeypatch.setattr(filterbank, "design_bandpass", counting)
        filterbank.bank_plan(BandSpec(), 250.0, 125)
        assert calls == list(DEFAULT_BANDS)


class TestGabor:
    def test_long_window_ok(self):
        assert check_gabor(250, 250.0, 4.0) is True

    def test_short_window_fails(self):
        assert check_gabor(4, 250.0, 4.0) is False

    def test_boundary(self):
        assert check_gabor(5, 250.0, 4.0) is True

    @pytest.mark.parametrize("args", [(0, 250.0, 4.0), (250, 0.0, 4.0), (250, 250.0, 0.0)],
                             ids=["window", "rate", "width"])
    def test_zero_argument_rejected(self, args):
        with pytest.raises(ConfigError, match="positive"):
            check_gabor(*args)


class TestBandSpec:
    def test_default_layout(self):
        assert len(DEFAULT_BANDS) == 9
        assert DEFAULT_BANDS[0] == (4.0, 8.0)
        assert DEFAULT_BANDS[-1] == (36.0, 40.0)

    def test_no_band_rejected(self):
        with pytest.raises(InvalidBand, match="at least one band"):
            BandSpec(())

    def test_overlapping_bands_rejected(self):
        with pytest.raises(InvalidBand):
            BandSpec(bands=((4.0, 10.0), (8.0, 12.0)))

    def test_narrowest_width(self):
        spec = BandSpec(bands=((4.0, 8.0), (8.0, 20.0)))
        assert spec.narrowest_width_hz == 4.0


def _trial_set(data, fs=250.0):
    return RawTrialSet(
        sample_rate_hz=fs,
        channels=data.shape[0],
        samples_per_trial=data.shape[1],
        trials=[(0, data), (1, data)],
        n_classes=2,
    )


class TestSegment:
    def test_window_count(self, rng):
        trials = _trial_set(rng.standard_normal((3, 1000)))
        out = segment(trials, BandSpec(), window_len=250)
        assert all(t.shape == (4, 9, 3, 250) for _, t in out)
        # each window is the start of a row of 8 whole blocks
        assert all(t.strides[-2:] == (8 * 256, 8) for _, t in out)

    def test_band_selectivity_on_sinusoid(self):
        fs = 250.0
        t = np.arange(2000) / fs
        sine = np.sin(2 * np.pi * 10.0 * t)[None, :].repeat(2, axis=0)
        out = segment(_trial_set(sine), BandSpec(), window_len=500)
        tensor = out[0][1]
        energies = [float(np.sum(tensor[1, f] ** 2)) for f in range(9)]
        # 10 Hz sits in band index 1 (8-12 Hz); 28-32 Hz is index 6
        assert energies[1] >= 100.0 * energies[6]
        assert int(np.argmax(energies)) == 1

    def test_window_too_long(self, rng):
        trials = _trial_set(rng.standard_normal((2, 1000)))
        with pytest.raises(WindowTooLong):
            segment(trials, BandSpec(), window_len=1001)

    def test_gabor_violation(self, rng):
        trials = _trial_set(rng.standard_normal((2, 1000)))
        with pytest.raises(GaborViolation):
            segment(trials, BandSpec(), window_len=4)

    def test_linearity(self, rng):
        data = rng.standard_normal((2, 500))
        spec = BandSpec(bands=((8.0, 12.0),))
        one = segment(_trial_set(data), spec, 250)[0][1]
        scaled = segment(_trial_set(3.0 * data), spec, 250)[0][1]
        # the kernel is matrix products, linear to round-off
        assert np.allclose(scaled, 3.0 * one, rtol=1e-12, atol=1e-12 * np.max(np.abs(one)))

    def test_determinism(self, rng):
        data = rng.standard_normal((2, 500))
        a = segment(_trial_set(data), BandSpec(), 125)[0][1]
        b = segment(_trial_set(data), BandSpec(), 125)[0][1]
        assert a.tobytes() == b.tobytes()

    def test_labels_preserved_in_order(self, rng):
        trials = _trial_set(rng.standard_normal((2, 500)))
        labels = [label for label, _ in segment(trials, BandSpec(), 250)]
        assert labels == [0, 1]

    def test_tensors_are_views_of_one_block_array(self, rng):
        trials = _trial_set(rng.standard_normal((3, 1000)))
        out = segment(trials, BandSpec(), window_len=250)
        data = out[0][1].base
        assert data.shape == (2, 4, 9, 3, filterbank.row_len(250)) == (2, 4, 9, 3, 256)
        assert data.flags.c_contiguous
        for k, (_, tensor) in enumerate(out):
            assert tensor.base is data
            assert np.array_equal(tensor, data[k, ..., :250])

    def test_block_equals_its_slice_of_the_set(self, rng):
        data = rng.standard_normal((3, 1000))
        trials = RawTrialSet(250.0, 3, 1000, [(0, data), (1, data), (1, 2.0 * data)],
                             n_classes=2)
        whole = segment(trials, BandSpec(), 250)
        block = segment(trials, BandSpec(), 250, slice(1, 3))
        assert [label for label, _ in block] == [1, 1]
        assert all(np.array_equal(b, w) for (_, b), (_, w) in zip(block, whole[1:3]))

    def test_out_buffer_takes_the_windows_in_its_first_rows(self, rng):
        """The M-row view of a buffer with spare rows gets the bits of a
        call without ``out``, and the spare rows are not written."""
        items = [(k % 2, rng.standard_normal((3, 1000))) for k in range(3)]
        trials = RawTrialSet(250.0, 3, 1000, items, n_classes=2)
        buffer = np.full((2, 4, 9, 5, 256), np.nan)
        block = segment(trials, BandSpec(), 250, slice(1, 3), buffer[..., :3, :])
        assert [label for label, _ in block] == [1, 0]
        whole = segment(trials, BandSpec(), 250)
        for k, (_, tensor) in enumerate(block):
            assert np.shares_memory(tensor, buffer)
            assert np.array_equal(buffer[k, ..., :3, :250], whole[k + 1][1])
            # the columns past the window hold the filter's response
            assert np.all(np.isfinite(buffer[k, ..., :3, 250:]))
        assert np.all(np.isnan(buffer[..., 3:, :]))

    def test_out_of_any_axis_order_takes_the_same_bits(self, rng):
        trials = _trial_set(rng.standard_normal((3, 1000)))
        # bands outermost in memory; each (M, Q * b) plane still C-contiguous
        out = np.empty((9, 2, 4, 3, 256)).transpose(1, 2, 0, 3, 4)
        block = segment(trials, BandSpec(), 250, out=out)
        for (_, tensor), (_, expected) in zip(block, segment(trials, BandSpec(), 250)):
            assert np.shares_memory(tensor, out)
            assert np.array_equal(tensor, expected)

    def test_read_only_out_rejected(self, rng):
        trials = _trial_set(rng.standard_normal((4, 1000)))
        out = np.zeros((2, 4, 9, 4, 256))
        out.setflags(write=False)
        with pytest.raises(DimensionMismatch, match="out must be"):
            segment(trials, BandSpec(), 250, out=out)

    @pytest.mark.parametrize("shape, dtype", [
        ((2, 4, 9, 2, 256), np.float64), ((2, 4, 9, 5, 256), np.float64),
        ((3, 4, 9, 4, 256), np.float64), ((2, 4, 4, 9, 256), np.float64),
        ((2, 4, 9, 4, 257), np.float64), ((2, 4, 9, 4, 250), np.float64),
        ((2, 4, 9, 4, 255), np.float64), ((2, 4, 9, 4), np.float64),
        ((2, 4, 9, 4, 256), np.float32),
    ], ids=["fewer-rows", "more-rows", "more-trials", "swapped-axes", "longer-rows",
            "window-rows", "short-rows", "rank-4", "float32"])
    def test_out_of_another_shape_or_dtype_rejected(self, rng, shape, dtype):
        # 250-sample windows need rows of Q * b = 8 * 32 = 256 samples:
        # rows of the window's own 250 samples, or of 255, are too short
        trials = _trial_set(rng.standard_normal((4, 1000)))
        with pytest.raises(DimensionMismatch, match="out must be"):
            segment(trials, BandSpec(), 250, out=np.zeros(shape, dtype))

    @pytest.mark.parametrize("out", [
        np.zeros((2, 4, 9, 4, 512))[..., ::2],
        np.zeros((2, 4, 9, 8, 256))[..., ::2, :],
        np.zeros((2, 4, 9, 256, 4)).swapaxes(-1, -2),
    ], ids=["strided-rows", "strided-planes", "transposed-planes"])
    def test_out_whose_planes_are_not_contiguous_rejected(self, rng, out):
        # each window's (M, Q * b) rows must be one (M * Q, b) matrix of
        # block rows, which the kernel writes in one product
        trials = _trial_set(rng.standard_normal((4, 1000)))
        assert out.shape == (2, 4, 9, 4, 256)
        with pytest.raises(DimensionMismatch, match="out must be"):
            segment(trials, BandSpec(), 250, out=out)

    def test_empty_set_gives_empty_list(self, rng):
        trials = _trial_set(rng.standard_normal((2, 500)))
        assert segment(trials, BandSpec(), 250, slice(5, 9)) == []
        empty = RawTrialSet(250.0, 2, 500, [], n_classes=2)
        assert segment(empty, BandSpec(), 250) == []
