"""Filter design, the time-frequency bound, and trial segmentation."""

import numpy as np
import pytest
from scipy import signal

from spdbci import filterbank
from spdbci.eeg_io import RawTrialSet
from spdbci.errors import GaborViolation, InvalidBand, UnstableDesign, WindowTooLong
from spdbci.filterbank import (
    DEFAULT_BANDS,
    BandSpec,
    check_gabor,
    design_bandpass,
    segment,
)


def _magnitude_db(b, a, freq_hz, fs):
    """|H(e^{jw})| in dB by direct polynomial evaluation (freqz-free oracle)."""
    z = np.exp(-1j * 2 * np.pi * freq_hz / fs)
    num = np.polyval(b[::-1], z)
    den = np.polyval(a[::-1], z)
    return 20 * np.log10(abs(num / den))


class TestDesign:
    def test_passband_and_stopband_response(self):
        b, a = design_bandpass((8.0, 12.0), 250.0)
        assert _magnitude_db(b, a, 10.0, 250.0) >= -3.0
        assert _magnitude_db(b, a, 4.0, 250.0) <= -40.0

    def test_poles_inside_unit_circle(self):
        _, a = design_bandpass((8.0, 12.0), 250.0)
        assert np.max(np.abs(np.roots(a))) < 1.0

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(InvalidBand):
            design_bandpass((100.0, 130.0), 250.0)

    def test_inverted_band_rejected(self):
        with pytest.raises(InvalidBand):
            design_bandpass((12.0, 8.0), 250.0)

    def test_cached_design_equals_direct_design(self):
        direct = signal.cheby2(4, 40.0, [8.0, 12.0], btype="bandpass", fs=250.0)
        for _ in range(2):
            b, a = design_bandpass((8.0, 12.0), 250.0)
            assert np.array_equal(b, direct[0]) and np.array_equal(a, direct[1])

    def test_cached_design_is_read_only(self):
        b, a = design_bandpass((8.0, 12.0), 250.0)
        for coeffs in (b, a):
            with pytest.raises(ValueError):
                coeffs[0] = 0.0

    def test_sample_rate_changes_design(self):
        b250, a250 = design_bandpass((8.0, 12.0), 250.0)
        b500, a500 = design_bandpass((8.0, 12.0), 500.0)
        assert not np.array_equal(a250, a500)
        direct = signal.cheby2(4, 40.0, [8.0, 12.0], btype="bandpass", fs=500.0)
        assert np.array_equal(b500, direct[0]) and np.array_equal(a500, direct[1])

    def test_invalid_band_rejected_on_every_call(self):
        for _ in range(3):
            with pytest.raises(InvalidBand):
                design_bandpass((100.0, 130.0), 250.0)

    def test_unstable_design_rejected_and_not_cached(self):
        # at 2000 Hz the 4-8 Hz design has a pole of magnitude 1.0089
        for _ in range(2):
            with pytest.raises(UnstableDesign, match=r"band \(4\.0, 8\.0\) at 2000\.0 Hz"):
                design_bandpass((4.0, 8.0), 2000.0)
            assert (4.0, 8.0, 2000.0) not in filterbank._DESIGNS


class TestGabor:
    def test_long_window_ok(self):
        assert check_gabor(250, 250.0, 4.0) is True

    def test_short_window_fails(self):
        assert check_gabor(4, 250.0, 4.0) is False

    def test_boundary(self):
        assert check_gabor(5, 250.0, 4.0) is True


class TestBandSpec:
    def test_default_layout(self):
        assert len(DEFAULT_BANDS) == 9
        assert DEFAULT_BANDS[0] == (4.0, 8.0)
        assert DEFAULT_BANDS[-1] == (36.0, 40.0)

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
        assert all(t.flags.c_contiguous for _, t in out)

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
        # narrowband IIR recursions amplify round-off (poles near the unit
        # circle), so exact-arithmetic linearity holds only to ~1e-7 here
        assert np.allclose(scaled, 3.0 * one, rtol=1e-6, atol=1e-6 * np.max(np.abs(one)))

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
        assert out.data.shape == (2, 4, 9, 3, 250)
        assert out.data.flags.c_contiguous
        for k, (_, tensor) in enumerate(out):
            assert np.shares_memory(tensor, out.data)
            assert np.array_equal(tensor, out.data[k])

    def test_block_equals_its_slice_of_the_set(self, rng):
        data = rng.standard_normal((3, 1000))
        trials = RawTrialSet(250.0, 3, 1000, [(0, data), (1, data), (1, 2.0 * data)])
        whole = segment(trials, BandSpec(), 250)
        block = segment(trials, BandSpec(), 250, slice(1, 3))
        assert [label for label, _ in block] == [1, 1]
        assert np.array_equal(block.data, whole.data[1:3])

    def test_empty_set_gives_empty_list(self, rng):
        trials = _trial_set(rng.standard_normal((2, 500)))
        assert segment(trials, BandSpec(), 250, slice(5, 9)) == []
        empty = RawTrialSet(250.0, 2, 500, [], n_classes=2)
        assert segment(empty, BandSpec(), 250) == []
