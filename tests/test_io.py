"""EEGB trial format and model bundle persistence."""

import json
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from spdbci.eeg_io import (
    ModelBundle,
    RawTrialSet,
    load_model,
    load_trials,
    save_model,
    save_trials,
)
from spdbci.errors import (
    ChecksumError,
    DimensionMismatch,
    MalformedHeader,
    NonFiniteValue,
    VersionMismatch,
)


def _sample_set(rng, channels=4, samples=256, n_trials=2):
    trials = [
        (i % 2, rng.standard_normal((channels, samples)).astype(np.float32).astype(np.float64))
        for i in range(n_trials)
    ]
    return RawTrialSet(250.0, channels, samples, trials, n_classes=2)


class TestEegb:
    def test_header_echo(self, rng, tmp_path):
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng), path)
        loaded = load_trials(path)
        assert loaded.channels == 4
        assert loaded.samples_per_trial == 256
        assert len(loaded.trials) == 2
        assert sorted(l for l, _ in loaded.trials) == [0, 1]

    def test_round_trip_bit_exact(self, rng, tmp_path):
        # source data already representable in f4, so one hop is exact;
        # a second hop must always be bit-identical
        p1, p2 = tmp_path / "a.eegb", tmp_path / "b.eegb"
        original = _sample_set(rng)
        save_trials(original, p1)
        loaded = load_trials(p1)
        for (la, da), (lb, db) in zip(original.trials, loaded.trials):
            # loaded as the float32 the file holds, each value unchanged
            assert la == lb and db.dtype == np.float32
            assert db.astype(np.float64).tobytes() == da.tobytes()
        save_trials(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng), path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(DimensionMismatch):
            load_trials(path)

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedHeader):
            load_trials(path)

    def test_wrong_version(self, rng, tmp_path):
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        # refresh the checksum so the version check is what trips
        import zlib
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_trials(path)

    def test_flipped_byte_checksum(self, rng, tmp_path):
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_trials(path)

    def test_nan_sample_rejected(self, tmp_path):
        import zlib
        data = np.zeros((2, 4), dtype="<f4")
        data[1, 2] = np.nan
        header = b"EEGB" + struct.pack("<IIIIIf", 1, 2, 4, 1, 2, 250.0)
        payload = header + struct.pack("<I", 0) + data.tobytes()
        blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        path = tmp_path / "nan.eegb"
        path.write_bytes(blob)
        with pytest.raises(NonFiniteValue):
            load_trials(path)

    @pytest.mark.parametrize("rate", [1e300, 1e-300], ids=["huge", "tiny"])
    def test_unstorable_sample_rate_rejected(self, rng, tmp_path, rate):
        """A rate whose float32 overflows or underflows to 0 is refused
        before a file is written."""
        path = tmp_path / "t.eegb"
        trials = _sample_set(rng)
        trials.sample_rate_hz = rate
        with pytest.raises(DimensionMismatch, match="sample rate"):
            save_trials(trials, path)
        assert not path.exists()


def _eegb_oracle(trials: RawTrialSet) -> bytes:
    """EEGB v1 bytes built field by field with ``struct``: the header, then
    per trial a ``<I`` label and ``<f4`` channel-major samples, then the
    CRC-32 of all of it."""
    payload = b"EEGB" + struct.pack(
        "<IIIIIf", 1, trials.channels, trials.samples_per_trial, len(trials.trials),
        trials.n_classes, trials.sample_rate_hz,
    )
    for label, data in trials.trials:
        payload += struct.pack("<I", label)
        payload += struct.pack(f"<{data.size}f", *data.ravel(order="C"))
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


class TestEegbLayout:
    @pytest.mark.parametrize("channels, samples, n_trials, n_classes", [
        (4, 256, 2, 2), (3, 7, 5, 3), (1, 1, 2, 2), (2, 5, 0, 2),
    ])
    def test_layout_matches_the_struct_oracle(self, rng, tmp_path, channels, samples,
                                          n_trials, n_classes):
        # float64 samples that float32 must round, in trials not laid out
        # channel-major in memory
        trials = [(k % n_classes, rng.standard_normal((samples, channels)).T)
                  for k in range(n_trials)]
        trial_set = RawTrialSet(1000.0 / 3, channels, samples, trials, n_classes)
        path = tmp_path / "t.eegb"
        save_trials(trial_set, path)
        assert path.read_bytes() == _eegb_oracle(trial_set)
        loaded = load_trials(path)
        assert [label for label, _ in loaded.trials] == [label for label, _ in trials]
        for (_, got), (_, data) in zip(loaded.trials, trials):
            assert got.tobytes() == data.astype(np.float32).tobytes()

    def test_loaded_trials_are_views_of_one_float32_array(self, rng, tmp_path):
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng, channels=3, samples=16, n_trials=5), path)
        loaded = load_trials(path)
        block = loaded.trials[0][1].base
        assert block.dtype == np.float32 and block.shape == (5, 3, 16)
        assert block.flags.c_contiguous
        for k, (label, data) in enumerate(loaded.trials):
            assert type(label) is int and label == k % 2
            assert data.base is block and np.shares_memory(data, block[k])

    def test_load_makes_no_float64_copy(self, rng, tmp_path):
        # numpy reports its allocations to tracemalloc.  The file's bytes
        # and the float32 samples copied out of them come to about twice
        # the file; a float64 copy of the samples alone is twice the file
        path = tmp_path / "t.eegb"
        save_trials(_sample_set(rng, channels=22, samples=2000, n_trials=24), path)
        file_bytes = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_trials(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.trials) == 24
        assert peak < 2.5 * file_bytes


class TestRawTrialSet:
    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            RawTrialSet(250.0, 3, 10, [(0, rng.standard_normal((2, 10)))], 2)

    def test_label_out_of_range(self, rng):
        with pytest.raises(DimensionMismatch):
            RawTrialSet(250.0, 2, 10, [(5, rng.standard_normal((2, 10)))], 2)

    def test_single_class_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            RawTrialSet(250.0, 2, 10, [(0, rng.standard_normal((2, 10)))], 1)

    def test_nonfinite_rejected(self):
        bad = np.full((2, 10), np.inf)
        with pytest.raises(NonFiniteValue):
            RawTrialSet(250.0, 2, 10, [(0, bad), (1, np.zeros((2, 10)))], 2)

    # A float64 sample past float32's range could not be saved, and
    # 1e200-scaled samples overflow their covariances.  Each value is the
    # one bad sample, in the second trial, so neither reduction may miss it
    @pytest.mark.parametrize("value", [1e200, -1e200, 3.5e38, -np.inf, np.nan],
                             ids=["huge", "huge-negative", "past-float32-max",
                                  "minus-inf", "nan"])
    def test_sample_outside_float32_rejected(self, rng, value):
        bad = rng.standard_normal((2, 10))
        bad[1, 7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"float32 range \[-3\.4028235e\+38, "):
                RawTrialSet(250.0, 2, 10, [(0, np.zeros((2, 10))), (1, bad)], 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float32_extremes_accepted_and_saved(self, tmp_path, dtype):
        # the largest float32 magnitudes are in range, in either sample
        # type, and round-trip through EEGB unchanged
        top = np.finfo(np.float32).max
        data = np.array([[top, -top, 0.0], [1.0, -1.0, np.finfo(np.float32).tiny]], dtype=dtype)
        trials = RawTrialSet(250.0, 2, 3, [(0, data), (1, data[::-1].copy())], 2)
        path = tmp_path / "x.eegb"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_trials(trials, path)
        loaded = load_trials(path)
        assert loaded.trials[0][1].tobytes() == data.astype(np.float32).tobytes()

    # 1e300 and 1e-300 Hz are finite and positive, but EEGB's float32
    # field holds neither, so such a set could be neither saved nor compared
    @pytest.mark.parametrize("rate", [np.nan, np.inf, 1e300, 1e-300],
                             ids=["nan", "inf", "float32-overflow", "float32-underflow"])
    def test_nonfinite_sample_rate_rejected(self, rate):
        with pytest.raises(DimensionMismatch):
            RawTrialSet(rate, 2, 10, [(0, np.zeros((2, 10))), (1, np.zeros((2, 10)))], 2)


def _sample_bundle(rng):
    return ModelBundle(
        config={"epochs": "3", "m": "2"},
        arrays={
            "w": rng.standard_normal((4, 3)),
            "b": rng.standard_normal(5),
            "scalar": np.asarray(2.5),
        },
    )


class TestBundle:
    def test_equality_is_config_then_arrays_in_order(self, rng):
        bundle = _sample_bundle(rng)
        assert bundle.__eq__("bundle") is NotImplemented and bundle != "bundle"
        assert bundle != ModelBundle({**bundle.config, "m": "3"}, bundle.arrays)
        assert bundle != ModelBundle(bundle.config, dict(reversed(bundle.arrays.items())))
        assert bundle == ModelBundle(dict(bundle.config),
                                     {k: a.copy() for k, a in bundle.arrays.items()})

    def test_round_trip_bit_exact(self, rng, tmp_path):
        path = tmp_path / "m.sbcm"
        bundle = _sample_bundle(rng)
        save_model(bundle, path)
        assert load_model(path) == bundle

    def test_wrong_version(self, rng, tmp_path):
        import zlib
        path = tmp_path / "m.sbcm"
        save_model(_sample_bundle(rng), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_flipped_payload_byte(self, rng, tmp_path):
        path = tmp_path / "m.sbcm"
        save_model(_sample_bundle(rng), path)
        blob = bytearray(path.read_bytes())
        blob[-20] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.sbcm"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(MalformedHeader):
            load_model(path)


def _forged_bundle(manifest, payload: bytes) -> bytes:
    """SBCM bytes with an arbitrary manifest and a valid checksum."""
    meta = json.dumps(manifest).encode("utf-8")
    body = b"SBCM" + struct.pack("<II", 1, len(meta)) + meta + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


_ONE_ARRAY = {"config": {}, "arrays": [{"name": "w", "shape": [2]}]}


@pytest.mark.parametrize(
    "manifest, error",
    [
        ({"config": {}}, MalformedHeader),
        ([_ONE_ARRAY], MalformedHeader),
        ({**_ONE_ARRAY, "arrays": [{"name": "w", "shape": [2, 3]}]}, DimensionMismatch),
        ({**_ONE_ARRAY, "parameter_count": 2}, MalformedHeader),
        ({**_ONE_ARRAY, "junk": {}}, MalformedHeader),
    ],
    ids=["no-arrays-key", "manifest-is-a-list", "shape-exceeds-payload",
         "extra-parameter-count", "extra-junk-key"],
)
def test_malformed_manifest_raises_typed_error(tmp_path, manifest, error):
    path = tmp_path / "m.sbcm"
    path.write_bytes(_forged_bundle(manifest, np.zeros(2, dtype="<f8").tobytes()))
    with pytest.raises(error):
        load_model(path)


@pytest.mark.parametrize(
    "arrays",
    [
        [{"name": "w", "shape": [1]}, {"name": "w", "shape": [1]}],
        [{"name": "w", "shape": [2.7]}],
        [{"name": "w", "shape": ["2"]}],
        [{"name": "w", "shape": [True, 2]}],
        [{"name": 5, "shape": [2]}],
        [{"name": "w", "shape": [-1, -2]}],
        [{"name": "w", "shape": [2], "dtype": "<f8"}],
        [{"name": "w"}],
        [["w", [2]]],
        {"name": "w", "shape": [2]},
    ],
    ids=["repeated-name", "float-dim", "string-dim", "bool-dim", "int-name", "negative-dims",
         "extra-entry-key", "no-shape", "entry-is-a-list", "arrays-is-a-mapping"],
)
def test_garbled_array_entry_raises_typed_error(tmp_path, arrays):
    # Every case fits the 2-float payload if its fields were coerced.
    path = tmp_path / "m.sbcm"
    manifest = {**_ONE_ARRAY, "arrays": arrays}
    path.write_bytes(_forged_bundle(manifest, np.zeros(2, dtype="<f8").tobytes()))
    with pytest.raises(MalformedHeader):
        load_model(path)


@pytest.mark.parametrize(
    "config",
    [{"bands": 5}, {"epochs": [1]}, {"m": 2.5}, {"seed": True}, {"m": None}, ["m", "2"]],
    ids=["int", "list", "float", "bool", "null", "not-a-mapping"],
)
def test_non_string_config_value_raises_typed_error(tmp_path, config):
    path = tmp_path / "m.sbcm"
    manifest = {**_ONE_ARRAY, "config": config}
    path.write_bytes(_forged_bundle(manifest, np.zeros(2, dtype="<f8").tobytes()))
    with pytest.raises(MalformedHeader, match="config"):
        load_model(path)

