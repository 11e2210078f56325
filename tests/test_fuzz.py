"""Typed-error contract of the file readers and the SPD algebra: a
mutated or truncated EEGB file or model bundle either loads or raises an
``SpdBciError`` subclass, never a bare builtin exception, and a matrix
with a non-finite entry raises one from every SPD map and layer.

The mutations are plain byte edits (``struct``, ``zlib``, and ``json``
where a case rewrites a manifest entry); where a case recomputes the
trailing CRC-32, the checksum no longer hides the field checks behind
it.
"""

import json
import math
import struct
import warnings
import zlib
from dataclasses import fields

import numpy as np
import pytest

from spdbci.cli import main as cli_main
from spdbci.config import TrainConfig
from spdbci.eeg_io import RawTrialSet, load_model, load_trials, save_model, save_trials
from spdbci.errors import ConfigError, MalformedHeader, SpdBciError
from spdbci.layers import LogEigLayer, ReEigLayer, karcher_mean
from spdbci.model import model_from_bundle
from spdbci.spd import (airm_distance, airm_distances, check_spd, inv_sqrtm, spd_exp,
                        spd_log)
from spdbci.synth import synthetic_trials, two_class_covariances
from spdbci.trainer import bench_inference

from conftest import train_to_bundle

U32_EDGES = [0, 1, 2**31, 2**32 - 1]
RATE_EDGES = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -250.0, 1e-45]

# EEGB v1 header: magic, then u32 version, channels, samples per trial,
# trial count, class count, f32 sample rate; the first label follows.
EEGB_FIELDS = {
    "version": 4, "channels": 8, "samples_per_trial": 12,
    "n_trials": 16, "n_classes": 20, "first_label": 28,
}
EEGB_RATE_OFFSET = 24


def with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def leaks(reader, blobs, path):
    """``(case, exception)`` for every blob whose read raises anything but
    an ``SpdBciError``."""
    out = []
    for case, blob in blobs:
        path.write_bytes(blob)
        try:
            reader(path)
        except SpdBciError:
            pass
        except Exception as exc:
            out.append((case, f"{type(exc).__name__}: {exc}"))
    return out


def truncations(blob: bytes):
    """Every proper prefix of ``blob``, raw and with its CRC recomputed."""
    for k in range(len(blob)):
        yield f"raw[:{k}]", blob[:k]
        yield f"crc[:{k}]", with_crc(blob[:k])


@pytest.fixture(scope="module")
def eegb_blob(tmp_path_factory):
    rng = np.random.default_rng(0)
    trials = [(k % 2, rng.standard_normal((2, 4)).astype(np.float32).astype(np.float64))
              for k in range(3)]
    path = tmp_path_factory.mktemp("eegb") / "tiny.eegb"
    save_trials(RawTrialSet(250.0, 2, 4, trials, n_classes=2), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def bundle_trials():
    rng = np.random.default_rng(1)
    covs = two_class_covariances(3, separation=2.0, rng=rng)
    return synthetic_trials(covs, trials_per_class=4, samples_per_trial=64,
                            sample_rate_hz=250.0, rng=rng)


@pytest.fixture(scope="module")
def bundle_blob(tmp_path_factory, bundle_trials):
    cfg = TrainConfig(epochs=1, batch_size=8, bands=((8.0, 16.0),), window_len=32,
                      m=2, k_heads=2, conv_out=2)
    path = tmp_path_factory.mktemp("bundle") / "tiny.sbcm"
    save_model(train_to_bundle(cfg, bundle_trials), path)
    return path.read_bytes()


def load_and_build(path):
    model_from_bundle(load_model(path))


@pytest.mark.parametrize("field", sorted(EEGB_FIELDS))
def test_eegb_header_edge_values(eegb_blob, tmp_path, field):
    def mutants():
        for value in U32_EDGES:
            blob = bytearray(eegb_blob)
            struct.pack_into("<I", blob, EEGB_FIELDS[field], value)
            yield f"{field}={value} (stale crc)", bytes(blob)
            yield f"{field}={value}", with_crc(bytes(blob[:-4]))

    assert not leaks(load_trials, mutants(), tmp_path / "x.eegb")


@pytest.mark.parametrize("field", ["channels", "samples_per_trial"])
def test_eegb_empty_set_edge_dimensions(eegb_blob, tmp_path, field):
    """A file of no trials is all header, so its length bounds neither
    dimension."""
    def mutants():
        for value in U32_EDGES:
            blob = bytearray(eegb_blob[:EEGB_FIELDS["first_label"]])
            struct.pack_into("<I", blob, EEGB_FIELDS["n_trials"], 0)
            struct.pack_into("<I", blob, EEGB_FIELDS[field], value)
            yield f"{field}={value}", with_crc(bytes(blob))

    assert not leaks(load_trials, mutants(), tmp_path / "x.eegb")


def class_count_mutant(eegb_blob, path, n_classes):
    """Write ``eegb_blob`` to ``path`` with its class count set to
    ``n_classes`` and the CRC recomputed."""
    blob = bytearray(eegb_blob)
    struct.pack_into("<I", blob, EEGB_FIELDS["n_classes"], n_classes)
    path.write_bytes(with_crc(bytes(blob[:-4])))
    return path


def assert_malformed(path):
    with pytest.raises(SpdBciError) as caught:
        load_trials(path)
    assert type(caught.value) is MalformedHeader


@pytest.mark.parametrize("n_classes", [2**31, 2**32 - 1])
def test_eegb_huge_class_count_is_malformed(eegb_blob, tmp_path, n_classes):
    assert_malformed(class_count_mutant(eegb_blob, tmp_path / "x.eegb", n_classes))


def test_eegb_class_count_is_bounded_by_the_trial_count(eegb_blob, tmp_path):
    # the fixture file holds three trials
    assert_malformed(class_count_mutant(eegb_blob, tmp_path / "x.eegb", 4))
    assert load_trials(class_count_mutant(eegb_blob, tmp_path / "y.eegb", 3)).n_classes == 3


@pytest.mark.parametrize("n_classes", [0, 1])
def test_eegb_class_count_below_two_is_malformed(eegb_blob, tmp_path, capsys, n_classes):
    """The class count is read, never inferred from the labels: 0 or 1
    fails typed, and ``train`` on the file exits 1 with ``error:``
    instead of a traceback."""
    path = class_count_mutant(eegb_blob, tmp_path / "x.eegb", n_classes)
    assert_malformed(path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbands = 8-16\nwindow_len = 4\nm = 2\n")
    model = tmp_path / "m.sbcm"

    def train(data):
        return cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(model)])

    # the unmutated file trains with this config
    (tmp_path / "ok.eegb").write_bytes(eegb_blob)
    assert train(tmp_path / "ok.eegb") == 0
    model.unlink()
    capsys.readouterr()
    assert train(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not model.exists()


def test_eegb_sample_rate_edge_values(eegb_blob, tmp_path):
    def mutants():
        for rate in RATE_EDGES:
            blob = bytearray(eegb_blob)
            struct.pack_into("<f", blob, EEGB_RATE_OFFSET, rate)
            yield f"rate={rate}", with_crc(bytes(blob[:-4]))

    assert not leaks(load_trials, mutants(), tmp_path / "x.eegb")


def test_eegb_truncated_at_every_offset(eegb_blob, tmp_path):
    # header, three trials of one label and 2 x 4 float32 samples, CRC
    assert len(eegb_blob) == 28 + 3 * (4 + 4 * 2 * 4) + 4
    assert not leaks(load_trials, truncations(eegb_blob), tmp_path / "x.eegb")


def test_bundle_truncated_at_every_offset(bundle_blob, tmp_path):
    path = tmp_path / "x.sbcm"
    path.write_bytes(bundle_blob)
    load_and_build(path)  # the untouched bundle loads and builds
    assert not leaks(load_and_build, truncations(bundle_blob), path)


@pytest.mark.parametrize("offset", [4, 8], ids=["version", "manifest_length"])
def test_bundle_header_edge_values(bundle_blob, tmp_path, offset):
    def mutants():
        for value in U32_EDGES:
            blob = bytearray(bundle_blob)
            struct.pack_into("<I", blob, offset, value)
            yield f"u32@{offset}={value}", with_crc(bytes(blob[:-4]))

    assert not leaks(load_and_build, mutants(), tmp_path / "x.sbcm")


def rewritten(bundle_blob: bytes, config=None, arrays=None) -> bytes:
    """``bundle_blob`` with the values in ``config`` set in its config
    snapshot (a key whose value is ``None`` deleted) and each array in
    ``arrays`` rewritten in the manifest and the payload, and the CRC
    recomputed."""
    (meta_len,) = struct.unpack_from("<I", bundle_blob, 8)
    manifest = json.loads(bundle_blob[12 : 12 + meta_len])
    for key, value in (config or {}).items():
        if value is None:
            del manifest["config"][key]
        else:
            manifest["config"][key] = value
    offset, chunks = 12 + meta_len, []
    for entry in manifest["arrays"]:
        size = 8 * math.prod(entry["shape"])
        chunk = bundle_blob[offset : offset + size]
        offset += size
        if entry["name"] in (arrays or {}):
            value = arrays[entry["name"]]
            entry["shape"] = list(np.shape(value))
            chunk = np.asarray(value, dtype="<f8").tobytes()
        chunks.append(chunk)
    assert offset == len(bundle_blob) - 4
    meta = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return with_crc(bundle_blob[:8] + struct.pack("<I", len(meta)) + meta + b"".join(chunks))


def test_bundle_selection_rewritten_as_is_loads(bundle_blob, tmp_path):
    path = tmp_path / "x.sbcm"
    path.write_bytes(bundle_blob)
    bundle = load_model(path)
    mask = bundle.arrays["selection"]
    assert mask.shape == (3,) and mask.sum() == 2  # M = 3 channels, m = 2
    assert rewritten(bundle_blob, arrays={"selection": mask}) == bundle_blob
    assert rewritten(bundle_blob, config=bundle.config, arrays=bundle.arrays) == bundle_blob


@pytest.mark.parametrize("selection", [
    np.float64(1.0),
    np.eye(3)[:, [0, 2]],
    np.zeros(0),
    np.array([1.0, 2.0, 0.0]),
    np.array([1.0, 0.5, 1.0]),
    np.array([1.0, -1.0, 1.0]),
    np.array([1.0, np.nan, 1.0]),
    np.zeros(3),
    np.array([1.0, 0.0, 0.0]),
    np.ones(3),
], ids=["rank-0", "rank-2-one-hot", "zero-length", "entry-two", "entry-half",
        "entry-minus-one", "entry-nan", "all-zeros", "count-one", "count-three"])
def test_bundle_selection_mask_edge_values(bundle_blob, tmp_path, selection):
    path = tmp_path / "x.sbcm"
    path.write_bytes(rewritten(bundle_blob, arrays={"selection": selection}))
    with pytest.raises(SpdBciError) as caught:
        load_and_build(path)
    assert type(caught.value) is MalformedHeader


def load_build_and_run(trials):
    """A reader that loads a bundle, builds its model and runs the eval
    forward of every trial, as ``spdbci bench`` does."""
    def reader(path):
        bench_inference(load_model(path), trials)
    return reader


# every array of the fixture's K = 2 bundle
BUNDLE_ARRAYS = ["head_1", "bimap_0", "clf_kernel", "clf_bias", "clf_w1", "clf_w2",
                 "clf_head_w", "clf_head_b", "rbn_mean_0", "selection", "sample_rate"]


def test_bundle_arrays_are_listed(bundle_blob, bundle_trials, tmp_path):
    path = tmp_path / "x.sbcm"
    path.write_bytes(bundle_blob)
    assert sorted(load_model(path).arrays) == sorted(BUNDLE_ARRAYS)
    load_build_and_run(bundle_trials)(path)  # the untouched bundle runs


@pytest.mark.parametrize("name", BUNDLE_ARRAYS)
def test_bundle_array_shapes(bundle_blob, bundle_trials, tmp_path, name):
    path = tmp_path / "x.sbcm"
    path.write_bytes(bundle_blob)
    array = load_model(path).arrays[name]
    shape = array.shape

    def mutants():
        for new_shape in [(1, *shape), shape[::-1], (*shape[:-1], shape[-1] + 1),
                          (*shape[:-1], shape[-1] - 1), ()]:
            yield f"{name}{new_shape}", rewritten(
                bundle_blob, arrays={name: np.resize(array, new_shape)})

    assert not leaks(load_build_and_run(bundle_trials), mutants(), path)


@pytest.mark.parametrize("key, values", [
    ("k_heads", ["1", "3"]),
    ("m", ["1", "3"]),
    ("bands", ["", "8-16;16-24", "7-16", "8-17"]),
    ("conv_out", ["1", "3"]),
    ("window_len", ["31", "33"]),
])
def test_bundle_config_neighbouring_values(bundle_blob, bundle_trials, tmp_path, key, values):
    def mutants():
        for value in values:
            yield f"{key}={value!r}", rewritten(bundle_blob, config={key: value})

    assert not leaks(load_build_and_run(bundle_trials), mutants(), tmp_path / "x.sbcm")


CONFIG_KEYS = [f.name for f in fields(TrainConfig)]


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_bundle_config_missing_key_is_malformed(bundle_blob, bundle_trials, tmp_path, key):
    """A snapshot must name every key: a default must not stand in for
    the value the model was trained with."""
    path = tmp_path / "x.sbcm"
    path.write_bytes(rewritten(bundle_blob, config={key: None}))
    with pytest.raises(SpdBciError) as caught:
        load_build_and_run(bundle_trials)(path)
    assert type(caught.value) is MalformedHeader


@pytest.mark.parametrize("key, value", [
    ("dropout", "0.5"),
    ("epochs", "-1"),
    ("batch_size", "0"),
    ("learning_rate", "nan"),
    ("learning_rate", "inf"),
    ("learning_rate", "0"),
    ("seed", "-1"),
    ("selection_max_iters", "0"),
    ("selection_tol", "0"),
    ("channel_scoring", "max"),
    ("conv_out", "three"),
])
def test_bundle_config_bad_values_fail_typed(bundle_blob, bundle_trials, tmp_path, key, value):
    """An unknown key, and a value out of range for a key that only
    training reads, run through ``bench_inference``."""
    blob = rewritten(bundle_blob, config={key: value})
    assert not leaks(load_build_and_run(bundle_trials), [(f"{key}={value!r}", blob)],
                     tmp_path / "x.sbcm")


def test_bundle_config_argmax_scoring_fails_typed(bundle_blob, bundle_trials, tmp_path):
    """A snapshot naming the deleted ``argmax`` rule is refused, as a
    config file naming it is: ``row-norm`` is the one scoring rule."""
    path = tmp_path / "x.sbcm"
    path.write_bytes(rewritten(bundle_blob, config={"channel_scoring": "argmax"}))
    with pytest.raises(ConfigError, match="channel_scoring must be 'row-norm'"):
        load_build_and_run(bundle_trials)(path)


#: Every SPD map and layer that takes a matrix from a caller, applied to
#: a 3 x 3 probe.
SPD_CALLS = {
    "spd_log": spd_log,
    "spd_exp": spd_exp,
    "inv_sqrtm": inv_sqrtm,
    "check_spd": check_spd,
    "airm_distance": lambda x: airm_distance(x, 2.0 * np.eye(3)),
    "airm_distances": lambda x: airm_distances(np.eye(3), np.stack([2.0 * np.eye(3), x])),
    "karcher_mean": lambda x: karcher_mean(np.stack([2.0 * np.eye(3), x])),
    "LogEigLayer.forward": lambda x: LogEigLayer().forward(x[None]),
    "ReEigLayer.forward": lambda x: ReEigLayer().forward(x[None]),
}


@pytest.mark.parametrize("call", SPD_CALLS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_spd_input_with_a_non_finite_entry_fails_typed(call, value):
    """``2 I`` with ``value`` at any one of its nine entries raises an
    ``SpdBciError``: never a numpy exception, a numpy warning or a
    non-finite result."""
    for i, j in np.ndindex(3, 3):
        x = 2.0 * np.eye(3)
        x[i, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpdBciError):
                SPD_CALLS[call](x)
