"""Training loop, evaluation harnesses, configuration, and the CLI."""

import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from spdbci.cli import main as cli_main
from spdbci.config import (
    SyntheticSpec,
    TrainConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    read_mapping,
)
from spdbci.classifier import cross_entropy
from spdbci.eeg_io import RawTrialSet, load_model, load_trials, save_model, save_trials
from spdbci.errors import (
    ConfigError,
    GaborViolation,
    InsufficientData,
    IoFailure,
    MalformedHeader,
    MissingForwardCache,
    NonFiniteLoss,
    NonFiniteValue,
    NotPositiveDefinite,
    SchemaMismatch,
    ShapeMismatch,
    WindowTooLong,
)
import spdbci.filterbank as filterbank_module
from spdbci.filterbank import segment
from spdbci.layers import BiMapLayer, karcher_mean
from spdbci.model import Model, count_parameters, model_from_bundle, model_to_bundle
from spdbci.spd import FOLD_RATIO, SHRINKAGE_SCALE, covariance, pack, unpack
from spdbci.synth import generate_from_spec, synthetic_trials, two_class_covariances
import spdbci.trainer as trainer_module
from spdbci.trainer import (
    bench_inference,
    class_band_representatives,
    evaluate_cv,
    evaluate_holdout,
    predict,
    prepare_dataset,
    select_channels,
    stratified_folds,
    train,
)

from conftest import (
    eval_whitened,
    layered_eval_forward,
    layered_train_step,
    pad,
    per_part_step,
    random_spd,
    train_to_bundle,
)

# A small, fast configuration used throughout this module.
SMALL = dict(
    epochs=2,
    batch_size=16,
    bands=((8.0, 16.0), (16.0, 24.0)),
    window_len=64,
    m=2,
    k_heads=2,
    conv_out=3,
)

# Mean held-out accuracy of online-1trial's setup model over seeds
# 301-310; set from the measured 0.6185 and never to be lowered.
ONLINE_ACCURACY_FLOOR = 0.6

# A valid four-channel synthetic spec that the bad-spec cases perturb.
_SPEC = {"channels": "4", "samples_per_trial": "100", "trials_per_class": "2"}


def per_window_covariances(trials, cfg):
    """Reference for ``prepare_dataset``, as full (N, S, F, M, M)
    matrices: filter each trial on its own through ``segment``, slice the
    windows out one by one and call the 2-D ``covariance`` once per
    window, unpacking its row."""
    spec = cfg.band_spec()
    out = []
    for item in trials.trials:
        windows = segment(dataclasses.replace(trials, trials=[item]), spec, cfg.window_len)[0][1]
        n_windows, n_bands, m = windows.shape[:3]
        covs = np.empty((n_windows, n_bands, m, m))
        for s in range(n_windows):
            for f in range(n_bands):
                covs[s, f] = unpack(covariance(pad(windows[s, f])))
        out.append(covs)
    return np.stack(out)


@pytest.fixture(scope="module")
def small_trials():
    rng = np.random.default_rng(3)
    covs = two_class_covariances(4, separation=2.0, rng=rng)
    return synthetic_trials(covs, trials_per_class=12, samples_per_trial=128,
                            sample_rate_hz=250.0, rng=rng)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 100 and cfg.batch_size == 64
        assert cfg.learning_rate == 1e-3
        assert len(cfg.bands) == 9

    def test_mapping_round_trip(self):
        cfg = TrainConfig(**SMALL)
        again = config_from_mapping(config_to_mapping(cfg))
        assert again == cfg

    @staticmethod
    def _readme_rows(heading):
        """``(key, default)`` of each table row under README's ``## heading``."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
        return re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, flags=re.MULTILINE)

    def test_readme_table_matches_schema(self):
        """README's Configuration table lists every TrainConfig field, in
        order, with its default."""
        rows = self._readme_rows("Configuration")
        assert [key for key, _ in rows] == [f.name for f in fields(TrainConfig)]
        defaults = TrainConfig()
        for key, text in rows:
            text = text.strip().strip("`")
            if key == "bands":
                first, *_, last = text.split(";")
                assert config_from_mapping({key: f"{first};{last}"}).bands == (
                    defaults.bands[0], defaults.bands[-1])
            else:
                assert getattr(config_from_mapping({key: text}), key) == getattr(
                    defaults, key), key

    def test_readme_spec_table_matches_schema(self):
        """README's synthetic-spec table lists every SyntheticSpec field, in
        order, with its default, or ``required`` for a field without one."""
        rows = self._readme_rows("Command-line usage")
        assert [key for key, _ in rows] == [f.name for f in fields(SyntheticSpec)]
        required = {f.name: "1" for f in fields(SyntheticSpec) if f.default is MISSING}
        for f, (key, text) in zip(fields(SyntheticSpec), rows):
            text = text.strip().strip("`")
            if f.default is MISSING:
                assert text == "required", key
            else:
                spec = read_mapping(SyntheticSpec, {**required, key: text}, "synthetic spec")
                assert getattr(spec, key) == f.default, key

    def test_unknown_key_rejected(self):
        for key in ("no_such_knob", "bimap_layers", "std_divisor",
                    "karcher_iterations", "rbn_momentum", "reeig_epsilon",
                    "filter_order", "stopband_atten_db", "shrinkage_scale"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config_from_mapping({key: "1"})

    @pytest.mark.parametrize("key, value", [
        ("epochs", "five"), ("learning_rate", "fast"), ("bands", "8-x"),
    ])
    def test_unparsable_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: value})

    def test_band_parsing(self):
        cfg = config_from_mapping({"bands": "4-8; 8-12"})
        assert cfg.bands == ((4.0, 8.0), (8.0, 12.0))
        with pytest.raises(ConfigError):
            config_from_mapping({"bands": "4:8"})

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nepochs = 5\n\nm = 3\n")
        cfg = load_config(path)
        assert cfg.epochs == 5 and cfg.m == 3

    def test_underscore_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 5\n_epochs = 6\n")
        with pytest.raises(ConfigError, match="unknown config key '_epochs'"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 5\nepochs = 6\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_config(tmp_path / "missing.cfg")
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"channel_scoring = \xe9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values_rejected(self):
        for bad in (
            {"learning_rate": -1.0},
            {"seed": -1},
            {"conv_out": 0},
            {"m": 0},
            {"k_heads": 0},
            {"window_len": 0},
            {"selection_max_iters": 0},
            {"channel_scoring": "bogus"},
            {"channel_scoring": "argmax"},
            {"selection_tol": 0.0},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"selection_tol": float("nan")},
            {"selection_tol": float("inf")},
            {"bands": ((8.0, 4.0),)},
            {"bands": ((8.0, 12.0), (10.0, 14.0))},
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)


class TestSynth:
    def test_separation_target(self, rng):
        from spdbci.spd import airm_distance
        cov0, cov1 = two_class_covariances(6, separation=2.5, rng=rng)
        assert airm_distance(cov0, cov1) >= 2.5

    def test_no_planted_channel_rejected(self, rng):
        with pytest.raises(ConfigError, match="planted"):
            two_class_covariances(4, planted=[], rng=rng)

    def test_planted_channels_identical_elsewhere(self, rng):
        cov0, cov1 = two_class_covariances(8, planted=[2, 4], rng=rng)
        mask = np.ones(8, dtype=bool)
        mask[[2, 4]] = False
        assert np.allclose(cov0[np.ix_(mask, mask)], np.eye(6))
        assert np.allclose(cov1[np.ix_(mask, mask)], np.eye(6))

    def test_trial_shapes_and_interleaving(self, rng):
        covs = two_class_covariances(4, rng=rng)
        trials = synthetic_trials(covs, 5, 100, 250.0, rng=rng)
        assert len(trials.trials) == 10
        assert [l for l, _ in trials.trials] == [0, 1] * 5

    def test_trials_are_views_of_one_array(self, rng):
        # one allocation per set, so freeing the set leaves no heap holes
        covs = two_class_covariances(4, rng=rng)
        seed = int(rng.integers(2**32))
        trials = synthetic_trials(covs, 3, 100, 250.0, rng=np.random.default_rng(seed))
        data = trials.trials[0][1].base
        assert data is not None and data.shape == (6, 4, 100)
        assert data.dtype == np.float32 and data.flags.c_contiguous
        assert all(x.base is data for _, x in trials.trials)
        # the values are still each trial's own chol @ z + noise * z',
        # computed in float64 and rounded to float32 once
        draw = np.random.default_rng(seed)
        chols = [np.linalg.cholesky(c) for c in covs]
        for label, x in trials.trials:
            base = chols[label] @ draw.standard_normal((4, 100))
            expected = (base + 0.1 * draw.standard_normal((4, 100))).astype(np.float32)
            assert x.tobytes() == expected.tobytes()

    def test_set_equals_its_eegb_round_trip(self, rng, tmp_path):
        # the samples are held as EEGB stores them, so a save and a load
        # change nothing
        covs = two_class_covariances(5, planted=[1, 3], rng=rng)
        trials = synthetic_trials(covs, 4, 300, 500.0, rng=rng)
        path = tmp_path / "s.eegb"
        save_trials(trials, path)
        loaded = load_trials(path)
        assert [label for label, _ in loaded.trials] == [label for label, _ in trials.trials]
        for (_, got), (_, data) in zip(loaded.trials, trials.trials):
            assert got.dtype == data.dtype and got.tobytes() == data.tobytes()

    def test_peak_memory_is_the_float32_set(self, rng):
        # numpy reports its allocations to tracemalloc.  The set is 22 x
        # 2000 x 48 float32 samples, half its float64 size; a float64
        # set, or a float64 copy of the set, would pass 1.0x
        covs = two_class_covariances(22, planted=[2, 9, 17], rng=rng)
        float64_bytes = 48 * 22 * 2000 * 8
        tracemalloc.start()
        try:
            trials = synthetic_trials(covs, 24, 2000, 500.0, rng=rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trials.trials) == 48
        assert peak < 0.6 * float64_bytes

    @pytest.mark.parametrize("noise", ["1e200", "1e39"])
    def test_noise_past_float32_is_a_typed_failure(self, noise):
        # the samples overflow float32, which RawTrialSet refuses, with no
        # RuntimeWarning from the rounding on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"3\.4028235e\+38"):
                generate_from_spec({**_SPEC, "noise": noise})

    @pytest.mark.parametrize("items, key", [
        ({"samples_per_trial": "100", "trials_per_class": "2"}, "channels"),
        ({**_SPEC, "noise": "loud"}, "noise"),
        ({**_SPEC, "planted": "1,x"}, "planted"),
        ({**_SPEC, "planted": "9"}, "planted"),
        ({**_SPEC, "channels": "0"}, "channels"),
        ({**_SPEC, "samples_per_trial": "-5"}, "samples_per_trial"),
        ({**_SPEC, "trials_per_class": "0"}, "trials_per_class"),
        ({**_SPEC, "separation": "nan"}, "separation"),
        ({**_SPEC, "separation": "inf"}, "separation"),
        ({**_SPEC, "separation": "1e6"}, "separation"),
        ({**_SPEC, "separation": "300"}, "separation"),
        ({**_SPEC, "seed": "-1"}, "seed"),
        ({**_SPEC, "planted": "1,1"}, "planted"),
        ({**_SPEC, "seperation": "9"}, "seperation"),
        ({**_SPEC, "noize": "5"}, "noize"),
        ({**_SPEC, "noise": "-1"}, "noise"),
        ({**_SPEC, "noise": "nan"}, "noise"),
        ({**_SPEC, "noise": "inf"}, "noise"),
    ], ids=["missing-channels", "non-numeric-noise", "non-numeric-planted",
            "planted-out-of-range", "zero-channels", "negative-samples",
            "zero-trials-per-class",
            "nan-separation", "inf-separation", "huge-separation",
            "unreachable-separation", "negative-seed", "duplicate-planted",
            "misspelt-separation", "misspelt-noise",
            "negative-noise", "nan-noise", "inf-noise"])
    def test_bad_spec_raises_config_error(self, items, key):
        with pytest.raises(ConfigError, match=key):
            generate_from_spec(items)

    def test_planted_spec_keeps_its_channels(self):
        trials = generate_from_spec({"channels": "4", "samples_per_trial": "100",
                                     "trials_per_class": "2", "planted": "0,3"})
        assert trials.channels == 4 and len(trials.trials) == 4


class TestTrain:
    def test_zero_epochs_returns_initial_model(self, small_trials):
        cfg = TrainConfig(**{**SMALL, "epochs": 0})
        model, losses = train(cfg, small_trials)
        assert losses == []
        assert count_parameters(model) > 0

    def test_determinism(self, small_trials):
        cfg = TrainConfig(**SMALL)
        _, l1 = train(cfg, small_trials)
        _, l2 = train(cfg, small_trials)
        assert l1 == l2

    def test_stiefel_weights_stay_orthonormal(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        for w in model.heads.weights:
            assert np.linalg.norm(w.T @ w - np.eye(w.shape[1])) < 1e-8
        w = model.bimap.weight
        assert np.linalg.norm(w @ w.T - np.eye(w.shape[0])) < 1e-8

    @pytest.mark.parametrize("rate", [1e300, 1e308, 1.7e308])
    def test_diverging_loss_raises_typed_error(self, small_trials, rate):
        """A step that overflows the weights makes the loss non-finite,
        and training stops there, typed, naming the epoch, with no numpy
        warning before it: the overflow is the failure's, not the
        caller's to silence."""
        cfg = TrainConfig(**{**SMALL, "learning_rate": rate})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteLoss, match=r"loss became \S+ at epoch 0"):
                train(cfg, small_trials)

    def test_bundle_round_trip_preserves_predictions(self, small_trials, tmp_path):
        cfg = TrainConfig(**SMALL)
        bundle = train_to_bundle(cfg, small_trials)
        path = tmp_path / "m.sbcm"
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded == bundle
        assert "_model_meta" not in loaded.config
        model = model_from_bundle(loaded)
        covs, labels = prepare_dataset(small_trials, cfg)
        fresh, _ = train(cfg, small_trials)
        assert np.array_equal(predict(model, covs), predict(fresh, covs))

    @pytest.mark.parametrize("name", ["clf_kernel", "rbn_mean_0", "selection", "sample_rate"])
    def test_bundle_missing_array_raises_typed_error(self, small_trials, name):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        arrays = {key: arr for key, arr in bundle.arrays.items() if key != name}
        with pytest.raises(MalformedHeader, match=name):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    def test_reloaded_model_trains_bit_identically(self, small_trials, tmp_path):
        cfg = TrainConfig(**SMALL)
        original, _ = train(cfg, small_trials)
        path = tmp_path / "m.sbcm"
        save_model(model_to_bundle(original, config_to_mapping(cfg)), path)
        reloaded = model_from_bundle(load_model(path))
        covs, labels = prepare_dataset(small_trials, cfg)
        _assert_step_bit_identical(original, reloaded, covs[:8], labels[:8], cfg)

    def test_one_head_bundle_round_trip(self, small_trials, tmp_path):
        """A K=1 model stores no head array; its bundle saves and loads, and
        the reloaded model predicts and trains on bit for bit."""
        cfg = TrainConfig(**{**SMALL, "k_heads": 1})
        original, _ = train(cfg, small_trials)
        path = tmp_path / "m.sbcm"
        save_model(model_to_bundle(original, config_to_mapping(cfg)), path)
        loaded = load_model(path)
        assert not [name for name in loaded.arrays if name.startswith("head_")]
        reloaded = model_from_bundle(loaded)
        assert reloaded.heads.K == 1
        covs, labels = prepare_dataset(small_trials, cfg)
        assert (reloaded.forward(covs, training=False).tobytes()
                == original.forward(covs, training=False).tobytes())
        _assert_step_bit_identical(original, reloaded, covs[:8], labels[:8], cfg)

    @pytest.mark.parametrize("k_heads", [1, 2])
    def test_bundle_with_head_0_raises_typed_error(self, small_trials, k_heads):
        """A bundle in the format that also stored head 0, the identity,
        as ``head_0`` is rejected, naming it."""
        cfg = TrainConfig(**{**SMALL, "epochs": 0, "k_heads": k_heads})
        bundle = train_to_bundle(cfg, small_trials)
        arrays = {"head_0": np.eye(cfg.m), **bundle.arrays}
        with pytest.raises(MalformedHeader, match="unexpected.*head_0"):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    def test_training_step_matches_layered_oracle(self, small_trials):
        """LogEig reusing ReEig's decomposition, ReEig's identity backward
        and the heads folded into the conv kernel change neither the
        training logits nor any gradient beyond round-off."""
        cfg = TrainConfig(**SMALL)
        trained, _ = train(cfg, small_trials)
        bundle = model_to_bundle(trained, config_to_mapping(cfg))
        model, oracle = model_from_bundle(bundle), model_from_bundle(bundle)
        covs, labels = prepare_dataset(small_trials, cfg)
        got = model.forward(covs, training=True)
        model.backward(cross_entropy(got, labels)[1])
        want, want_grads = layered_train_step(oracle, covs, labels)
        _assert_logits_close(got, want)
        got_grads = {"bimap": model.bimap.grad_weight, "heads": model.heads.grad_weights,
                     **{f"clf_{k}": g for k, g in model.clf.grads.items()}}
        assert got_grads.keys() == want_grads.keys()
        for name, want_g in want_grads.items():
            got_g = got_grads[name]
            assert got_g.shape == want_g.shape, name
            assert np.max(np.abs(got_g - want_g)) <= 1e-10 * np.max(np.abs(want_g)), name

    def test_bundle_missing_its_last_head_names_it(self, small_trials):
        """K is read from the config snapshot, so a bundle without its
        last head fails on the missing array, not on the kernel shape."""
        cfg = TrainConfig(**{**SMALL, "epochs": 0, "k_heads": 3})
        bundle = train_to_bundle(cfg, small_trials)
        arrays = {key: arr for key, arr in bundle.arrays.items() if key != "head_2"}
        with pytest.raises(MalformedHeader, match="missing.*'head_2'"):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    def test_bundle_kernel_not_a_multiple_of_m_squared_raises_typed_error(
        self, small_trials
    ):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        arrays = {**bundle.arrays, "clf_kernel": bundle.arrays["clf_kernel"][..., :-1]}
        with pytest.raises(MalformedHeader,
                           match=r"'clf_kernel' has shape \(3, 2, 7\), expected \(3, 2, 8\)"):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    @pytest.mark.parametrize("key, value, name", [
        ("k_heads", "3", "missing.*'head_2'"),
        ("k_heads", "1", "unexpected.*'head_1'"),
        ("m", "3", "config key 'm' is 3.*'selection' selects 2"),
        ("bands", "8-16;16-24;24-32", "'clf_w1' has shape \\(2, 1\\), expected \\(3, 1\\)"),
    ])
    def test_bundle_config_that_disagrees_with_its_arrays_raises_typed_error(
        self, small_trials, key, value, name
    ):
        """The snapshot's K, m and band count must be those of the arrays;
        a K=2, m=2, two-band bundle that says otherwise fails on load, not
        at the first prediction or never."""
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        edited = dataclasses.replace(bundle, config={**bundle.config, key: value})
        with pytest.raises(MalformedHeader, match=name):
            model_from_bundle(edited)

    def test_model_meta_bundle_key_is_rejected(self, small_trials):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        legacy = dataclasses.replace(
            bundle, config={**bundle.config, "_model_meta": '{"k_heads": 2}'}
        )
        with pytest.raises(ConfigError, match="_model_meta"):
            model_from_bundle(legacy)

    def test_bench_rejects_trials_at_another_sample_rate(self, small_trials):
        # the bank's designs depend on the rate: a 250 Hz model read
        # 500 Hz trials through filters it was not trained on
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        faster = dataclasses.replace(small_trials, sample_rate_hz=500.0)
        with pytest.raises(SchemaMismatch, match="trained at 250.0 Hz, trials are at 500.0 Hz"):
            bench_inference(bundle, faster)

    def test_bench_compares_rates_as_eegb_stores_them(self, tmp_path):
        # 1000/3 Hz is not a float32: the file holds it rounded
        rng = np.random.default_rng(4)
        trials = synthetic_trials(two_class_covariances(4, rng=rng), 3, 128, 1000.0 / 3.0,
                                  rng=rng)
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), trials)
        save_trials(trials, tmp_path / "d.eegb")
        stored = load_trials(tmp_path / "d.eegb")
        assert stored.sample_rate_hz != trials.sample_rate_hz
        assert bench_inference(bundle, stored)["samples"] == len(trials.trials)

    @pytest.mark.parametrize("rate", [250.1, 1000.0 / 3.0])
    def test_holdout_compares_rates_as_eegb_stores_them(self, tmp_path, rate):
        # neither rate is a float32: the file holds it rounded, and the
        # two sets are at the same rate as EEGB stores it
        rng = np.random.default_rng(4)
        trials = synthetic_trials(two_class_covariances(4, rng=rng), 3, 128, rate, rng=rng)
        save_trials(trials, tmp_path / "d.eegb")
        stored = load_trials(tmp_path / "d.eegb")
        assert stored.sample_rate_hz != trials.sample_rate_hz
        report = evaluate_holdout(TrainConfig(**{**SMALL, "epochs": 0}), trials, stored)
        assert report.confusion.sum() == len(trials.trials)

    def test_rates_that_differ_as_float32_are_refused_everywhere(self, small_trials):
        cfg = TrainConfig(**{**SMALL, "epochs": 0})
        bundle = train_to_bundle(cfg, small_trials)
        faster = dataclasses.replace(small_trials, sample_rate_hz=500.0)
        with pytest.raises(SchemaMismatch, match="sample rates differ"):
            evaluate_holdout(cfg, small_trials, faster)
        with pytest.raises(SchemaMismatch, match="trained at 250.0 Hz, trials are at 500.0 Hz"):
            bench_inference(bundle, faster)

    def test_bundle_config_without_bands_raises_typed_error(self, small_trials):
        """A model trained on nine bands shifted by 1 Hz has the default
        bank's band count, so a snapshot without ``bands`` would run it on
        the default 4-40 Hz bank; it fails on load instead."""
        shifted = tuple((lo + 1.0, hi + 1.0) for lo, hi in filterbank_module.DEFAULT_BANDS)
        cfg = TrainConfig(**{**SMALL, "epochs": 0, "bands": shifted})
        bundle = train_to_bundle(cfg, small_trials)
        assert bench_inference(bundle, small_trials)["samples"] == len(small_trials.trials)
        config = {key: value for key, value in bundle.config.items() if key != "bands"}
        with pytest.raises(MalformedHeader, match=r"lacks the keys \['bands'\]"):
            bench_inference(dataclasses.replace(bundle, config=config), small_trials)

    def test_bundle_holds_exactly_the_model_arrays(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        bundle = model_to_bundle(model, config_to_mapping(cfg))
        assert list(bundle.arrays) == [
            "head_1", "bimap_0", "clf_kernel", "clf_bias", "clf_w1",
            "clf_w2", "clf_head_w", "clf_head_b", "rbn_mean_0", "selection", "sample_rate",
        ]
        assert bundle.arrays.keys() == {**model.parameter_arrays(),
                                        **model.buffer_arrays()}.keys()
        assert bundle.arrays["sample_rate"].tolist() == [small_trials.sample_rate_hz]
        assert model_from_bundle(bundle).sample_rate == small_trials.sample_rate_hz

    def test_reloaded_model_keeps_selection_and_parameter_count(self, small_trials):
        """The bundle's ``selection`` mask gives the fitted channels back,
        and the K-1 trained heads are m x m."""
        cfg = TrainConfig(**SMALL)
        covs, labels = prepare_dataset(small_trials, cfg)
        picks = select_channels(cfg, class_band_representatives(covs, labels)).selected_channels
        model, _ = train(cfg, small_trials, dataset=(covs, labels))
        bundle = model_to_bundle(model, config_to_mapping(cfg))
        assert bundle.arrays["selection"].tolist() == [
            float(c in picks) for c in range(small_trials.channels)]
        reloaded = model_from_bundle(bundle)
        assert reloaded.channels.tolist() == picks
        assert reloaded.heads.weights.shape == (cfg.k_heads - 1, cfg.m, cfg.m)
        assert count_parameters(reloaded) == count_parameters(model)
        assert np.array_equal(reloaded.forward(covs, training=False),
                              model.forward(covs, training=False))

    def test_parameter_count_matches_shape_arithmetic(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        s, f, m, k, c_out, n_cls = 2, 2, 2, 2, 3, 2
        expected = (
            (k - 1) * m * m                   # MBT heads 1..K-1
            + m * m                           # BiMap
            + c_out * s * (k * m * m)         # conv kernel
            + c_out                           # conv bias
            + f * (f // 2) + (f // 2) * f     # gate bottleneck
            + f * c_out * n_cls + n_cls       # linear head
        )
        assert count_parameters(model) == expected


def _assert_step_bit_identical(original, reloaded, covs, labels, cfg):
    """One training step on each model leaves every array bit-identical."""
    for model in (original, reloaded):
        logits = model.forward(covs, training=True)
        _, grad = cross_entropy(logits, labels)
        model.backward(grad)
        model.step(cfg.learning_rate)
    for name, arr in {**original.parameter_arrays(), **original.buffer_arrays()}.items():
        other = {**reloaded.parameter_arrays(), **reloaded.buffer_arrays()}[name]
        assert arr.tobytes() == other.tobytes(), name


def _assert_logits_close(got, want, rtol=1e-10):
    """The benchmark's logit check: max abs error within rtol of the scale."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def _channels(rng, big_m, m):
    """m of ``big_m`` channels drawn from ``rng``, ascending."""
    return np.sort(rng.choice(big_m, m, replace=False))


def _fresh_model(rng, big_m=4, m=2, k=2, s=2, f=2, c_out=3, n_cls=2, seed=0):
    return Model(_channels(rng, big_m, m), big_m, n_windows=s, n_bands=f, n_classes=n_cls,
                 k_heads=k, conv_out=c_out, seed=seed, sample_rate=250.0)


class TestFoldedPlan:
    """Eval-mode ``Model.forward`` runs the folded plan: one congruence,
    one ``eigh`` and one folded kernel, rebuilt when the model changes."""

    def test_fresh_model_matches_layered_oracle(self, rng):
        model = _fresh_model(rng)
        covs = pack(random_spd(rng, 4, batch=5 * 2 * 2).reshape(5, 2, 2, 4, 4))
        _assert_logits_close(model.forward(covs, training=False),
                             layered_eval_forward(model, covs))

    def test_trained_model_matches_layered_oracle(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, _ = prepare_dataset(small_trials, cfg)
        want = layered_eval_forward(model, covs)
        got = model.forward(covs, training=False)
        _assert_logits_close(got, want)
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    def test_training_forward_is_the_folded_plan_after_train(self):
        """The RBN mean is fitted once and never moves, so after training
        the training forward and the folded plan are one function.  Runs
        at the train-c5 benchmark shape: criterion 5's class covariances,
        200 trials per class, the default config at 10 epochs, scored on
        100 held-out trials per class."""
        geometry = two_class_covariances(8, planted=[1, 3, 5], separation=2.0,
                                         rng=np.random.default_rng(55))
        rng = np.random.default_rng(301)
        fit_set = synthetic_trials(geometry, 200, 250, 250.0, rng=rng)
        held_out = synthetic_trials(geometry, 100, 250, 250.0, rng=rng)
        cfg = TrainConfig(epochs=10)
        model, _ = train(cfg, fit_set)
        covs, _ = prepare_dataset(held_out, cfg)
        _assert_logits_close(model.forward(covs, training=True),
                             model.forward(covs, training=False))

    def test_clamping_reeig_floor_matches_layered_oracle(self, rng):
        """The selected block of each covariance spans 1e-7..10, and the
        rest is the identity, so the cut reaches ReEig's floor."""
        model = _fresh_model(rng)
        u = np.linalg.qr(rng.standard_normal((20, 2, 2)))[0]
        spectrum = np.geomspace(1e-7, 10.0, 2) * rng.uniform(0.5, 2.0, (20, 2))
        covs = np.tile(np.eye(4), (5, 2, 2, 1, 1))
        ch = model.channels
        covs[..., ch[:, None], ch] = (
            (u * spectrum[:, None, :]) @ np.swapaxes(u, -1, -2)).reshape(5, 2, 2, 2, 2)
        covs = pack(covs)
        whitened = eval_whitened(model, covs)
        assert np.mean(np.linalg.eigvalsh(whitened) < model.reeig.epsilon) > 0.2
        _assert_logits_close(model.forward(covs, training=False),
                             layered_eval_forward(model, covs))

    def test_single_trial_logits_equal_batched(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, _ = prepare_dataset(small_trials, cfg)
        batched = model.forward(covs, training=False)
        single = np.concatenate([model.forward(covs[k : k + 1], training=False)
                                 for k in range(len(covs))])
        _assert_logits_close(single, batched)

    def test_training_step_rebuilds_the_plan(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, labels = prepare_dataset(small_trials, cfg)

        def fresh():
            bundle = model_to_bundle(model, config_to_mapping(cfg))
            return model_from_bundle(bundle).forward(covs, training=False)

        model.forward(covs, training=False)
        logits = model.forward(covs[:8], training=True)
        model.backward(cross_entropy(logits, labels[:8])[1])  # neither moves a weight
        assert np.array_equal(model.forward(covs, training=False), fresh())
        model.step(cfg.learning_rate)  # moves the weights
        assert np.array_equal(model.forward(covs, training=False), fresh())

    def test_backward_after_an_eval_forward_raises_typed_error(self, small_trials):
        """An eval forward between a training forward and its backward
        drops the classifier's cache, so the backward fails typed instead
        of mixing the eval batch with the training one."""
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, labels = prepare_dataset(small_trials, cfg)
        logits = model.forward(covs[:8], training=True)
        model.forward(covs[:8], training=False)
        with pytest.raises(MissingForwardCache):
            model.backward(cross_entropy(logits, labels[:8])[1])

    def test_fit_reference_rebuilds_the_plan(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, labels = prepare_dataset(small_trials, cfg)
        before = model.forward(covs, training=False)
        reps = class_band_representatives(covs[:8], labels[:8])
        model.fit_reference(reps)
        w = model.bimap.weight
        assert np.array_equal(model.rbn.mean, karcher_mean(w @ model.cut(pack(reps)) @ w.T))
        bundle = model_to_bundle(model, config_to_mapping(cfg))
        after = model.forward(covs, training=False)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, model_from_bundle(bundle).forward(covs, training=False))

    def test_eigh_budget(self, small_trials, eigh_calls):
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, labels = prepare_dataset(small_trials, cfg)
        b, s, f = 5, *covs.shape[1:3]
        # The plan reuses the whitener RBN computed when its mean was
        # fitted, so building it decomposes only the batch.
        eigh_calls.clear()
        model.forward(covs[:b], training=False)
        assert eigh_calls == [b * s * f]
        eigh_calls.clear()
        model.forward(covs[:b], training=False)
        assert eigh_calls == [b * s * f]
        # One training step: ReEig alone; RBN whitens by its cached
        # whitener and LogEig reuses ReEig's decomposition, so the batch
        # is decomposed once.
        eigh_calls.clear()
        logits = model.forward(covs[:8], training=True)
        model.backward(cross_entropy(logits, labels[:8])[1])
        model.step(cfg.learning_rate)
        assert eigh_calls == [8 * s * f]

    @pytest.mark.parametrize("name, factor, error", [
        ("clf_kernel", np.nan, MalformedHeader),
        ("clf_head_b", np.inf, MalformedHeader),
        ("bimap_0", 0.0, MalformedHeader),
        ("head_1", 2.0, MalformedHeader),
        ("rbn_mean_0", np.nan, MalformedHeader),
        ("rbn_mean_0", -1.0, NotPositiveDefinite),
        ("sample_rate", 0.0, MalformedHeader),
        ("sample_rate", -1.0, MalformedHeader),
        ("sample_rate", np.nan, MalformedHeader),
        ("sample_rate", np.inf, MalformedHeader),
        # 250 Hz times these is 1e300 and 1e-300 Hz: positive, but with no
        # finite and positive float32 for EEGB to store
        ("sample_rate", 4e297, MalformedHeader),
        ("sample_rate", 4e-303, MalformedHeader),
    ])
    def test_bundle_that_would_mispredict_raises_typed_error(
        self, small_trials, name, factor, error
    ):
        bundle = train_to_bundle(TrainConfig(**SMALL), small_trials)
        arrays = {**bundle.arrays, name: factor * bundle.arrays[name]}
        with pytest.raises(error, match=name):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))


    @pytest.mark.parametrize("name, shape", [
        ("head_1", (4, 3)), ("bimap_0", (3, 3)), ("rbn_mean_0", (3, 3)),
    ])
    def test_bundle_array_of_wrong_shape_raises_typed_error(self, small_trials, name, shape):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        arrays = {**bundle.arrays, name: np.eye(*shape)}
        with pytest.raises(MalformedHeader, match=name):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    @pytest.mark.parametrize("name, shape", [
        ("clf_kernel", (3, 8)),
        pytest.param("selection", (), id="selection-0d"),
        pytest.param("selection", (2, 4), id="selection-2x4"),
        ("clf_w1", ()),
        ("clf_head_b", ()),
    ])
    def test_bundle_array_of_wrong_rank_raises_typed_error(self, small_trials, name, shape):
        """Sizes are read from some arrays before the model exists, so a
        wrong rank there must fail typed, not as an unpack or index error."""
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        arrays = {**bundle.arrays, name: np.ones(shape)}
        with pytest.raises(MalformedHeader, match=name):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    @pytest.mark.parametrize("name, shape", [
        ("sel_W_hat", (4, 2)),
        ("sel_channels", (2,)),
        ("sel_L", (4, 4)),
        ("sel_trace", (3,)),
        ("junk", (1,)),
    ])
    def test_bundle_with_an_extra_array_raises_typed_error(self, small_trials, name, shape):
        """A bundle must hold exactly the model's arrays; the selection
        transform's own arrays (``sel_*``) are not among them."""
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        arrays = {**bundle.arrays, name: np.ones(shape)}
        with pytest.raises(MalformedHeader, match=f"unexpected.*{name}"):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))

    @pytest.mark.parametrize("name, shape", [
        ("head_1", (4, 0)),
        ("bimap_0", (0, 0)),
        ("rbn_mean_0", (0, 0)),
        ("clf_kernel", (3, 0, 8)),
    ])
    def test_bundle_array_with_a_zero_length_axis_raises_typed_error(
        self, small_trials, name, shape
    ):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        arrays = {**bundle.arrays, name: np.ones(shape)}
        with pytest.raises(MalformedHeader, match=f"{name}.*zero-length"):
            model_from_bundle(dataclasses.replace(bundle, arrays=arrays))


class TestStep:
    """``Model.step`` applies the pending gradients: plain descent on the
    classifier, and a Stiefel step on the heads' columns and BiMap's rows."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_step_matches_per_part_oracle(self, rng, k):
        """Three forward/backward/step rounds leave every parameter where
        the per-part oracle leaves it, bit for bit, and keep the BiMap rows
        and head columns orthonormal; a step with no pending gradient
        changes nothing."""
        channels = _channels(rng, 6, 4)
        model, oracle = (Model(channels, 6, n_windows=2, n_bands=3, n_classes=3, k_heads=k,
                               conv_out=5, seed=9, sample_rate=250.0) for _ in range(2))
        heads_0 = model.heads.weights.copy()
        for _ in range(3):
            covs = pack(random_spd(rng, 6, batch=8 * 2 * 3).reshape(8, 2, 3, 6, 6))
            labels = rng.integers(0, 3, 8)
            for net in (model, oracle):
                net.backward(cross_entropy(net.forward(covs, training=True), labels)[1])
            model.step(0.1)
            per_part_step(oracle, 0.1)
            want = oracle.parameter_arrays()
            for name, arr in model.parameter_arrays().items():
                assert arr.tobytes() == want[name].tobytes(), name
        assert k == 1 or not np.allclose(model.heads.weights, heads_0)
        w = model.bimap.weight
        assert np.max(np.abs(w @ w.T - np.eye(4))) < 1e-12
        for w in model.heads.weights:
            assert np.max(np.abs(w.T @ w - np.eye(4))) < 1e-12
        model.step(0.1)
        for name, arr in model.parameter_arrays().items():
            assert arr.tobytes() == want[name].tobytes(), name

    def test_backward_runs_the_bimap_layers_backward(self, rng, monkeypatch):
        """``Model.backward`` ends in ``BiMapLayer.backward``, once per
        step, on the gradient RBN passes down: the benchmark's traced
        train-c5 run expects that layer's span, and its input gradient is
        the one the gradient battery checks."""
        model = _fresh_model(rng, k=2)
        covs = pack(random_spd(rng, 4, batch=5 * 2 * 2).reshape(5, 2, 2, 4, 4))
        calls = []
        real = BiMapLayer.backward

        def recording(layer, grad):
            calls.append((layer, grad.shape))
            return real(layer, grad)

        monkeypatch.setattr(BiMapLayer, "backward", recording)
        for _ in range(2):
            logits = model.forward(covs, training=True)
            model.backward(cross_entropy(logits, rng.integers(0, 2, 5))[1])
            model.step(0.1)
        assert calls == [(model.bimap, (5 * 2 * 2, 2, 2))] * 2

    def test_one_head_step_runs_no_qr_on_the_empty_head_stack(self, rng, monkeypatch):
        model = _fresh_model(rng, k=1)
        covs = pack(random_spd(rng, 4, batch=5 * 2 * 2).reshape(5, 2, 2, 4, 4))
        logits = model.forward(covs, training=True)
        model.backward(cross_entropy(logits, rng.integers(0, 2, 5))[1])
        shapes = []
        real = np.linalg.qr

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        model.step(0.1)
        assert shapes == [(2, 2)]  # BiMap's alone
        assert model.heads.weights.shape == (0, 2, 2)


def _bundle_with_selection(small_trials, selection):
    bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
    return dataclasses.replace(bundle, arrays={**bundle.arrays, "selection": selection})


class TestChannelCut:
    """The model runs on the m selected channels: the chain and the heads
    at m x m, with the cut folded into the inference congruence."""

    @pytest.mark.parametrize("selection, message", [
        (np.array([2.0, 0.0, 1.0, 0.0]), "other than 0 or 1"),
        (np.array([1.0, 0.0, 0.5, 0.0]), "other than 0 or 1"),
        (np.zeros(4), "selects 0 channels"),
        (np.array([1.0, 1.0, 1.0, 0.0]), "selects 3 channels"),
        (np.eye(4)[:, [0, 2]], "2 dimensions, expected 1"),
    ], ids=["entry-two", "entry-half", "all-zeros", "count-above-m", "one-hot"])
    def test_bad_selection_raises_typed_error(self, small_trials, selection, message):
        """The (M,) mask holds 0s and 1s, config ``m`` of them 1s; the
        (M, m) one-hot of the older format fails on its rank."""
        with pytest.raises(MalformedHeader, match=f"'selection'.*{message}"):
            model_from_bundle(_bundle_with_selection(small_trials, selection))

    def test_output_ignores_unselected_channels(self, small_trials):
        """Rows and columns of the channels left out are never read: a
        congruence that rewrites them, keeping every matrix SPD, leaves the
        training and eval logits bit for bit."""
        cfg = TrainConfig(**SMALL)
        model, _ = train(cfg, small_trials)
        covs, _ = prepare_dataset(small_trials, cfg)
        rest = np.setdiff1d(np.arange(small_trials.channels), model.channels)
        assert rest.size > 0
        t = np.eye(small_trials.channels)
        t[rest] = np.random.default_rng(5).standard_normal((rest.size, t.shape[1]))
        perturbed = t @ unpack(covs) @ t.T
        assert np.all(np.linalg.eigvalsh(perturbed) > 0)
        perturbed = pack(perturbed)
        assert not np.allclose(perturbed, covs)
        for training in (False, True):
            assert np.array_equal(model.forward(perturbed, training=training),
                                  model.forward(covs, training=training))

    def test_fresh_multi_head_model_is_the_one_head_model(self, rng):
        """Heads 1..K-1 start with zero kernel slices, and every other
        weight is drawn before them, so a fresh K=4 model computes
        exactly what the K=1 model of the same seed and selection does.
        Runs at the train-c5 shape and batch: 8 channels, m=5, 2 windows,
        9 bands and the default 64 conv outputs."""
        channels = _channels(rng, 8, 5)
        covs = pack(random_spd(rng, 8, batch=64 * 2 * 9).reshape(64, 2, 9, 8, 8))
        one, four = (Model(channels, 8, n_windows=2, n_bands=9, n_classes=2, k_heads=k,
                           conv_out=64, seed=7, sample_rate=250.0) for k in (1, 4))
        assert np.array_equal(four.bimap.weight, one.bimap.weight)
        for training in (False, True):
            assert np.array_equal(four.forward(covs, training=training),
                                  one.forward(covs, training=training))

    @pytest.mark.parametrize("batch, conv_out, m, big_m, s, f", [
        (1, 64, 5, 8, 2, 9), (1, 3, 2, 4, 2, 2), (2, 3, 5, 8, 2, 9), (3, 4, 3, 6, 1, 3),
        (5, 7, 5, 8, 2, 9), (8, 8, 4, 8, 3, 4), (16, 16, 5, 8, 2, 9), (64, 3, 5, 8, 2, 9),
        (64, 12, 5, 8, 2, 9), (7, 5, 2, 3, 4, 5), (32, 64, 3, 8, 2, 9),
    ])
    def test_fresh_multi_head_training_logits_equal_one_head_bit_for_bit(
        self, batch, conv_out, m, big_m, s, f
    ):
        """The fold of a fresh K=4 kernel is its head-0 slice exactly, so
        the K=4 and K=1 training logits agree bit for bit at any shape,
        batch 1 and small conv widths included."""
        rng = np.random.default_rng(batch * 1000 + conv_out)
        channels = _channels(rng, big_m, m)
        covs = random_spd(rng, big_m, batch=batch * s * f)
        covs = pack(covs.reshape(batch, s, f, big_m, big_m))
        one, four = (Model(channels, big_m, n_windows=s, n_bands=f, n_classes=3, k_heads=k,
                           conv_out=conv_out, seed=11, sample_rate=250.0) for k in (1, 4))
        assert (four.forward(covs, training=True).tobytes()
                == one.forward(covs, training=True).tobytes())

    def test_online_shape_model_beats_chance(self):
        """online-1trial's setup model, criterion 5's geometry with 30
        trials per class and 2 epochs, clears a floor on held-out
        accuracy over the benchmark's seeds 301-310 (measured mean
        0.6185; 0.5485 with the chain at M x M)."""
        geometry = two_class_covariances(8, planted=[1, 3, 5], separation=2.0,
                                         rng=np.random.default_rng(55))
        cfg = TrainConfig(epochs=2)
        accuracies = []
        for seed in range(301, 311):
            rng = np.random.default_rng(seed)
            fit_set = synthetic_trials(geometry, 30, 250, 250.0, rng=rng)
            held_out = synthetic_trials(geometry, 100, 250, 250.0, rng=rng)
            model, _ = train(cfg, fit_set)
            covs, labels = prepare_dataset(held_out, cfg)
            accuracies.append(float(np.mean(predict(model, covs) == labels)))
        assert np.mean(accuracies) >= ONLINE_ACCURACY_FLOOR, accuracies


class TestPackedShapes:
    """``Model.forward`` and ``class_band_representatives`` take packed
    covariance rows (N, S, F, M(M + 1)/2), and any other tensor fails
    typed, before an entry is read."""

    @pytest.mark.parametrize("shape", [
        (1, 2, 2, 3, 4),  # rank 5, whose (S, F, M) prefix looks like the model's
        (1, 2, 2, 3, 3),  # full matrices
        (1, 2, 2, 9),     # the full 3 * 3 entries in one row
        (1, 2, 2, 5),     # a width that no M gives
        (1, 2, 2, 10),    # packed rows of 4 channels
        (1, 3, 2, 6),     # another window count
        (1, 2, 1, 6),     # another band count
        (2, 2, 6),        # no band axis
        (6,),
    ])
    @pytest.mark.parametrize("training", [True, False])
    def test_forward_on_a_malformed_tensor_raises_typed_error(self, rng, shape, training):
        model = _fresh_model(rng, big_m=3)
        with pytest.raises(ShapeMismatch, match=r"\(B, 2, 2, 6\): packed rows of 3 channels"):
            model.forward(np.ones(shape), training=training)
        assert model.forward(pack(random_spd(rng, 3, batch=4).reshape(1, 2, 2, 3, 3)),
                             training=training).shape == (1, 2)

    @pytest.mark.parametrize("shape", [(4, 2, 2, 5), (4, 2, 2, 9), (4, 2, 2, 3, 3), (4, 2, 6)])
    def test_representatives_of_a_malformed_tensor_raise_typed_error(self, shape):
        with pytest.raises(ShapeMismatch):
            class_band_representatives(np.ones(shape), np.array([0, 1, 0, 1]))


class TestPrepareDataset:
    @pytest.mark.parametrize("options", [SMALL, {"window_len": 64}],
                             ids=["small", "default-bank"])
    def test_equals_per_window_reference(self, small_trials, options):
        cfg = TrainConfig(**options)
        covs, labels = prepare_dataset(small_trials, cfg)
        assert covs.shape == (24, 2, len(cfg.bands), 10)
        assert np.array_equal(unpack(covs), per_window_covariances(small_trials, cfg))
        assert labels.tolist() == [label for label, _ in small_trials.trials]

    def test_each_trial_equals_its_slice_of_the_batch(self, small_trials):
        cfg = TrainConfig(**SMALL)
        covs, _ = prepare_dataset(small_trials, cfg)
        for k, item in enumerate(small_trials.trials):
            single = dataclasses.replace(small_trials, trials=[item])
            one, label = prepare_dataset(single, cfg)
            assert np.array_equal(one, covs[k : k + 1])
            assert label.tolist() == [item[0]]

    def test_dc_offset_windows_are_centred(self):
        """A DC-coupled amplifier's offset, 10 mV on 10 uV of noise, gets
        through the bank's -40 dB stopband, so the windows after each
        band's step transient carry a row mean far above their spread:
        they take ``covariance``'s centring path, and every covariance
        matches centring each window first, then ``Z Z^T / L`` and the
        shrinkage, to 1e-12 of its largest entry."""
        rng = np.random.default_rng(11)
        trials = RawTrialSet(250.0, 8, 1000, [
            (k % 2, (0.01 + 1e-5 * rng.standard_normal((8, 1000))).astype(np.float32))
            for k in range(4)
        ], 2)
        cfg = TrainConfig()
        covs, _ = prepare_dataset(trials, cfg)
        windows = np.stack([w for _, w in segment(trials, cfg.band_spec(), cfg.window_len)])
        mean = windows.mean(axis=-1, keepdims=True)
        z = windows - mean
        oracle = z @ np.swapaxes(z, -1, -2) / cfg.window_len
        var = np.diagonal(oracle, axis1=-2, axis2=-1)
        m = oracle.shape[-1]
        eps = np.maximum(SHRINKAGE_SCALE * var.sum(axis=-1) / m, 1e-12)
        oracle += np.eye(m) * eps[..., None, None]
        assert np.any(mean[..., 0] ** 2 > FOLD_RATIO * var)
        err = np.max(np.abs(unpack(covs) - oracle), axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.max(np.abs(oracle), axis=(-2, -1)))

    @pytest.mark.parametrize("m", [1, 2, 8, 22, 64])
    @pytest.mark.parametrize("blocks", ["one-trial", "multi-trial", "pipelined"])
    def test_unpacked_rows_are_the_per_window_covariances(self, monkeypatch, m, blocks):
        """The packed rows of a one-trial set, of blocks of three trials,
        and of one-trial blocks pipelined over two threads, unpacked, are
        bit for bit the 2-D covariances of the windows each block was
        filtered into, and of each trial filtered alone
        (``per_window_covariances``), at every channel count, one
        included.  Trial 0 carries a DC offset, so about half its
        windows, those after each band's step transient, take
        ``covariance``'s centring path."""
        rng = np.random.default_rng(m)
        n = 1 if blocks == "one-trial" else 4
        data = [1e-5 * rng.standard_normal((m, 1000)) for _ in range(n)]
        data[0] += 0.01
        trials = RawTrialSet(250.0, m, 1000, [(k % 2, x.astype(np.float32))
                                             for k, x in enumerate(data)], 2)
        cfg = TrainConfig()
        trial_bytes = 8 * 8 * 9 * m * 125
        if blocks == "multi-trial":
            monkeypatch.setattr(trainer_module, "BLOCK_BYTES", 3 * trial_bytes + 7)
        if blocks == "pipelined":
            monkeypatch.setattr(trainer_module, "BLOCK_BYTES", trial_bytes)
            monkeypatch.setattr(trainer_module, "_cpu_count", lambda: 2)
            monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _CountingPool)
            monkeypatch.setattr(_CountingPool, "asked", [])
        windows = []

        def keeping(padded):
            windows.extend(padded[..., :m, :].copy())  # the buffer is reused
            return covariance(padded)

        monkeypatch.setattr(trainer_module, "covariance", keeping)
        covs, _ = prepare_dataset(trials, cfg)
        assert covs.shape == (n, 8, 9, m * (m + 1) // 2)
        oracle = np.array([[[unpack(covariance(pad(w))) for w in band] for band in trial]
                           for trial in windows])
        assert oracle.shape == (n, 8, 9, m, m)
        assert unpack(covs).tobytes() == oracle.tobytes()
        assert unpack(covs).tobytes() == per_window_covariances(trials, cfg).tobytes()
        if blocks == "pipelined":
            assert _CountingPool.asked == [1]

    def test_empty_trial_set(self, small_trials):
        empty = dataclasses.replace(small_trials, trials=[])
        with pytest.raises(InsufficientData):
            prepare_dataset(empty, TrainConfig(**SMALL))


class _BlockCalls(list):
    """One entry per call, holding the number of trials in the block;
    ``inputs`` holds each call's (..., M + 1, L) array."""

    def __init__(self):
        super().__init__()
        self.inputs = []


@pytest.fixture
def covariance_blocks(monkeypatch):
    """Count ``prepare_dataset``'s ``covariance`` calls, forwarding the
    padded buffer."""
    calls = _BlockCalls()

    def counting(padded):
        calls.append(np.shape(padded)[0])
        calls.inputs.append(padded)
        return covariance(padded)

    monkeypatch.setattr(trainer_module, "covariance", counting)
    return calls


def _c5_shaped_trials(trials_per_class, seed=7):
    """Trials of the criterion-5 shape: 8 channels, 250 samples at 250 Hz."""
    rng = np.random.default_rng(seed)
    covs = two_class_covariances(8, planted=[1, 3, 5], separation=2.0, rng=rng)
    return synthetic_trials(covs, trials_per_class, 250, 250.0, rng=rng)


class TestPrepareBlocks:
    """``prepare_dataset`` filters and takes covariances one block of
    trials at a time, ``max(1, BLOCK_BYTES // trial window bytes)``
    trials per block, and no trial's result depends on its block."""

    def test_filter_and_covariance_call_budget(self, kernel_calls, covariance_blocks):
        # Default bank: 9 bands, 2 windows of 125 samples, 8 channels, so
        # one trial's windows take 144 kB and a 1 MiB block holds 7.
        trials = _c5_shaped_trials(10)
        cfg = TrainConfig()
        covs, _ = prepare_dataset(trials, cfg)
        assert covariance_blocks == [7, 7, 6]
        # every block's windows are the first 8 of 9 rows of the one
        # buffer they were filtered into
        assert all(x.shape[-2:] == (9, 125) for x in covariance_blocks.inputs)
        assert all(np.shares_memory(x, covariance_blocks.inputs[0])
                   for x in covariance_blocks.inputs)
        assert kernel_calls == [(7, 8, 250), (7, 8, 250), (6, 8, 250)]
        # a block of several trials is stacked into an array of its own
        assert not any(np.shares_memory(x, data) for x in kernel_calls.inputs
                       for _, data in trials.trials)
        assert np.array_equal(unpack(covs), per_window_covariances(trials, cfg))
        for k, item in enumerate(trials.trials):
            one, _ = prepare_dataset(dataclasses.replace(trials, trials=[item]), cfg)
            assert np.array_equal(one, covs[k : k + 1])

    def test_single_trial_is_one_block(self, kernel_calls, covariance_blocks):
        trials = _c5_shaped_trials(10)
        prepare_dataset(dataclasses.replace(trials, trials=trials.trials[:1]), TrainConfig())
        assert kernel_calls == [(1, 8, 250)]
        assert covariance_blocks == [1]
        # the kernel reads a lone trial where it is, with no copy
        assert np.shares_memory(kernel_calls.inputs[0], trials.trials[0][1])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_single_trial_of_any_layout_gives_the_bits_of_its_block(
            self, kernel_calls, layout):
        """A lone C-ordered, Fortran-ordered or every-other-column trial
        is filtered where it is, and gives the windows and covariances
        the same trial gets inside a block of seven."""
        trials = _c5_shaped_trials(4)
        cfg = TrainConfig()
        block = dataclasses.replace(trials, trials=trials.trials[:7])
        covs, _ = prepare_dataset(block, cfg)
        windows = segment(block, cfg.band_spec(), cfg.window_len)
        assert kernel_calls[:2] == [(7, 8, 250), (7, 8, 250)]
        for k, (label, data) in enumerate(block.trials):
            if layout == "F":
                data = np.asfortranarray(data)
            elif layout == "strided":
                wide = np.zeros((data.shape[0], 2 * data.shape[1]))
                wide[:, ::2] = data
                data = wide[:, ::2]
            one = dataclasses.replace(block, trials=[(label, data)])
            calls = len(kernel_calls)
            [(_, own)] = segment(one, cfg.band_spec(), cfg.window_len)
            assert own.tobytes() == windows[k][1].tobytes()
            assert prepare_dataset(one, cfg)[0].tobytes() == covs[k : k + 1].tobytes()
            assert kernel_calls[calls:] == [(1, 8, 250)] * 2
            assert all(np.shares_memory(x, data) for x in kernel_calls.inputs[calls:])

    @pytest.mark.parametrize("per_block", [1, 5, 23, 24, 25])
    def test_blocks_match_reference_and_single_trials(self, small_trials, monkeypatch,
                                                      kernel_calls, covariance_blocks,
                                                      per_block):
        cfg = TrainConfig(**SMALL)
        # One SMALL trial's windows: 2 windows x 2 bands x 4 channels x 64 samples.
        trial_bytes = 8 * 2 * 2 * 4 * 64
        monkeypatch.setattr(trainer_module, "BLOCK_BYTES", per_block * trial_bytes + 7)
        covs, labels = prepare_dataset(small_trials, cfg)
        n = len(small_trials.trials)
        sizes = [min(per_block, n - start) for start in range(0, n, per_block)]
        assert covariance_blocks == sizes
        assert kernel_calls == [(size, 4, 128) for size in sizes]
        assert np.array_equal(unpack(covs), per_window_covariances(small_trials, cfg))
        assert labels.tolist() == [label for label, _ in small_trials.trials]
        for k, item in enumerate(small_trials.trials):
            one, _ = prepare_dataset(dataclasses.replace(small_trials, trials=[item]), cfg)
            assert np.array_equal(one, covs[k : k + 1])

    def test_multi_trial_blocks_at_the_22_channel_shape(self, monkeypatch, kernel_calls,
                                                        covariance_blocks):
        # 22 channels at 500 Hz, 8 windows of 250 samples: 7 full blocks
        # of 32 and a last block of 26 a window.  Three trials a block
        # put trials of both classes into the kernel's rows together.
        rng = np.random.default_rng(11)
        covs22 = two_class_covariances(22, planted=[0, 4, 9, 13, 20], rng=rng)
        trials = synthetic_trials(covs22, 4, 2000, 500.0, rng=rng)
        cfg = TrainConfig(window_len=250)
        monkeypatch.setattr(trainer_module, "BLOCK_BYTES", 3 * 8 * 8 * 9 * 22 * 250 + 7)
        covs, _ = prepare_dataset(trials, cfg)
        assert covariance_blocks == [3, 3, 2]
        assert kernel_calls == [(3, 22, 2000), (3, 22, 2000), (2, 22, 2000)]
        assert np.array_equal(unpack(covs), per_window_covariances(trials, cfg))
        for k, item in enumerate(trials.trials):
            one, _ = prepare_dataset(dataclasses.replace(trials, trials=[item]), cfg)
            assert np.array_equal(one, covs[k : k + 1])

    @pytest.mark.parametrize("n_trials", [1, 8], ids=["one-trial", "three-blocks"])
    def test_float32_trials_give_the_bits_of_their_float64_values(
            self, monkeypatch, kernel_calls, n_trials):
        """The kernel copies the samples into its float64 buffers, which
        is exact, so the float32 trials that EEGB files and
        ``synthetic_trials`` hold prepare to the bits of the same values
        in float64; a block of several float32 trials is stacked as
        float32."""
        rng = np.random.default_rng(13)
        covs22 = two_class_covariances(22, planted=[1, 6, 12, 17, 21], rng=rng)
        narrow = synthetic_trials(covs22, 4, 2000, 500.0, rng=rng)
        narrow = dataclasses.replace(narrow, trials=narrow.trials[:n_trials])
        wide = dataclasses.replace(narrow, trials=[(label, data.astype(np.float64))
                                                   for label, data in narrow.trials])
        cfg = TrainConfig(window_len=250)
        monkeypatch.setattr(trainer_module, "BLOCK_BYTES", 3 * 8 * 8 * 9 * 22 * 250 + 7)
        narrow_covs, narrow_labels = prepare_dataset(narrow, cfg)
        blocks = len(kernel_calls)
        wide_covs, wide_labels = prepare_dataset(wide, cfg)
        assert blocks == -(-n_trials // 3) and len(kernel_calls) == 2 * blocks
        assert [x.dtype for x in kernel_calls.inputs] == (
            [np.dtype(np.float32)] * blocks + [np.dtype(np.float64)] * blocks)
        assert narrow_covs.tobytes() == wide_covs.tobytes()
        assert narrow_labels.tolist() == wide_labels.tolist()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_few_channel_trials_give_the_bits_of_their_block(self, m):
        """Four 250-sample trials of one to three channels, prepared as one
        block, give each trial's own one-trial run bit for bit: a lone
        one-channel trial's state recurrence rounds as a block's does."""
        rng = np.random.default_rng(5)
        trials = RawTrialSet(250.0, m, 250, [(k % 2, rng.standard_normal((m, 250)).astype(
            np.float32)) for k in range(4)], 2)
        cfg = TrainConfig()
        covs, _ = prepare_dataset(trials, cfg)
        for k, item in enumerate(trials.trials):
            one = dataclasses.replace(trials, trials=[item])
            assert prepare_dataset(one, cfg)[0].tobytes() == covs[k : k + 1].tobytes()
            [(_, own)] = segment(one, cfg.band_spec(), cfg.window_len)
            assert own.tobytes() == segment(trials, cfg.band_spec(), cfg.window_len)[k][1].tobytes()

    def test_window_longer_than_the_trials_raises_typed_error(self, small_trials):
        # 128-sample trials hold no 200-sample window: no block size to
        # divide by, and segment's check must still be the one that fires.
        with pytest.raises(WindowTooLong):
            prepare_dataset(small_trials, TrainConfig(**{**SMALL, "window_len": 200}))

    def test_trial_larger_than_the_budget_is_a_block_of_its_own(self, covariance_blocks):
        # 22 channels at 500 Hz, 8 windows of 250 samples x 9 bands:
        # 3.2 MB of windows per trial, over the 1 MiB budget.
        rng = np.random.default_rng(9)
        covs22 = two_class_covariances(22, planted=[0, 4, 9, 13, 20], rng=rng)
        trials = synthetic_trials(covs22, 2, 2000, 500.0, rng=rng)
        cfg = TrainConfig(window_len=250)
        assert 8 * 8 * 9 * 22 * 250 > trainer_module.BLOCK_BYTES
        covs, _ = prepare_dataset(trials, cfg)
        assert covariance_blocks == [1, 1, 1, 1]
        assert np.array_equal(unpack(covs), per_window_covariances(trials, cfg))


class _InlineExecutor:
    """Stands in for ``ThreadPoolExecutor``: maps its tasks lazily, and
    runs each submitted task at once, in the calling thread, and records
    the worker counts it was asked for."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


class _NoPool:
    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} was made")


def _serial_representatives(covs, labels):
    """The (class, band) Karcher means one after another in the caller,
    of the full matrices of ``covs``' packed rows."""
    full = unpack(covs)
    m = full.shape[-1]
    return np.stack([karcher_mean(full[labels == c, :, f].reshape(-1, m, m))
                     for c in np.unique(labels) for f in range(covs.shape[2])])


class TestRepresentativePool:
    """``class_band_representatives`` runs its (class, band) groups on
    every CPU the process may use, the caller on one of them, and the
    count changes no bit.  At 2 CPUs the caller and one pool thread take
    the groups; at 64 the pool is an inline stand-in, and no thread may
    start."""

    @pytest.fixture(scope="class")
    def dataset(self, small_trials):
        """4 (class, band) groups of 24 windows."""
        return prepare_dataset(small_trials, TrainConfig(**SMALL))

    @staticmethod
    def _use_cpus(monkeypatch, cpus):
        monkeypatch.setattr(trainer_module, "_cpu_count", lambda: cpus)
        if cpus == 64:
            def refuse(thread):
                raise AssertionError(f"thread {thread.name} started")

            monkeypatch.setattr(threading.Thread, "start", refuse)
            monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _InlineExecutor)
            monkeypatch.setattr(_InlineExecutor, "asked", [])

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        """Where ``os`` reports no affinity mask, the machine's count is
        used, and 1 where even that is unknown."""
        monkeypatch.delattr(trainer_module.os, "sched_getaffinity", raising=False)
        # no cgroup file, so no quota: the count is the machine's alone
        monkeypatch.setattr(trainer_module, "_PROC_CGROUP", "/nonexistent/cgroup")
        monkeypatch.setattr(trainer_module.os, "cpu_count", lambda: 3)
        assert trainer_module._cpu_count() == 3
        monkeypatch.setattr(trainer_module.os, "cpu_count", lambda: None)
        assert trainer_module._cpu_count() == 1

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_representatives_do_not_depend_on_the_cpu_count(self, dataset, monkeypatch, cpus):
        covs, labels = dataset
        self._use_cpus(monkeypatch, cpus)
        if cpus == 1:
            monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _NoPool)
        threads_before = threading.active_count()
        reps = class_band_representatives(covs, labels)
        assert reps.tobytes() == _serial_representatives(covs, labels).tobytes()
        assert threading.active_count() == threads_before
        if cpus == 64:
            # one worker per group at most, and the caller is one of them
            assert _InlineExecutor.asked == [min(64, 4) - 1]

    def test_at_two_cpus_the_caller_computes_a_group(self, dataset, monkeypatch):
        """The first two groups meet at a barrier, so two threads compute
        means at once, and the calling thread is one of them."""
        covs, labels = dataset
        self._use_cpus(monkeypatch, 2)
        monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _CountingPool)
        monkeypatch.setattr(_CountingPool, "asked", [])
        idents = []
        barrier = threading.Barrier(2, timeout=10)

        def recording(batch):
            idents.append(threading.get_ident())
            if len(idents) <= 2:
                barrier.wait()
            return karcher_mean(batch)

        monkeypatch.setattr(trainer_module, "karcher_mean", recording)
        reps = class_band_representatives(covs, labels)
        assert reps.tobytes() == _serial_representatives(covs, labels).tobytes()
        assert len(idents) == 4 and len(set(idents[:2])) == 2
        assert threading.get_ident() in idents
        assert _CountingPool.asked == [1]

    @pytest.mark.parametrize("cpus", [2, 3, 4, 64])
    def test_no_more_threads_compute_than_cpus(self, dataset, monkeypatch, cpus):
        """At most ``_cpu_count()`` distinct threads compute means, the
        caller among them, from a pool of one worker fewer than the
        pool rule grants."""
        covs, labels = dataset
        monkeypatch.setattr(trainer_module, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _CountingPool)
        monkeypatch.setattr(_CountingPool, "asked", [])
        idents = []

        def recording(batch):
            idents.append(threading.get_ident())
            return karcher_mean(batch)

        monkeypatch.setattr(trainer_module, "karcher_mean", recording)
        threads_before = threading.active_count()
        reps = class_band_representatives(covs, labels)
        assert threading.active_count() == threads_before
        assert reps.tobytes() == _serial_representatives(covs, labels).tobytes()
        assert len(idents) == 4 and len(set(idents)) <= min(cpus, 4)
        assert _CountingPool.asked == [min(cpus, 4) - 1]

    def test_the_helpers_lower_failing_group_beats_the_callers_higher_one(
            self, dataset, monkeypatch):
        """Groups 0 and 1 meet at a barrier, one in the caller and one on
        the pool thread.  The pool thread's group fails only after the
        caller has failed group 2, its next; the pool thread's lower
        group's error is raised, as the serial loop would raise it, and
        group 3 never starts."""
        covs, labels = dataset
        self._use_cpus(monkeypatch, 2)
        batches = [unpack(covs[labels == c, :, f]).reshape(-1, 4, 4)
                   for c in (0, 1) for f in (0, 1)]
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=10)
        caller_failed = threading.Event()
        started = []

        def mean_or_fail(batch):
            k = next(i for i, b in enumerate(batches) if np.array_equal(batch, b))
            started.append(k)
            if k < 2:
                barrier.wait()
            if threading.get_ident() != caller:
                assert caller_failed.wait(timeout=10)
                raise NotPositiveDefinite(f"pool thread, group {k}")
            if k >= 2:
                caller_failed.set()
                raise NotPositiveDefinite(f"caller, group {k}")
            return karcher_mean(batch)

        monkeypatch.setattr(trainer_module, "karcher_mean", mean_or_fail)
        with pytest.raises(NotPositiveDefinite, match=r"^pool thread, group [01]$"):
            class_band_representatives(covs, labels)
        assert sorted(started) == [0, 1, 2]

    @pytest.mark.parametrize("failing", [(), (37, 90, 91)], ids=["none", "three"])
    def test_ordered_map_under_forced_thread_switches(self, failing):
        """``_ordered_map`` on 8 threads, more than the CPUs, with the
        interpreter switching threads every microsecond: every item
        before the first failure runs exactly once, the results come
        back in order, and the first failing item's error is raised."""
        ran = []

        def double(k):
            ran.append(k)
            if k in failing:
                raise NotPositiveDefinite(f"item {k}")
            return 2 * k

        outcome = {}

        def call():
            try:
                outcome["results"] = trainer_module._ordered_map(double, list(range(200)), 8)
            except NotPositiveDefinite as exc:
                outcome["error"] = str(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=call)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert len(ran) == len(set(ran))
        if failing:
            assert outcome == {"error": f"item {failing[0]}"}
            assert set(range(failing[0])) <= set(ran)
        else:
            assert outcome == {"results": [2 * k for k in range(200)]}
            assert sorted(ran) == list(range(200))

    @staticmethod
    def _spoil(covs, labels, cls, band, how):
        """A copy of ``covs`` whose (cls, band) group is not SPD: one
        member negative definite, or every member, so that the
        arithmetic mean is not positive definite either."""
        covs = covs.copy()
        members = np.flatnonzero(labels == cls)
        for k in members[:1] if how == "member" else members:
            covs[k, :, band] = pack(-1e-6 * np.eye(4))
        return covs

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("cls, band", [(0, 0), (0, 1), (1, 1)])
    def test_a_non_spd_group_raises_in_the_caller(self, dataset, monkeypatch, cpus, cls, band):
        covs, labels = dataset
        self._use_cpus(monkeypatch, cpus)
        spoilt = self._spoil(covs, labels, cls, band, "member")
        threads_before = threading.active_count()
        with pytest.raises(NotPositiveDefinite, match="spd_log input"):
            class_band_representatives(spoilt, labels)
        assert threading.active_count() == threads_before

    def test_the_first_failing_group_sets_the_error(self, dataset, monkeypatch):
        """Group 1 fails only after group 3 has failed on the other
        thread; group 1's error is raised, as the serial loop would
        raise it."""
        covs, labels = dataset
        self._use_cpus(monkeypatch, 2)
        batches = [unpack(covs[labels == c, :, f]).reshape(-1, 4, 4)
                   for c in (0, 1) for f in (0, 1)]
        group_3_failed = threading.Event()

        def mean_or_fail(batch):
            if np.array_equal(batch, batches[1]):
                assert group_3_failed.wait(timeout=30)
                raise NotPositiveDefinite("group 1")
            if np.array_equal(batch, batches[3]):
                group_3_failed.set()
                raise NotPositiveDefinite("group 3")
            return karcher_mean(batch)

        monkeypatch.setattr(trainer_module, "karcher_mean", mean_or_fail)
        with pytest.raises(NotPositiveDefinite, match="group 1"):
            class_band_representatives(covs, labels)

    def test_under_the_benchmark_tracer_the_means_run_in_the_caller(self, dataset, monkeypatch):
        """The benchmark's tracer wraps ``karcher_mean`` and keeps one
        span stack for all threads.  Under it no pool is made, so each
        Karcher span nests in the call's span and closes after it opens,
        and the representatives keep their bytes."""
        covs, labels = dataset
        expected = _serial_representatives(covs, labels).tobytes()
        self._use_cpus(monkeypatch, 64)
        monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _NoPool)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import spdbci
        from tracer import Tracer

        rec = Tracer()
        rec.install(spdbci)
        try:
            reps = trainer_module.class_band_representatives(covs, labels)
        finally:
            rec.uninstall()
        assert reps.tobytes() == expected
        outer = [i for i, s in enumerate(rec.spans) if s[0] == "trainer.class_band_representatives"]
        means = [s for s in rec.spans if s[0] == "layers.karcher_mean"]
        assert len(outer) == 1 and len(means) == 4
        assert all(parent == outer[0] and end > start for _, start, end, parent in means)


class _CountingPool(ThreadPoolExecutor):
    """A real ``ThreadPoolExecutor`` that records the worker counts it
    was asked for."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)
        super().__init__(max_workers)


class TestPreparePool:
    """``prepare_dataset`` pipelines one-trial blocks over two threads
    when the process may use two CPUs or more: the caller filters each
    trial while one pool thread takes the covariances of the trial
    before.  The CPU count changes no bit.  Sets whose blocks hold
    several trials, and one-trial sets, stay in the caller."""

    @pytest.fixture(scope="class")
    def trials22(self):
        """4 trials of 22 channels at 500 Hz, 8 windows of 250 samples x 9
        bands: 3.2 MB of windows each, so one trial a block."""
        rng = np.random.default_rng(9)
        covs22 = two_class_covariances(22, planted=[0, 4, 9, 13, 20], rng=rng)
        return synthetic_trials(covs22, 2, 2000, 500.0, rng=rng)

    CFG = TrainConfig(window_len=250)

    @pytest.fixture(scope="class")
    def expected(self, trials22):
        covs = pack(per_window_covariances(trials22, self.CFG))
        for k, item in enumerate(trials22.trials):
            one, _ = prepare_dataset(dataclasses.replace(trials22, trials=[item]), self.CFG)
            assert one.tobytes() == covs[k : k + 1].tobytes()
        return covs

    @staticmethod
    def _use_cpus(monkeypatch, cpus):
        monkeypatch.setattr(trainer_module, "_cpu_count", lambda: cpus)
        if cpus == 1:
            monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _NoPool)
        else:
            monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _CountingPool)
            monkeypatch.setattr(_CountingPool, "asked", [])

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_covariances_do_not_depend_on_the_cpu_count(self, trials22, expected,
                                                        monkeypatch, cpus):
        self._use_cpus(monkeypatch, cpus)
        threads_before = threading.active_count()
        covs, labels = prepare_dataset(trials22, self.CFG)
        assert threading.active_count() == threads_before
        assert covs.tobytes() == expected.tobytes()
        assert labels.tolist() == [label for label, _ in trials22.trials]
        # one pool thread takes the covariances, however many CPUs
        if cpus > 1:
            assert _CountingPool.asked == [1]

    def test_multi_trial_blocks_and_one_trial_sets_stay_in_the_caller(self, trials22,
                                                                      monkeypatch):
        """No pool is made, and the CPU count is not even read, so a
        single-trial decode pays nothing for the pool."""
        asked = []

        def two_cpus():
            asked.append(1)
            return 2

        monkeypatch.setattr(trainer_module, "_cpu_count", two_cpus)
        monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _NoPool)
        c5 = _c5_shaped_trials(10)
        covs, _ = prepare_dataset(c5, TrainConfig())
        assert unpack(covs).tobytes() == per_window_covariances(c5, TrainConfig()).tobytes()
        one = dataclasses.replace(trials22, trials=trials22.trials[:1])
        prepare_dataset(one, self.CFG)
        assert asked == []

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_a_failing_block_raises_in_the_caller(self, trials22, monkeypatch, cpus):
        """8-sample windows break the Gabor bound for the 4 Hz bands; at
        22 channels each trial still fills a block by itself."""
        self._use_cpus(monkeypatch, cpus)
        threads_before = threading.active_count()
        with pytest.raises(GaborViolation):
            prepare_dataset(trials22, TrainConfig(window_len=8))
        assert threading.active_count() == threads_before

    def test_the_lowest_failing_block_sets_the_error(self, trials22, monkeypatch):
        """Block 1's covariances fail only after the caller's filtering
        of block 2 has failed.  Block 1's error is raised, as the serial
        loop would raise it, and block 3 is never filtered."""
        self._use_cpus(monkeypatch, 2)
        block_2_failed = threading.Event()
        filtered, reduced = [], []

        def segment_or_fail(trials, spec, window_len, block, out):
            filtered.append(block.start)
            if block.start == 2:
                block_2_failed.set()
                raise GaborViolation("block 2")
            return segment(trials, spec, window_len, block, out)

        def covariance_or_fail(padded):
            reduced.append(len(reduced))  # one thread reduces the blocks in order
            if reduced[-1] == 1:
                assert block_2_failed.wait(timeout=30)
                raise GaborViolation("block 1")
            return covariance(padded)

        monkeypatch.setattr(trainer_module, "segment", segment_or_fail)
        monkeypatch.setattr(trainer_module, "covariance", covariance_or_fail)
        threads_before = threading.active_count()
        with pytest.raises(GaborViolation, match="block 1"):
            prepare_dataset(trials22, self.CFG)
        assert threading.active_count() == threads_before
        assert filtered == [0, 1, 2]
        assert reduced == [0, 1]

    def test_a_failing_reduction_stops_the_filtering(self, trials22, monkeypatch):
        """Block 1's covariances fail: its error is raised, block 2's
        covariances are never taken, and block 3 is never filtered,
        since its buffer comes back only after the failure."""
        self._use_cpus(monkeypatch, 2)
        filtered, reduced = [], []

        def counting_segment(trials, spec, window_len, block, out):
            filtered.append(block.start)
            return segment(trials, spec, window_len, block, out)

        def covariance_or_fail(padded):
            reduced.append(len(reduced))
            if reduced[-1] == 1:
                raise GaborViolation("block 1")
            return covariance(padded)

        monkeypatch.setattr(trainer_module, "segment", counting_segment)
        monkeypatch.setattr(trainer_module, "covariance", covariance_or_fail)
        with pytest.raises(GaborViolation, match="block 1"):
            prepare_dataset(trials22, self.CFG)
        assert filtered in ([0, 1], [0, 1, 2])
        assert reduced == [0, 1]

    def test_the_caller_filters_and_one_thread_reduces_each_block_once(self, monkeypatch):
        """16 one-trial blocks at 8 CPUs, switching threads every
        microsecond: the caller filters every block once, in order, one
        other thread takes every block's covariances once, and every
        trial's covariances equal its own single-trial call."""
        rng = np.random.default_rng(10)
        covs22 = two_class_covariances(22, planted=[1, 5, 9, 12, 17], rng=rng)
        trials = synthetic_trials(covs22, 8, 2000, 500.0, rng=rng)
        expected = np.concatenate([
            prepare_dataset(dataclasses.replace(trials, trials=[item]), self.CFG)[0]
            for item in trials.trials])
        filtered, reducers = [], []

        def counting_segment(*args, **kwargs):
            filtered.append((threading.get_ident(), args[3].start))
            return segment(*args, **kwargs)

        def counting_covariance(padded):
            reducers.append(threading.get_ident())
            return covariance(padded)

        monkeypatch.setattr(trainer_module, "segment", counting_segment)
        monkeypatch.setattr(trainer_module, "covariance", counting_covariance)
        self._use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            covs, _ = prepare_dataset(trials, self.CFG)
        finally:
            sys.setswitchinterval(interval)
        assert filtered == [(threading.get_ident(), k) for k in range(16)]
        assert len(reducers) == 16 and len(set(reducers)) == 1
        assert reducers[0] != threading.get_ident()
        assert _CountingPool.asked == [1]
        assert covs.tobytes() == expected.tobytes()

    def test_under_the_benchmark_tracer_the_blocks_run_in_the_caller(self, trials22, expected,
                                                                      monkeypatch):
        """The benchmark's tracer wraps ``segment`` and ``covariance`` and
        keeps one span stack for all threads.  Under it no pool is made,
        so each block's spans nest in the call's span, and the
        covariances keep their bytes."""
        self._use_cpus(monkeypatch, 64)
        monkeypatch.setattr(trainer_module, "ThreadPoolExecutor", _NoPool)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import spdbci
        from tracer import Tracer

        rec = Tracer()
        rec.install(spdbci)
        try:
            covs, _ = trainer_module.prepare_dataset(trials22, self.CFG)
        finally:
            rec.uninstall()
        assert covs.tobytes() == expected.tobytes()
        outer = [i for i, s in enumerate(rec.spans) if s[0] == "trainer.prepare_dataset"]
        assert len(outer) == 1
        for name in ("filterbank.segment", "spd.covariance"):
            spans = [s for s in rec.spans if s[0] == name]
            assert len(spans) == 4
            assert all(parent == outer[0] and end > start for _, start, end, parent in spans)


class TestCpuQuota:
    """``_cpu_count`` takes no more CPUs than the process's cgroup CPU
    quota grants, ceil(quota / period) and at least 1, read from fake
    cgroup files."""

    @staticmethod
    def _cgroup(monkeypatch, tmp_path, proc, files, affinity=8):
        (tmp_path / "cgroup").write_text(proc)
        for rel, text in files.items():
            path = tmp_path / "fs" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        monkeypatch.setattr(trainer_module, "_PROC_CGROUP", str(tmp_path / "cgroup"))
        monkeypatch.setattr(trainer_module, "_CGROUP_ROOT", str(tmp_path / "fs"))
        monkeypatch.setattr(trainer_module.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)

    @pytest.mark.parametrize("proc, files, cpus", [
        # cgroup v2: quota and period in cpu.max
        ("0::/a/b\n", {"a/b/cpu.max": "150000 100000\n"}, 2),
        ("0::/a/b\n", {"a/b/cpu.max": "max 100000\n"}, 8),
        ("0::/\n", {"cpu.max": "300000 100000\n"}, 3),
        # a parent's quota bounds its child's
        ("0::/a/b\n", {"a/cpu.max": "100000 100000\n", "a/b/cpu.max": "400000 100000\n"}, 1),
        # never below one CPU
        ("0::/a\n", {"a/cpu.max": "1000 100000\n"}, 1),
        # cgroup v1: the cpu controller's hierarchy, named by its line
        ("4:memory:/x\n3:cpu,cpuacct:/x\n",
         {"cpu,cpuacct/x/cpu.cfs_quota_us": "250000\n",
          "cpu,cpuacct/x/cpu.cfs_period_us": "100000\n"}, 3),
        ("3:cpu,cpuacct:/x\n",
         {"cpu,cpuacct/x/cpu.cfs_quota_us": "-1\n",
          "cpu,cpuacct/x/cpu.cfs_period_us": "100000\n"}, 8),
        # a quota above the affinity mask leaves the mask's count
        ("0::/a\n", {"a/cpu.max": "5000000 100000\n"}, 8),
        # a cgroup path the mount does not show: its root's quota counts
        ("1:cpu:/docker/abc\n",
         {"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
        # no quota file, or one that does not parse: no quota
        ("0::/a\n", {}, 8),
        ("0::/a\n", {"a/cpu.max": "lots\n"}, 8),
        ("3:cpu:/x\n", {"cpu/x/cpu.cfs_quota_us": "50000\n"}, 8),
        ("not a cgroup line\n", {"cpu.max": "100000 100000\n"}, 8),
    ])
    def test_quota_bounds_the_count(self, monkeypatch, tmp_path, proc, files, cpus):
        self._cgroup(monkeypatch, tmp_path, proc, files)
        assert trainer_module._cpu_count() == cpus

    def test_affinity_below_the_quota_sets_the_count(self, monkeypatch, tmp_path):
        self._cgroup(monkeypatch, tmp_path, "0::/\n", {"cpu.max": "400000 100000\n"},
                     affinity=2)
        assert trainer_module._cpu_count() == 2

    def test_unreadable_cgroup_file_leaves_the_count(self, monkeypatch, tmp_path):
        self._cgroup(monkeypatch, tmp_path, "", {}, affinity=5)
        monkeypatch.setattr(trainer_module, "_PROC_CGROUP", str(tmp_path / "missing"))
        assert trainer_module._cpu_count() == 5


class TestFolds:
    def test_partition(self):
        labels = np.array([0, 1] * 50)
        assignment = stratified_folds(labels, folds=10, seed=0)
        counts = np.bincount(assignment, minlength=10)
        assert np.all(counts == 10)
        for fold in range(10):
            fold_labels = labels[assignment == fold]
            assert np.bincount(fold_labels).tolist() == [5, 5]

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            stratified_folds(np.array([0, 0, 1]), folds=2, seed=0)


class TestEvaluate:
    def test_cv_report_consistency(self, small_trials):
        cfg = TrainConfig(**SMALL)
        report = evaluate_cv(cfg, small_trials, folds=3)
        assert len(report.fold_accuracies) == 3
        assert abs(report.mean_accuracy - np.mean(report.fold_accuracies)) < 1e-12
        assert abs(report.std_accuracy - np.std(report.fold_accuracies)) < 1e-12
        assert report.confusion.sum() == len(small_trials.trials)
        assert abs(np.trace(report.confusion) / report.confusion.sum()
                   - report.mean_accuracy) < 1e-12

    def test_holdout_schema_mismatch(self, small_trials, rng):
        # (channels, classes, samples per trial, sample rate) of the eval
        # set; the training set is 4 channels, 2 classes, 128 samples at 250 Hz.
        cases = {
            "channel counts": (6, 2, 128, 250.0),
            "class counts": (4, 3, 128, 250.0),
            "sample rates": (4, 2, 128, 500.0),
            "windows per trial": (4, 2, 256, 250.0),
        }
        for reason, (channels, classes, samples, rate) in cases.items():
            covs = two_class_covariances(channels, rng=rng) + (np.eye(channels),) * (classes - 2)
            other = synthetic_trials(covs, 4, samples, rate, rng=rng)
            with pytest.raises(SchemaMismatch, match=reason):
                evaluate_holdout(TrainConfig(**SMALL), small_trials, other)

    def test_holdout_confusion_dims(self, small_trials):
        cfg = TrainConfig(**SMALL)
        report = evaluate_holdout(cfg, small_trials, small_trials)
        assert report.confusion.shape == (2, 2)
        assert report.std_convention == "single holdout split"

    def test_bench_sample_count(self, small_trials, eigh_calls):
        cfg = TrainConfig(**SMALL)
        bundle = train_to_bundle(cfg, small_trials)
        eigh_calls.clear()
        stats = bench_inference(bundle, small_trials, repetitions=1)
        assert stats["samples"] == len(small_trials.trials)
        assert 0 < stats["mean_s"] <= stats["max_s"]
        assert stats["design_s"] > 0
        # The RBN mean is decomposed once, when the bundle loads; each
        # timed trial makes one eigh over its 2 windows x 2 bands.
        assert eigh_calls == [1] + [2 * 2] * len(small_trials.trials)

    def test_bench_builds_the_filter_plan_before_timing(self, small_trials, monkeypatch):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        monkeypatch.setattr(filterbank_module, "_PLANS", {})
        builds = []
        real_build = filterbank_module._build_plan

        def counting_build(*args):
            builds.append(1)
            return real_build(*args)

        # plans built while a timed trial is prepared
        timed = []
        real_prepare = trainer_module.prepare_dataset

        def counting_prepare(*args):
            before = len(builds)
            out = real_prepare(*args)
            timed.append(len(builds) - before)
            return out

        monkeypatch.setattr(filterbank_module, "_build_plan", counting_build)
        monkeypatch.setattr(trainer_module, "prepare_dataset", counting_prepare)
        bench_inference(bundle, small_trials, repetitions=2)
        assert builds == [1]
        assert timed == [0] * 2 * len(small_trials.trials)

    def test_bench_rejects_zero_repetitions(self, small_trials):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        with pytest.raises(ConfigError):
            bench_inference(bundle, small_trials, repetitions=0)

    def test_bench_rejects_empty_trial_set(self, small_trials):
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        with pytest.raises(InsufficientData):
            bench_inference(bundle, dataclasses.replace(small_trials, trials=[]))


def _write_small_config(path):
    path.write_text(
        "epochs = 2\nbatch_size = 16\nbands = 8-16;16-24\nwindow_len = 64\n"
        "m = 2\nk_heads = 2\nconv_out = 3\n"
    )


class TestCli:
    def test_full_pipeline(self, tmp_path, capsys):
        spec = tmp_path / "gen.cfg"
        spec.write_text(
            "seed = 0\nchannels = 4\nsamples_per_trial = 128\n"
            "trials_per_class = 12\nsample_rate = 250\n"
        )
        data = tmp_path / "d.eegb"
        assert cli_main(["gen-synthetic", "--spec", str(spec), "--out", str(data)]) == 0

        cfg = tmp_path / "train.cfg"
        _write_small_config(cfg)
        model_path = tmp_path / "m.sbcm"
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(model_path)]) == 0
        assert model_path.exists()

        report = tmp_path / "cv.csv"
        assert cli_main(["eval-cv", "--config", str(cfg), "--data", str(data),
                         "--folds", "3", "--report", str(report)]) == 0
        text = report.read_text()
        assert "mean_accuracy" in text and "confusion_0_0" in text

        holdout = tmp_path / "holdout.csv"
        capsys.readouterr()
        assert cli_main(["eval-holdout", "--config", str(cfg), "--train", str(data),
                         "--test", str(data), "--report", str(holdout)]) == 0
        assert capsys.readouterr().out.startswith("holdout accuracy ")
        rows = dict(line.split(",", 1) for line in holdout.read_text().splitlines()[1:])
        assert 0.0 <= float(rows["mean_accuracy"]) <= 1.0 and "confusion_1_1" in rows

        sel = tmp_path / "sel.csv"
        assert cli_main(["select", "--config", str(cfg), "--data", str(data),
                         "--out", str(sel)]) == 0
        lines = sel.read_text().splitlines()
        assert lines[1].startswith("selected_channels,")
        key, value = lines[3].split(",")
        assert key == "final_drift" and float(value) >= 0.0

        bench = tmp_path / "bench.csv"
        assert cli_main(["bench", "--model", str(model_path), "--data", str(data),
                         "--reps", "1", "--report", str(bench)]) == 0
        assert "mean_s" in bench.read_text()
        assert "design_s" in bench.read_text()

        capsys.readouterr()
        assert cli_main(["bench", "--model", str(model_path), "--data", str(data),
                         "--reps", "0", "--report", str(bench)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_cv_determinism_of_a_learning_model(self, tmp_path):
        """Criterion 8's data and config, trained long enough to learn, so
        that the byte-identity check compares more than a constant predictor."""
        rng = np.random.default_rng(88)
        covs = two_class_covariances(4, rng=rng)
        data = tmp_path / "d.eegb"
        save_trials(synthetic_trials(covs, 10, 128, 250.0, rng=rng), data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "epochs = 20\nlearning_rate = 0.01\nbatch_size = 16\nbands = 8-16;16-24\n"
            "window_len = 64\nm = 2\nk_heads = 2\nconv_out = 3\n"
        )
        reports = [tmp_path / "cv1.csv", tmp_path / "cv2.csv"]
        for report in reports:
            assert cli_main(["eval-cv", "--config", str(cfg), "--data", str(data),
                             "--folds", "3", "--report", str(report)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        rows = dict(line.split(",", 1) for line in reports[0].read_text().splitlines()[1:])
        folds = [float(rows[f"fold_{i}_accuracy"]) for i in range(3)]
        assert any(acc != 0.5 for acc in folds), folds

    @pytest.mark.parametrize("spec, named", [
        ("seed = 0\nsamples_per_trial = 128\ntrials_per_class = 4\n", "channels"),
        ("channels = four\nsamples_per_trial = 128\ntrials_per_class = 4\n", "channels"),
        ("channels = 4\nchannels = 5\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "channels"),
        ("channels 4\nsamples_per_trial = 128\ntrials_per_class = 4\n", "key = value"),
        ("channels = 4\nplanted = 9\nsamples_per_trial = 128\ntrials_per_class = 4\n", "planted"),
        ("channels = 0\nsamples_per_trial = 128\ntrials_per_class = 4\n", "channels"),
        ("channels = 4\nsamples_per_trial = -5\ntrials_per_class = 4\n",
         "samples_per_trial"),
        ("channels = 4\nseparation = nan\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "separation"),
        ("channels = 4\nseparation = inf\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "separation"),
        ("channels = 4\nseparation = 1e6\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "separation"),
        ("channels = 4\nseparation = 300\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "separation"),
        ("seed = -1\nchannels = 4\nsamples_per_trial = 128\ntrials_per_class = 4\n", "seed"),
        ("channels = 4\nplanted = 1,1\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "planted"),
        ("channels = 4\nsample_rate = nan\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "sample rate"),
        ("channels = 4\nsample_rate = 1e300\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "sample rate"),
        ("channels = 4\nsample_rate = 1e-300\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "sample rate"),
        ("channels = 4\nseperation = 9\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "seperation"),
        ("channels = 4\nnoize = 5\nsamples_per_trial = 128\ntrials_per_class = 4\n", "noize"),
        ("channels = 4\nnoise = -1\nsamples_per_trial = 128\ntrials_per_class = 4\n", "noise"),
        ("channels = 4\nnoise = 1e200\nsamples_per_trial = 128\ntrials_per_class = 4\n",
         "float32 range [-3.4028235e+38, 3.4028235e+38]"),
    ], ids=["missing-key", "non-numeric", "duplicate-key", "missing-equals",
            "planted-out-of-range", "zero-channels", "negative-samples",
            "nan-separation", "inf-separation", "huge-separation",
            "unreachable-separation", "negative-seed", "duplicate-planted",
            "nan-sample-rate", "huge-sample-rate", "tiny-sample-rate",
            "misspelt-separation", "misspelt-noise", "negative-noise", "float32-overflow-noise"])
    def test_gen_synthetic_bad_spec(self, tmp_path, capsys, spec, named):
        path, out = tmp_path / "gen.cfg", tmp_path / "d.eegb"
        path.write_text(spec)
        assert cli_main(["gen-synthetic", "--spec", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("folds", [0, 1, -2])
    def test_eval_cv_rejects_fewer_than_two_folds(self, small_trials, tmp_path,
                                                  capsys, folds):
        data, cfg = tmp_path / "d.eegb", tmp_path / "train.cfg"
        save_trials(small_trials, data)
        _write_small_config(cfg)
        report = tmp_path / "cv.csv"
        assert cli_main(["eval-cv", "--config", str(cfg), "--data", str(data),
                         "--folds", str(folds), "--report", str(report)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not report.exists()

    def test_bench_refuses_a_bundle_rate_that_eegb_cannot_store(self, small_trials,
                                                                 tmp_path, capsys):
        """The bundle's rate fails on load, named as its array, before
        any trial is compared with it."""
        data, model_path, report = tmp_path / "d.eegb", tmp_path / "m.sbcm", tmp_path / "b.csv"
        save_trials(small_trials, data)
        bundle = train_to_bundle(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        save_model(dataclasses.replace(
            bundle, arrays={**bundle.arrays, "sample_rate": np.array([1e300])}), model_path)
        capsys.readouterr()
        assert cli_main(["bench", "--model", str(model_path), "--data", str(data),
                         "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model bundle array 'sample_rate'" in err
        assert not report.exists()

    @pytest.mark.parametrize("command", ["train", "eval-cv", "select"])
    @pytest.mark.parametrize("key, value, named", [
        ("m", "5", "m=5 must lie in 1..4"),
        ("m", "0", "m, k_heads, window_len must be positive"),
        ("window_len", "200", "window_len 200 exceeds trial length 128"),
        ("window_len", "2", "violates the uncertainty bound"),
        ("bands", "8-16;16-125", "band (16.0, 125.0) must satisfy"),
        ("channel_scoring", "argmax", "channel_scoring must be 'row-norm'"),
    ], ids=["m-above-channels", "m-zero", "window-above-trial", "window-below-gabor",
            "band-at-nyquist", "argmax-scoring"])
    def test_bad_config_value_fails_typed(self, small_trials, tmp_path, capsys,
                                          command, key, value, named):
        """A config value that the 4-channel, 128-sample, 250 Hz data
        cannot take exits 1 with ``error:``, no traceback and no output."""
        data, cfg, out = tmp_path / "d.eegb", tmp_path / "train.cfg", tmp_path / "out"
        save_trials(small_trials, data)
        options = {**SMALL, "bands": "8-16;16-24", key: value}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
        out_args = ["--folds", "2", "--report", out] if command == "eval-cv" else ["--out", out]
        capsys.readouterr()
        assert cli_main([command, "--config", str(cfg), "--data", str(data),
                         *map(str, out_args)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["in-missing-dir", "is-a-dir"])
    @pytest.mark.parametrize("command", ["gen-synthetic", "train", "eval-cv",
                                         "eval-holdout", "select", "bench"])
    def test_unwritable_output_fails_typed(self, small_trials, tmp_path, capsys,
                                           command, kind):
        """An output path that cannot be written, inside a missing
        directory or naming an existing one, exits 1 with ``error:`` and
        creates no file."""
        data, cfg, spec, bundle = (tmp_path / name for name in
                                   ("d.eegb", "train.cfg", "gen.cfg", "m.sbcm"))
        save_trials(small_trials, data)
        _write_small_config(cfg)
        spec.write_text("channels = 4\nsamples_per_trial = 128\ntrials_per_class = 4\n")
        if command == "bench":
            save_model(train_to_bundle(TrainConfig(**SMALL), small_trials), bundle)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "missing" / "out.csv" if kind == "in-missing-dir" else out_dir
        args = {
            "gen-synthetic": ["--spec", spec, "--out", out],
            "train": ["--config", cfg, "--data", data, "--out", out],
            "eval-cv": ["--config", cfg, "--data", data, "--folds", "2", "--report", out],
            "eval-holdout": ["--config", cfg, "--train", data, "--test", data,
                             "--report", out],
            "select": ["--config", cfg, "--data", data, "--out", out],
            "bench": ["--model", bundle, "--data", data, "--report", out],
        }[command]
        capsys.readouterr()
        assert cli_main([command, *map(str, args)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(out_dir.iterdir()) == []

    def test_diverging_train_fails_typed_with_warnings_as_errors(self, small_trials,
                                                                  tmp_path, capsys):
        """A learning rate that overflows the weights exits 1 with the
        typed ``loss became`` error, even where numpy's warnings are
        errors, and writes no bundle."""
        data, cfg, out = tmp_path / "d.eegb", tmp_path / "train.cfg", tmp_path / "m.sbcm"
        save_trials(small_trials, data)
        _write_small_config(cfg)
        with cfg.open("a") as f:
            f.write("learning_rate = 1e300\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: loss became")
        assert not out.exists()

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.eegb"
        out = tmp_path / "m.sbcm"
        assert cli_main(["train", "--data", str(missing), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
