"""Training loop, evaluation harnesses, configuration, and the CLI."""

import dataclasses

import numpy as np
import pytest
from scipy import signal

from spdbci.cli import main as cli_main
from spdbci.config import (
    TrainConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
)
from spdbci.eeg_io import load_model, save_trials
from spdbci.errors import ConfigError, InsufficientData, SchemaMismatch
from spdbci.filterbank import design_bandpass
from spdbci.model import count_parameters, model_from_bundle, model_to_bundle
from spdbci.spd import covariance
from spdbci.synth import synthetic_trials, two_class_covariances
from spdbci.trainer import (
    bench_inference,
    evaluate_cv,
    evaluate_holdout,
    predict,
    prepare_dataset,
    stratified_folds,
    train,
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
    bimap_layers=1,
    karcher_iterations=5,
)


def per_window_covariances(trials, cfg):
    """Reference for ``prepare_dataset``: filter each band of each trial,
    slice the windows out one by one and call the 2-D ``covariance`` once
    per window."""
    spec = cfg.band_spec()
    n_windows = trials.samples_per_trial // cfg.window_len
    out = []
    for _, data in trials.trials:
        m = data.shape[0]
        covs = np.empty((n_windows, len(spec.bands), m, m))
        for f, band in enumerate(spec.bands):
            b, a = design_bandpass(band, trials.sample_rate_hz, spec.filter_order,
                                   spec.stopband_atten_db)
            filtered = signal.lfilter(b, a, data, axis=1)
            for s in range(n_windows):
                window = filtered[:, s * cfg.window_len : (s + 1) * cfg.window_len].copy()
                z = window - window.mean(axis=1, keepdims=True)
                eps = cfg.shrinkage_scale * float(np.sum(z * z)) / (cfg.window_len * m)
                covs[s, f] = covariance(window, max(eps, 1e-12))
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

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"no_such_knob": "1"})

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

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 5\nepochs = 6\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(std_divisor="other")


class TestSynth:
    def test_separation_target(self, rng):
        from spdbci.spd import airm_distance
        cov0, cov1 = two_class_covariances(6, separation=2.5, rng=rng)
        assert airm_distance(cov0, cov1) >= 2.5

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
        for w in model.heads.weights[1:]:
            assert np.linalg.norm(w.T @ w - np.eye(w.shape[1])) < 1e-8
        from spdbci.layers import BiMapLayer
        for layer in model.net:
            if isinstance(layer, BiMapLayer):
                w = layer.weight
                assert np.linalg.norm(w @ w.T - np.eye(w.shape[0])) < 1e-8

    def test_bundle_round_trip_preserves_predictions(self, small_trials, tmp_path):
        cfg = TrainConfig(**SMALL)
        bundle = train_to_bundle(cfg, small_trials)
        path = tmp_path / "m.sbcm"
        from spdbci.eeg_io import save_model
        save_model(bundle, path)
        loaded = load_model(path)
        assert loaded == bundle
        model = model_from_bundle(loaded)
        covs, labels = prepare_dataset(small_trials, cfg)
        fresh, _ = train(cfg, small_trials)
        assert np.array_equal(predict(model, covs), predict(fresh, covs))

    def test_parameter_count_matches_shape_arithmetic(self, small_trials):
        cfg = TrainConfig(**SMALL)
        model, _ = train(TrainConfig(**{**SMALL, "epochs": 0}), small_trials)
        s, f, big_m, m, k, c_out, n_cls = 2, 2, 4, 2, 2, 3, 2
        expected = (
            k * big_m * m                     # MBT heads
            + 1 * big_m * big_m               # BiMap layers
            + c_out * s * (k * m * m)         # conv kernel
            + c_out                           # conv bias
            + f * (f // 2) + (f // 2) * f     # gate bottleneck
            + f * c_out * n_cls + n_cls       # linear head
        )
        assert count_parameters(model) == expected


class TestPrepareDataset:
    @pytest.mark.parametrize("options", [SMALL, {"window_len": 64}],
                             ids=["small", "default-bank"])
    def test_equals_per_window_reference(self, small_trials, options):
        cfg = TrainConfig(**options)
        covs, labels = prepare_dataset(small_trials, cfg)
        assert covs.shape == (24, 2, len(cfg.bands), 4, 4)
        assert np.array_equal(covs, per_window_covariances(small_trials, cfg))
        assert labels.tolist() == [label for label, _ in small_trials.trials]

    def test_each_trial_equals_its_slice_of_the_batch(self, small_trials):
        cfg = TrainConfig(**SMALL)
        covs, _ = prepare_dataset(small_trials, cfg)
        for k, item in enumerate(small_trials.trials):
            single = dataclasses.replace(small_trials, trials=[item])
            one, label = prepare_dataset(single, cfg)
            assert np.array_equal(one, covs[k : k + 1])
            assert label.tolist() == [item[0]]

    def test_empty_trial_set(self, small_trials):
        empty = dataclasses.replace(small_trials, trials=[])
        with pytest.raises(InsufficientData):
            prepare_dataset(empty, TrainConfig(**SMALL))


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
        other = synthetic_trials(
            two_class_covariances(6, rng=rng), 4, 128, 250.0, rng=rng
        )
        with pytest.raises(SchemaMismatch):
            evaluate_holdout(TrainConfig(**SMALL), small_trials, other)

    def test_holdout_confusion_dims(self, small_trials):
        cfg = TrainConfig(**SMALL)
        report, _ = evaluate_holdout(cfg, small_trials, small_trials)
        assert report.confusion.shape == (2, 2)
        assert report.std_convention == "single holdout split"

    def test_bench_sample_count(self, small_trials):
        cfg = TrainConfig(**SMALL)
        bundle = train_to_bundle(cfg, small_trials)
        stats = bench_inference(bundle, small_trials, repetitions=1)
        assert stats["samples"] == len(small_trials.trials)
        assert 0 < stats["mean_s"] <= stats["max_s"]
        assert stats["design_s"] > 0

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
        "m = 2\nk_heads = 2\nconv_out = 3\nbimap_layers = 1\n"
        "karcher_iterations = 5\n"
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

        sel = tmp_path / "sel.csv"
        assert cli_main(["select", "--config", str(cfg), "--data", str(data),
                         "--out", str(sel)]) == 0
        assert "selected_channels" in sel.read_text()

        bench = tmp_path / "bench.csv"
        assert cli_main(["bench", "--model", str(model_path), "--data", str(data),
                         "--reps", "1", "--report", str(bench)]) == 0
        assert "mean_s" in bench.read_text()
        assert "design_s" in bench.read_text()

        capsys.readouterr()
        assert cli_main(["bench", "--model", str(model_path), "--data", str(data),
                         "--reps", "0", "--report", str(bench)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.eegb"
        out = tmp_path / "m.sbcm"
        assert cli_main(["train", "--data", str(missing), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
