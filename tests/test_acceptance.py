"""End-to-end acceptance suite.

Each test prints a single [PASS]/[FAIL] line for its criterion. The
suite exercises the Riemannian core, the channel-selection optimality
properties, synthetic subset recovery, the full gradient battery, two
end-to-end synthetic classification studies, parameter accounting, and
the on-disk formats plus CLI determinism.  Two floors over seeds follow
them: selection recovery and mean held-out accuracy.
"""

import itertools
import time

import numpy as np
import pytest

from spdbci.classifier import TangentClassifier
from spdbci.cli import main as cli_main
from spdbci.config import TrainConfig
from spdbci.eeg_io import load_trials, save_trials
from spdbci.errors import ChecksumError
from spdbci.layers import (
    BiMapLayer,
    LogEigLayer,
    RbnLayer,
    ReEigLayer,
    karcher_mean,
    random_stiefel,
    stiefel_project,
    stiefel_retract,
)
from spdbci.model import Model, count_parameters
from spdbci.selection import (
    MbtHeads,
    assemble_L,
    fit_selection,
    gamma,
    geodesic_matrix,
    update_W,
)
from spdbci.spd import (
    airm_distance,
    inv_sqrtm,
    spd_exp,
    spd_log,
    sym,
)
from spdbci.synth import synthetic_trials, two_class_covariances
from spdbci.trainer import (
    class_band_representatives,
    predict,
    prepare_dataset,
    select_channels,
    train,
)

from conftest import (
    assemble_L_loop,
    check_psd_theorem1,
    karcher_mean_iterated,
    random_spd,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: Riemannian core suite
# ---------------------------------------------------------------------------

def test_criterion_1_riemannian_core():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    failures = []

    for n in (5, 8):
        for _ in range(200):
            x, y = random_spd(rng, n), random_spd(rng, n)
            dxy, dyx = airm_distance(x, y), airm_distance(y, x)
            if abs(dxy - dyx) > 1e-8:
                failures.append(f"symmetry {abs(dxy - dyx):.2e}")
            if airm_distance(x, x) > 1e-8:
                failures.append("identity")
            a = rng.standard_normal((n, n)) + 2 * np.eye(n)
            if abs(airm_distance(a @ x @ a.T, a @ y @ a.T) - dxy) > 1e-8:
                failures.append("affine invariance")
            back = spd_exp(spd_log(x))
            if np.linalg.norm(back - x) / np.linalg.norm(x) > 1e-8:
                failures.append("log/exp round trip")

    worst = 0.0
    for _ in range(100):
        pts = rng.standard_normal((6, 3))
        g = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        scale = np.diag(rng.uniform(0.3, 1.0, size=3))
        mapped = pts @ scale
        d = np.linalg.norm(mapped[:, None] - mapped[None, :], axis=-1)
        worst = min(worst, check_psd_theorem1(g, d))
    if worst < -1e-8:
        failures.append(f"psd check lambda_min {worst:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(1, "Riemannian core suite", not failures,
            f"(400 pairs, 100 point sets, {elapsed:.1f}s) {failures[:3]}")


# ---------------------------------------------------------------------------
# Criterion 2: channel-selection optimality
# ---------------------------------------------------------------------------

def test_criterion_2_selection_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    failures = []

    worst_margin = np.inf
    for _ in range(20):
        big_m = int(rng.integers(4, 9))
        m = int(rng.integers(1, big_m))
        lm = rng.standard_normal((big_m, big_m))
        lm = lm + lm.T
        w = update_W(lm, m)
        best = float(np.trace(w.T @ lm @ w))
        cands, _ = np.linalg.qr(rng.standard_normal((10_000, big_m, m)))
        traces = np.einsum("bji,jk,bki->b", cands, lm, cands)
        worst_margin = min(worst_margin, best - float(traces.max()))
    if worst_margin < -1e-9:
        failures.append(f"rayleigh margin {worst_margin:.2e}")

    worst_dev = 0.0
    for _ in range(10):
        samples = random_spd(rng, 4, batch=4)
        logs = spd_log(samples)
        gg = gamma(geodesic_matrix(samples))
        w = random_stiefel(rng, 4, 2)
        dev = np.max(np.abs(assemble_L(logs, gg, w) - assemble_L_loop(logs, gg, w)))
        worst_dev = max(worst_dev, dev)
    if worst_dev > 1e-12:
        failures.append(f"assemble_L oracle deviation {worst_dev:.2e}")

    for seed in range(5):
        r = np.random.default_rng(seed)
        covs = two_class_covariances(6, separation=2.0, rng=r)
        samples = np.stack([
            c + sym(0.05 * r.standard_normal((6, 6))) + 0.5 * np.eye(6)
            for c in covs for _ in range(4)
        ])
        result = fit_selection(samples, m=3)
        trace = result.objective_trace
        for a, b in zip(trace, trace[1:]):
            if b < a - 1e-9 * max(1.0, abs(a)):
                failures.append(f"objective decreased seed {seed}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(2, "channel-selection optimality", not failures,
            f"(margin {worst_margin:.1e}, oracle dev {worst_dev:.1e}, {elapsed:.1f}s) "
            f"{failures[:3]}")


# ---------------------------------------------------------------------------
# Criterion 3: synthetic channel recovery
# ---------------------------------------------------------------------------

def test_criterion_3_channel_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    planted = [1, 3, 5]
    cov0, cov1 = two_class_covariances(8, planted=planted, separation=2.0, rng=rng)

    samples, labels = [], []
    for label, cov in enumerate((cov0, cov1)):
        chol = np.linalg.cholesky(cov)
        for _ in range(100):
            z = chol @ rng.standard_normal((8, 500))
            z = z - z.mean(axis=1, keepdims=True)
            # a fixed 1e-6 shrinkage, not the pipeline's trace-scaled one
            samples.append(sym(z @ z.T / 500 + 1e-6 * np.eye(8)))
            labels.append(label)
    samples = np.stack(samples)
    labels = np.asarray(labels)

    class_means = np.stack([karcher_mean(samples[labels == g]) for g in sorted(set(labels))])
    result = fit_selection(class_means, m=3)
    recovered = result.selected_channels == planted

    mean0 = karcher_mean_iterated(samples[labels == 0])
    mean1 = karcher_mean_iterated(samples[labels == 1])

    def subset_score(idx):
        sel = np.ix_(idx, idx)
        return airm_distance(mean0[sel], mean1[sel])

    oracle_best = sorted(max(itertools.combinations(range(8), 3), key=subset_score))
    oracle_agrees = oracle_best == planted

    elapsed = time.perf_counter() - t0
    ok = recovered and oracle_agrees and elapsed < 120.0
    _report(3, "synthetic channel recovery", ok,
            f"(selected {result.selected_channels}, oracle {oracle_best}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 4: gradient suite
# ---------------------------------------------------------------------------

def _fd_num(f, x, g, rng, h=1e-5):
    """Central difference of ``sum(f(x) * g)`` along a random symmetric
    direction ``v``: ``(num, v)``."""
    v = sym(rng.standard_normal(x.shape))
    return (np.sum(f(x + h * v) * g) - np.sum(f(x - h * v) * g)) / (2 * h), v


def _rel_err(num, gx, v):
    ana = float(np.sum(gx * v))
    return abs(num - ana) / max(abs(num), 1e-10)


def _fd_layer(layer, x, g, rng):
    """Input-gradient error of a layer whose forward is a pure function
    of its input.  The perturbed points run first, so the backward uses
    the cache of the forward at ``x``."""
    num, v = _fd_num(layer.forward, x, g, rng)
    layer.forward(x)
    return _rel_err(num, layer.backward(g), v)


class _ReEigLogEig:
    """ReEig then LogEig on ReEig's eigendecomposition, as the training
    forward chains them, with the matching backward."""

    def __init__(self, epsilon):
        self.reeig, self.logeig = ReEigLayer(epsilon), LogEigLayer()

    def forward(self, x):
        return self.logeig.forward(self.reeig.forward(x), eig=self.reeig.output_eig)

    def backward(self, grad):
        return self.reeig.backward(self.logeig.backward(grad))


def _straddling_spd(rng, floor):
    """Two 5x5 SPD matrices with eigenvalues on both sides of ``floor``,
    each at least 5% of ``floor`` away from it, so some clamp and no
    finite-difference step crosses the kink."""
    u = np.linalg.qr(rng.standard_normal((2, 5, 5)))[0]
    below = rng.uniform(0.1, 0.95, (2, 2)) * floor
    above = rng.uniform(1.05, 6.0, (2, 3)) * floor
    spectrum = np.concatenate([below, above], axis=1)
    return (u * spectrum[:, None, :]) @ np.swapaxes(u, -1, -2)


def test_criterion_4_gradient_suite():
    t0 = time.perf_counter()
    failures = []
    worst = {}

    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = random_spd(rng, 5, batch=2)

        checks = {
            "bimap": (BiMapLayer(random_stiefel(rng, 5, 3).T),
                      rng.standard_normal((2, 3, 3))),
            "reeig": (ReEigLayer(0.5), rng.standard_normal((2, 5, 5))),
            "logeig": (LogEigLayer(), rng.standard_normal((2, 5, 5))),
        }
        for name, (layer, g) in checks.items():
            err = _fd_layer(layer, x, g, rng)
            worst[name] = max(worst.get(name, 0.0), err)
            if err >= 1e-4:
                failures.append(f"{name} seed {seed} err {err:.2e}")

        # RBN with its whitener frozen: fitted on the batch, the map is
        # sym(r y r), r = inv_sqrtm(mean)
        rbn = RbnLayer(5)
        rbn.mean = karcher_mean(x)
        g = rng.standard_normal((2, 5, 5))
        rbn.forward(x)
        gx = rbn.backward(g)
        r = inv_sqrtm(rbn.mean)
        num, v = _fd_num(lambda y: sym(r @ y @ r), x, g, rng)
        err = _rel_err(num, gx, v)
        worst["rbn"] = max(worst.get("rbn", 0.0), err)
        if err >= 1e-4:
            failures.append(f"rbn seed {seed} err {err:.2e}")

        # ReEig -> LogEig as training runs it: LogEig on ReEig's
        # decomposition, over a spectrum that straddles the clamp floor
        err = _fd_layer(_ReEigLogEig(0.5), _straddling_spd(rng, 0.5),
                        rng.standard_normal((2, 5, 5)), rng)
        worst["reeig_logeig"] = max(worst.get("reeig_logeig", 0.0), err)
        if err >= 1e-4:
            failures.append(f"reeig->logeig seed {seed} err {err:.2e}")

        # MBT heads: the fold of a (C_out, S, K*m*m) conv kernel, its
        # gradient with respect to the kernel and to the trained heads
        heads = MbtHeads.initialize(5, 3, rng)
        kernel = rng.standard_normal((2, 2, 3 * 25))
        g = rng.standard_normal((2, 2, 25))
        h = 1e-5
        v = rng.standard_normal(kernel.shape)
        num = (np.sum(heads.forward(kernel + h * v) * g)
               - np.sum(heads.forward(kernel - h * v) * g)) / (2 * h)
        heads.forward(kernel)
        err = _rel_err(num, heads.backward(g), v)
        grad_w = heads.grad_weights.copy()
        worst["mbt_kernel"] = max(worst.get("mbt_kernel", 0.0), err)
        if err >= 1e-4:
            failures.append(f"mbt kernel seed {seed} err {err:.2e}")
        w0 = heads.weights
        dw = rng.standard_normal(w0.shape)
        heads.weights = w0 + h * dw
        plus = np.sum(heads.forward(kernel) * g)
        heads.weights = w0 - h * dw
        minus = np.sum(heads.forward(kernel) * g)
        num = (plus - minus) / (2 * h)
        err = abs(num - np.sum(grad_w * dw)) / max(abs(num), 1e-10)
        worst["mbt_weights"] = max(worst.get("mbt_weights", 0.0), err)
        if err >= 1e-4:
            failures.append(f"mbt weights seed {seed} err {err:.2e}")

        # classifier stack: input plus every parameter, which exercises the
        # conv, band-importance, and linear-head backward paths
        clf = TangentClassifier(3, 2, 8, 2, conv_out=3, rng=rng)
        fmap = rng.standard_normal((3, 2, 3, 8))
        g = rng.standard_normal((3, 2))
        h = 1e-5
        v = rng.standard_normal(fmap.shape)
        num = (np.sum(clf.forward(fmap + h * v, clf.kernel) * g)
               - np.sum(clf.forward(fmap - h * v, clf.kernel) * g)) / (2 * h)
        clf.forward(fmap, clf.kernel)
        gx = clf.backward(g)
        grads = {k: v.copy() for k, v in clf.grads.items()}
        err = abs(num - np.sum(gx * v)) / max(abs(num), 1e-10)
        worst["clf_input"] = max(worst.get("clf_input", 0.0), err)
        if err >= 1e-4:
            failures.append(f"clf input seed {seed} err {err:.2e}")
        for pname in ("kernel", "bias", "w1", "w2", "head_w", "head_b"):
            p0 = getattr(clf, pname).copy()
            dv = rng.standard_normal(p0.shape)
            setattr(clf, pname, p0 + h * dv)
            plus = np.sum(clf.forward(fmap, clf.kernel) * g)
            setattr(clf, pname, p0 - h * dv)
            minus = np.sum(clf.forward(fmap, clf.kernel) * g)
            setattr(clf, pname, p0)
            num = (plus - minus) / (2 * h)
            err = abs(num - np.sum(grads[pname] * dv)) / max(abs(num), 1e-10)
            worst[f"clf_{pname}"] = max(worst.get(f"clf_{pname}", 0.0), err)
            if err >= 1e-4:
                failures.append(f"clf {pname} seed {seed} err {err:.2e}")

    rng = np.random.default_rng(4)
    q = random_stiefel(rng, 8, 4)
    for _ in range(100):
        q = stiefel_retract(q, -0.05 * stiefel_project(q, rng.standard_normal(q.shape)))
    drift = np.linalg.norm(q.T @ q - np.eye(4))
    if drift >= 1e-8:
        failures.append(f"stiefel drift {drift:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    worst_err = max(worst.values())
    _report(4, "gradient suite", not failures,
            f"(50 seeds, worst rel err {worst_err:.1e}, drift {drift:.1e}, "
            f"{elapsed:.1f}s) {failures[:3]}")


# ---------------------------------------------------------------------------
# Criteria 5 and 6 share the synthetic generator
# ---------------------------------------------------------------------------

def _generator(rng, trials_per_class_train, trials_per_class_test):
    covs = two_class_covariances(8, planted=[1, 3, 5], separation=2.0, rng=rng)
    train_set = synthetic_trials(covs, trials_per_class_train, 250, 250.0, rng=rng)
    test_set = synthetic_trials(
        covs, trials_per_class_test, 250, 250.0, rng=np.random.default_rng(9999)
    )
    return train_set, test_set


def test_criterion_5_end_to_end_classification():
    rng = np.random.default_rng(55)
    train_set, test_set = _generator(rng, 200, 50)

    cfg = TrainConfig(epochs=60, seed=0)  # defaults: K=4, m=5, 9 bands
    t0 = time.perf_counter()
    model, losses = train(cfg, train_set)
    elapsed = time.perf_counter() - t0
    covs, labels = prepare_dataset(test_set, cfg)
    acc = float(np.mean(predict(model, covs) == labels))

    cfg8 = TrainConfig(epochs=40, seed=0, m=8)
    model8, _ = train(cfg8, train_set)
    covs8, labels8 = prepare_dataset(test_set, cfg8)
    acc8 = float(np.mean(predict(model8, covs8) == labels8))

    ok = acc >= 0.90 and elapsed < 300.0 and acc >= acc8 - 0.08
    _report(5, "end-to-end synthetic classification", ok,
            f"(test acc {acc:.3f} in {cfg.epochs} epochs / {elapsed:.0f}s, "
            f"m=8 ablation {acc8:.3f}, final loss {losses[-1]:.3f})")


def test_criterion_6_multi_head_direction():
    accs = {1: [], 4: []}
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        train_set, test_set = _generator(rng, 50, 25)
        for k in (1, 4):
            cfg = TrainConfig(epochs=20, seed=seed, m=3, k_heads=k)
            model, _ = train(cfg, train_set)
            covs, labels = prepare_dataset(test_set, cfg)
            accs[k].append(float(np.mean(predict(model, covs) == labels)))
    mean1, mean4 = np.mean(accs[1]), np.mean(accs[4])
    ok = mean4 >= mean1 - 0.01
    _report(6, "multi-head non-inferiority", ok,
            f"(K=4 mean {mean4:.3f} vs K=1 mean {mean1:.3f} over 5 seeds, m=3)")


# ---------------------------------------------------------------------------
# Criterion 7: parameter accounting
# ---------------------------------------------------------------------------

def _expected_count(big_m, m, k, s, f, c_out, n_cls):
    return (
        (k - 1) * m * m
        + m * m
        + c_out * s * (k * m * m)
        + c_out
        + f * (f // 2) + (f // 2) * f
        + f * c_out * n_cls + n_cls
    )


def _build_model(rng, big_m, m, k, s, f, c_out, n_cls):
    channels = np.sort(rng.choice(big_m, m, replace=False))
    return Model(channels, big_m, n_windows=s, n_bands=f, n_classes=n_cls,
                 k_heads=k, conv_out=c_out, seed=0, sample_rate=250.0)


def test_criterion_7_parameter_accounting():
    rng = np.random.default_rng(77)
    configs = [
        dict(big_m=8, m=5, k=4, s=2, f=9, c_out=64, n_cls=2),
        dict(big_m=4, m=2, k=2, s=2, f=2, c_out=3, n_cls=2),
        dict(big_m=22, m=5, k=1, s=4, f=9, c_out=16, n_cls=4),
    ]
    failures = []
    counts = []
    for cfg in configs:
        model = _build_model(rng, **cfg)
        got = count_parameters(model)
        want = _expected_count(**cfg)
        counts.append(got)
        if got != want:
            failures.append(f"{cfg}: {got} != {want}")
    default_count = counts[0]  # criterion-5 shape under the default config
    if not (10_000 <= default_count <= 200_000):
        failures.append(f"default count {default_count} outside 10K-200K")
    _report(7, "parameter accounting", not failures,
            f"(counts {counts}, default {default_count}) {failures[:3]}")


# ---------------------------------------------------------------------------
# Criterion 8: formats and CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_8_formats_and_cli(tmp_path):
    rng = np.random.default_rng(88)
    failures = []

    covs = two_class_covariances(4, rng=rng)
    trials = synthetic_trials(covs, 10, 128, 250.0, rng=rng)
    p1, p2 = tmp_path / "a.eegb", tmp_path / "b.eegb"
    save_trials(trials, p1)
    save_trials(load_trials(p1), p2)
    if p1.read_bytes() != p2.read_bytes():
        failures.append("EEGB round trip not bit-exact")

    corrupted = bytearray(p1.read_bytes())
    corrupted[60] ^= 0x10
    p_bad = tmp_path / "bad.eegb"
    p_bad.write_bytes(bytes(corrupted))
    try:
        load_trials(p_bad)
        failures.append("corrupted byte went undetected")
    except ChecksumError:
        pass

    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "epochs = 2\nbatch_size = 16\nbands = 8-16;16-24\nwindow_len = 64\n"
        "m = 2\nk_heads = 2\nconv_out = 3\n"
    )
    r1, r2 = tmp_path / "cv1.csv", tmp_path / "cv2.csv"
    for rp in (r1, r2):
        code = cli_main(["eval-cv", "--config", str(cfg_path), "--data", str(p1),
                         "--folds", "3", "--report", str(rp)])
        if code != 0:
            failures.append(f"eval-cv exited {code}")
    if r1.read_bytes() != r2.read_bytes():
        failures.append("eval-cv reruns not byte-identical")

    rows = dict(
        line.split(",", 1) for line in r1.read_text().strip().splitlines()[1:]
    )
    folds = [float(rows[f"fold_{i}_accuracy"]) for i in range(3)]
    if abs(float(rows["mean_accuracy"]) - np.mean(folds)) > 1e-9:
        failures.append("report mean inconsistent with folds")
    if abs(float(rows["std_accuracy"]) - np.std(folds)) > 1e-9:
        failures.append("report std inconsistent with folds")
    confusion_total = sum(
        int(v) for k, v in rows.items() if k.startswith("confusion_")
    )
    if confusion_total != len(trials.trials):
        failures.append("confusion total != trial count")

    m1, m2 = tmp_path / "m1.sbcm", tmp_path / "m2.sbcm"
    for mp in (m1, m2):
        code = cli_main(["train", "--config", str(cfg_path), "--data", str(p1),
                         "--out", str(mp)])
        if code != 0:
            failures.append(f"train exited {code}")
    if m1.read_bytes() != m2.read_bytes():
        failures.append("train reruns not byte-identical")

    _report(8, "formats and CLI determinism", not failures, f"{failures[:3]}")


# ---------------------------------------------------------------------------
# Quality over seeds: criteria 3 and 5 each test one draw, so an estimator
# that loses quality on most draws can still pass them.  Both floors were
# set from measured runs and only ever rise.
# ---------------------------------------------------------------------------

#: Seeds of 1-20 on which the toy select-22ch chain finds the planted
#: channels; 19 measured (seed 2 misses), with no margin below that.
SELECTION_RECOVERY_FLOOR = 19
#: Mean held-out accuracy over seeds 301-305 of the reduced train-c5
#: shape; 0.940 measured (0.90-0.97 per seed), less a margin of 0.005.
MEAN_ACCURACY_FLOOR = 0.935


def test_selection_recovery_over_seeds():
    """The benchmark's toy select-22ch shape (22 channels, 500 Hz, 2000
    samples, 12 trials per class, 5 planted channels drawn from the
    seed) through ``prepare_dataset``, ``class_band_representatives``
    and ``select_channels`` finds the planted set on enough seeds."""
    cfg = TrainConfig(window_len=250, m=5)
    missed = []
    for seed in range(1, 21):
        rng = np.random.default_rng(seed)
        planted = sorted(int(c) for c in rng.choice(22, 5, replace=False))
        covs = two_class_covariances(22, planted=planted, separation=2.0, rng=rng)
        trials = synthetic_trials(covs, 12, 2000, 500.0, rng=rng)
        windows, labels = prepare_dataset(trials, cfg)
        picked = select_channels(cfg, class_band_representatives(windows, labels))
        if picked.selected_channels != planted:
            missed.append(seed)
    assert 20 - len(missed) >= SELECTION_RECOVERY_FLOOR, f"missed on seeds {missed}"


def test_mean_accuracy_over_seeds():
    """Criterion 5's class geometry with 100 fit and 50 held-out trials
    per class, drawn per seed, and the default config for 10 epochs:
    the mean held-out accuracy over seeds 301-305 clears the floor."""
    geometry = two_class_covariances(8, planted=[1, 3, 5], separation=2.0,
                                     rng=np.random.default_rng(55))
    cfg = TrainConfig(epochs=10)
    accuracies = []
    for seed in range(301, 306):
        rng = np.random.default_rng(seed)
        fit_set = synthetic_trials(geometry, 100, 250, 250.0, rng=rng)
        held_out = synthetic_trials(geometry, 50, 250, 250.0, rng=rng)
        model, _ = train(cfg, fit_set)
        covs, labels = prepare_dataset(held_out, cfg)
        accuracies.append(float(np.mean(predict(model, covs) == labels)))
    assert np.mean(accuracies) >= MEAN_ACCURACY_FLOOR, accuracies
