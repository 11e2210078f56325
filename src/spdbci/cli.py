"""Command-line surface.

Subcommands: train, eval-cv, eval-holdout, select, bench, gen-synthetic.
Reports are plain CSV so re-runs can be compared byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys

from .config import TrainConfig, config_to_mapping, load_config, read_key_values
from .eeg_io import load_model, load_trials, save_model, save_trials, write_file
from .errors import SpdBciError
from .model import count_parameters, model_to_bundle
from .synth import generate_from_spec
from .trainer import (
    bench_inference,
    class_band_representatives,
    evaluate_cv,
    evaluate_holdout,
    prepare_dataset,
    select_channels,
    train,
)


def _write_csv(path, lines: list[str]) -> None:
    """Write ``lines`` as a UTF-8 CSV report, one per line."""
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_report(report, path) -> None:
    lines = ["metric,value"]
    for i, acc in enumerate(report.fold_accuracies):
        lines.append(f"fold_{i}_accuracy,{acc:.12f}")
    lines.append(f"mean_accuracy,{report.mean_accuracy:.12f}")
    lines.append(f"std_accuracy,{report.std_accuracy:.12f}")
    lines.append(f"std_convention,{report.std_convention}")
    lines.append(f"parameter_count,{report.parameter_count}")
    n = report.confusion.shape[0]
    for i in range(n):
        for j in range(n):
            lines.append(f"confusion_{i}_{j},{report.confusion[i, j]}")
    _write_csv(path, lines)


def _load_config(path) -> TrainConfig:
    return load_config(path) if path else TrainConfig()


def cmd_train(args) -> int:
    config = _load_config(args.config)
    trials = load_trials(args.data)
    model, losses = train(config, trials)
    save_model(model_to_bundle(model, config_to_mapping(config)), args.out)
    print(f"trained {config.epochs} epochs; final loss "
          f"{losses[-1]:.6f}" if losses else "trained 0 epochs")
    print(f"parameters: {count_parameters(model)}")
    return 0


def cmd_eval_cv(args) -> int:
    config = _load_config(args.config)
    trials = load_trials(args.data)
    report = evaluate_cv(config, trials, folds=args.folds)
    _write_report(report, args.report)
    print(f"cv accuracy {report.mean_accuracy:.4f} (+/- {report.std_accuracy:.4f})")
    return 0


def cmd_eval_holdout(args) -> int:
    config = _load_config(args.config)
    train_set = load_trials(args.train)
    eval_set = load_trials(args.test)
    report = evaluate_holdout(config, train_set, eval_set)
    _write_report(report, args.report)
    print(f"holdout accuracy {report.mean_accuracy:.4f}")
    return 0


def cmd_select(args) -> int:
    config = _load_config(args.config)
    trials = load_trials(args.data)
    covs, labels = prepare_dataset(trials, config)
    result = select_channels(config, class_band_representatives(covs, labels))
    lines = ["key,value"]
    lines.append("selected_channels," + " ".join(str(c) for c in result.selected_channels))
    lines.append(f"iterations,{result.iterations_run}")
    lines.append(f"final_drift,{result.final_drift:.12e}")
    for i, obj in enumerate(result.objective_trace):
        lines.append(f"objective_{i},{obj:.12e}")
    _write_csv(args.out, lines)
    print(f"selected channels: {result.selected_channels}")
    return 0


def cmd_bench(args) -> int:
    bundle = load_model(args.model)
    trials = load_trials(args.data)
    stats = bench_inference(bundle, trials, repetitions=args.reps)
    _write_csv(args.report, ["metric,value"] + [f"{key},{value}" for key, value in stats.items()])
    print(f"mean latency {stats['mean_s'] * 1e3:.2f} ms over {stats['samples']} runs")
    return 0


def cmd_gen_synthetic(args) -> int:
    trials = generate_from_spec(read_key_values(args.spec))
    save_trials(trials, args.out)
    print(f"wrote {len(trials.trials)} trials to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdbci",
        description="SPD-manifold EEG motor-imagery pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save the bundle")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-cv", help="stratified cross-validation")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval_cv)

    p = sub.add_parser("eval-holdout", help="train on one set, test on another")
    p.add_argument("--config", default=None)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval_holdout)

    p = sub.add_parser("select", help="fit channel selection and dump indices")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bench", help="benchmark per-trial inference latency")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic EEGB file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpdBciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
