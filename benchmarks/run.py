"""spdbci benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (train-c5, online-1trial or select-22ch) against the
package under ``src/`` of this checkout and prints, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, untraced, with every
timing at reference speed (see calibrate.py).  ``--trace 1``
runs the workload untraced and then again with every public function of
the traced modules wrapped (see tracer.py), and reports the per-layer
metrics plus the tracing overhead (traced minus untraced end-to-end
values).  The environment, the full result and, for a traced run, the
spans are written under ``.bench_out/`` at the checkout root.

BLAS is pinned to one thread: each workload is one caller in one process
with no extra threads.  ``--toy`` shrinks every workload for the smoke
test; toy figures are not comparable with real ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: (name, unit) of every end-to-end metric; NOTES.md gives each one's
#: meaning per workload.
END_TO_END = (
    ("setup_s", "s"),
    ("prepare_trials_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("online_p50_ms", "ms"),
    ("online_p99_ms", "ms"),
    ("accuracy", "frac"),
    ("peak_rss_mb", "MB"),
)
#: End-to-end timings whose traced-minus-untraced difference is reported.
OVERHEAD_OF = ("setup_s", "prepare_trials_per_s", "trials_per_s",
               "online_p50_ms", "online_p99_ms")
SETUP_REPEATS = 3


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_pass(workload, seed, setups, ctx, tracer=None):
    """Set up ``setups`` times (timing each), then measure once, with the
    speed probe running throughout.

    Returns the end-to-end figures at reference speed, the same figures
    as wall time, and the workload's details.
    """
    ctx.clock.start()
    try:
        setup_times = []
        for _ in range(setups):
            with tracer.span("bench.setup") if tracer is not None else nullcontext():
                state, iv = ctx.clock.timed(ctx.ops.stage, workload.setup, seed)
            setup_times.append(iv)
        with tracer.span("bench.measure") if tracer is not None else nullcontext():
            ref, wall, detail = workload.measure(state, ctx)
    finally:
        ctx.clock.stop()
    pairs = [ctx.clock.reference(iv) for iv in setup_times]
    ref["setup_s"] = statistics.median(r for r, _ in pairs)
    wall["setup_s"] = statistics.median(w for _, w in pairs)
    detail["probe_ms"] = [1e3 * k for _, _, k in ctx.clock.marks()]
    return ref, wall, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "spdbci" / "__init__.py").is_file():
        print(f"error: no spdbci package under {src}", file=sys.stderr)
        return 2
    # Before numpy loads: one BLAS thread, as the workloads have one caller.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import spdbci
    import calibrate
    import tracer as tracing
    import workloads

    if Path(spdbci.__file__).resolve().parent != (src / "spdbci").resolve():
        print(f"error: imported spdbci from {spdbci.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.make(args.workload, args.toy, str(OUT_DIR))
    min_samples = 20 if args.toy else workloads.MIN_LATENCY_SAMPLES
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "toy": args.toy}

    # The probe is built before any tracing, so it binds the plain eigh.
    clock = calibrate.Clock(calibrate.SpeedProbe())
    ctx = workloads.Context(workloads.Ops(), clock, args.seconds, min_samples)
    ops = ctx.ops
    problems: list[str] = []
    try:
        untraced, wall, detail = run_pass(workload, args.seed, SETUP_REPEATS, ctx)
        untraced["peak_rss_mb"] = wall["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        record["untraced"] = {"metrics": untraced, "wall": wall, "detail": detail}
        if args.trace:
            rec = tracing.Tracer()
            rec.install(spdbci)
            try:
                traced, twall, tdetail = run_pass(workload, args.seed, 1, ctx, rec)
            finally:
                rec.uninstall()
            missing = tracing.missing_layers(rec, args.workload)
            if missing:
                problems.append("no calls recorded for predicted layers: " + ", ".join(missing))
            values = tracing.layer_metrics(rec, [(s, e) for s, e, _ in clock.marks()])
            for name in OVERHEAD_OF:
                unit = dict(END_TO_END)[name]
                values[f"trace.overhead.{name}"] = (traced[name] - untraced[name], unit)
            values["trace.spans"] = (float(len(rec.spans)), "count")
            values["trace.probe_ms"] = (statistics.median(tdetail["probe_ms"]), "ms")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            record["traced"] = {"metrics": traced, "wall": twall, "detail": tdetail}
            rec.write(str(OUT_DIR / f"{tag}-spans.json"))
        else:
            metrics = {name: {"value": float(untraced[name]), "unit": unit}
                       for name, unit in END_TO_END}
    except Exception as exc:  # a failed check or stage ends the run, reported below
        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
        metrics = {}

    problems += ops.errors
    correct = not problems and ops.failed == 0
    attempted, failed = max(ops.attempted, 1), ops.failed
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result=result, problems=problems)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
