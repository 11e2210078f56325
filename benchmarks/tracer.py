"""Outside-in span recorder for the spdbci benchmark.

The package itself carries no instrumentation.  :func:`install` replaces
the public functions and methods of the traced modules (and
``numpy.linalg.eigh``) with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  A function is
replaced under every module-level name that binds it, because
``from .layers import karcher_mean`` gives ``trainer`` its own binding
that a patch of ``layers.karcher_mean`` alone would miss.  Methods are
replaced on their class, where every instance looks them up.

Spans stay in memory and are summarised (calls, inclusive time, self
time) and written out when the run ends.  Self time is a span's duration
minus the time its child spans cover.  Work the recorder does to derive
a counter (the Karcher residual, the ReEig clamp fraction) runs in its
own ``bench.*`` span, and the speed probe's intervals are passed to
:meth:`Tracer.summary`; neither is charged to any layer, though both
show in the tracing overhead.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Modules whose public functions and methods are traced.
TRACED_MODULES = (
    "filterbank", "spd", "trainer", "layers", "selection", "classifier",
    "model", "eeg_io",
)


class Tracer:
    """Spans and counters recorded at the wrapped boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.eigh = np.linalg.eigh  # unwrapped, for the recorder's own use

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the traced modules of ``package`` and ``numpy.linalg.eigh``."""
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        if inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(name, fn))
                        elif isinstance(fn, classmethod):
                            self._patch(obj, meth, classmethod(self._wrap(name, fn.__func__)))
        # Rebind every module-level name that refers to a traced function.
        for modname, mod in list(sys.modules.items()):
            if not (modname == package.__name__ or modname.startswith(package.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        self._patch(np.linalg, "eigh", self._wrap("numpy.linalg.eigh", np.linalg.eigh))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    # -- results -----------------------------------------------------------

    def summary(self, excluded=()) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms.

        Time inside the ``excluded`` ``(start, end)`` intervals (the speed
        probe) and inside the benchmark's own ``bench.*`` spans (derived
        counters) is taken out of every span that encloses it.
        """
        overlap = _overlap_counter(excluded)
        net = [end - start - overlap(start, end) for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        own = [0.0] * len(self.spans)
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += net[i]
            if name.startswith("bench."):
                while parent >= 0:
                    own[parent] += net[i]
                    parent = self.spans[parent][3]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, (name, _, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["ms"] += 1e3 * (net[i] - own[i])
            row["self_ms"] += 1e3 * (net[i] - children[i])
        return dict(out)

    def write(self, path: str) -> None:
        """Write spans as ``[name index, start s, end s, parent]`` rows."""
        names: dict[str, int] = {}
        rows = []
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round(start - t0, 7), round(end - t0, 7), parent])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows,
                       "counters": dict(self.counters), "maxima": self.maxima}, fh)


def _overlap_counter(intervals):
    """A function giving the time ``[a, b]`` shares with the disjoint
    ``intervals``."""
    ordered = sorted(intervals)
    starts = [s for s, _ in ordered]
    ends = [e for _, e in ordered]
    cum = [0.0]
    for s, e in ordered:
        cum.append(cum[-1] + e - s)

    def overlap(a: float, b: float) -> float:
        i = bisect.bisect_right(ends, a)  # first interval ending after a
        j = bisect.bisect_left(starts, b)  # intervals starting before b end at j
        if j <= i:
            return 0.0
        total = cum[j] - cum[i] - max(0.0, a - starts[i]) - max(0.0, ends[j - 1] - b)
        return max(total, 0.0)

    return overlap


# -- counters derived at a boundary ------------------------------------------

def _batch_count(a: np.ndarray) -> int:
    return int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _after_eigh(tr: Tracer, args, kwargs, out) -> None:
    tr.add("numpy.linalg.eigh.matrices", _batch_count(np.asarray(args[0])))


def _after_karcher(tr: Tracer, args, kwargs, mean) -> None:
    """Riemannian gradient norm ``||mean_i log(M^-1/2 X_i M^-1/2)||_F`` at
    the returned mean: the residual a tolerance test would see."""
    batch = args[0]
    tr.add("layers.karcher_mean.matrices", batch.shape[0])
    with tr.span("bench.karcher_residual"):
        w, u = tr.eigh(mean)
        rm = (u / np.sqrt(w)) @ u.T
        white = rm @ batch @ rm
        w2, u2 = tr.eigh(0.5 * (white + _swap(white)))
        logs = (u2 * np.log(w2)[..., None, :]) @ _swap(u2)
        residual = float(np.linalg.norm(logs.mean(axis=0)))
    tr.maximum("layers.karcher_mean.residual_max", residual)


def _after_reeig(tr: Tracer, args, kwargs, out) -> None:
    layer, batch = args[0], args[1]
    with tr.span("bench.reeig_clamp"):
        w = np.linalg.eigvalsh(0.5 * (batch + _swap(batch)))
    tr.add("layers.ReEigLayer.clamped", int(np.count_nonzero(w < layer.epsilon)))
    tr.add("layers.ReEigLayer.eigenvalues", w.size)


def _after_segment(tr: Tracer, args, kwargs, out) -> None:
    tr.add("filterbank.segment.bytes_out", sum(t.data.nbytes for _, t in out))


def _after_fit_selection(tr: Tracer, args, kwargs, out) -> None:
    tr.add("selection.fit_selection.iterations", out.iterations_run)


def _after_save_model(tr: Tracer, args, kwargs, out) -> None:
    tr.add("eeg_io.save_model.bytes", os.path.getsize(args[1]))


def _after_load_model(tr: Tracer, args, kwargs, out) -> None:
    tr.add("eeg_io.load_model.bytes", os.path.getsize(args[0]))


_AFTER = {
    "numpy.linalg.eigh": _after_eigh,
    "layers.karcher_mean": _after_karcher,
    "layers.ReEigLayer.forward": _after_reeig,
    "filterbank.segment": _after_segment,
    "selection.fit_selection": _after_fit_selection,
    "eeg_io.save_model": _after_save_model,
    "eeg_io.load_model": _after_load_model,
}


# -- per-layer metrics -------------------------------------------------------

# (metric name, unit, source).  A source is (span name, field) for a span
# summary, or a counter key.
PER_LAYER: list[tuple[str, str, object]] = [
    ("layers.karcher_mean.calls", "count", ("layers.karcher_mean", "calls")),
    ("layers.karcher_mean.ms", "ms", ("layers.karcher_mean", "ms")),
    ("layers.karcher_mean.matrices", "count", "layers.karcher_mean.matrices"),
    ("layers.karcher_mean.residual_max", "norm", "layers.karcher_mean.residual_max"),
    ("numpy.linalg.eigh.calls", "count", ("numpy.linalg.eigh", "calls")),
    ("numpy.linalg.eigh.matrices", "count", "numpy.linalg.eigh.matrices"),
    ("numpy.linalg.eigh.ms", "ms", ("numpy.linalg.eigh", "ms")),
    *[
        (f"layers.{cls}.{meth}.self_ms", "ms", (f"layers.{cls}.{meth}", "self_ms"))
        for cls in ("BiMapLayer", "RbnLayer", "ReEigLayer", "LogEigLayer")
        for meth in ("forward", "backward")
    ],
    ("layers.ReEigLayer.clamp_frac", "frac", "layers.ReEigLayer.clamp_frac"),
    ("selection.MbtHeads.forward.ms", "ms", ("selection.MbtHeads.forward", "ms")),
    ("selection.MbtHeads.backward.ms", "ms", ("selection.MbtHeads.backward", "ms")),
    ("classifier.TangentClassifier.forward.ms", "ms",
     ("classifier.TangentClassifier.forward", "ms")),
    ("classifier.TangentClassifier.backward.ms", "ms",
     ("classifier.TangentClassifier.backward", "ms")),
    ("classifier.cross_entropy.ms", "ms", ("classifier.cross_entropy", "ms")),
    ("model.Model.forward.self_ms", "ms", ("model.Model.forward", "self_ms")),
    ("model.Model.backward.self_ms", "ms", ("model.Model.backward", "self_ms")),
    ("model.Model.step.self_ms", "ms", ("model.Model.step", "self_ms")),
    ("filterbank.design_bandpass.calls", "count", ("filterbank.design_bandpass", "calls")),
    ("filterbank.design_bandpass.ms", "ms", ("filterbank.design_bandpass", "ms")),
    ("filterbank.segment.self_ms", "ms", ("filterbank.segment", "self_ms")),
    ("filterbank.segment.bytes_out", "B", "filterbank.segment.bytes_out"),
    ("spd.covariance.calls", "count", ("spd.covariance", "calls")),
    ("spd.covariance.ms", "ms", ("spd.covariance", "ms")),
    ("trainer.prepare_dataset.self_ms", "ms", ("trainer.prepare_dataset", "self_ms")),
    ("trainer.class_band_representatives.ms", "ms",
     ("trainer.class_band_representatives", "ms")),
    ("selection.fit_selection.ms", "ms", ("selection.fit_selection", "ms")),
    ("selection.fit_selection.iterations", "count", "selection.fit_selection.iterations"),
    ("eeg_io.save_model.ms", "ms", ("eeg_io.save_model", "ms")),
    ("eeg_io.save_model.bytes", "B", "eeg_io.save_model.bytes"),
    ("eeg_io.load_model.ms", "ms", ("eeg_io.load_model", "ms")),
    ("eeg_io.load_model.bytes", "B", "eeg_io.load_model.bytes"),
]

#: Spans that must record calls on a workload, per the prediction table
#: in NOTES.md.  A rename or inlining that silently zeroes one fails the
#: traced run instead.
PREDICTED_TO_RUN: dict[str, tuple[str, ...]] = {
    "train-c5": (
        "layers.karcher_mean", "numpy.linalg.eigh",
        *[f"layers.{cls}.{meth}"
          for cls in ("BiMapLayer", "RbnLayer", "ReEigLayer", "LogEigLayer")
          for meth in ("forward", "backward")],
        "selection.MbtHeads.forward", "selection.MbtHeads.backward",
        "classifier.TangentClassifier.forward", "classifier.TangentClassifier.backward",
        "classifier.cross_entropy",
        "model.Model.forward", "model.Model.backward", "model.Model.step",
    ),
    "online-1trial": (
        "filterbank.design_bandpass", "filterbank.segment", "spd.covariance",
        "trainer.prepare_dataset", "eeg_io.save_model", "eeg_io.load_model",
    ),
    "select-22ch": (
        "layers.karcher_mean", "numpy.linalg.eigh",
        "filterbank.segment", "spd.covariance", "trainer.prepare_dataset",
        "trainer.class_band_representatives", "selection.fit_selection",
    ),
}


def layer_metrics(tracer: Tracer, excluded=()) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, zero where the layer did not run; time in
    ``excluded`` intervals is left out (see :meth:`Tracer.summary`)."""
    summary = tracer.summary(excluded)
    values = dict(tracer.counters)
    values.update(tracer.maxima)
    seen = values.get("layers.ReEigLayer.eigenvalues", 0)
    values["layers.ReEigLayer.clamp_frac"] = (
        values.get("layers.ReEigLayer.clamped", 0) / seen if seen else 0.0
    )
    out = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, tuple):
            span, field = source
            value = summary.get(span, {}).get(field, 0)
        else:
            value = values.get(source, 0)
        out[name] = (float(value), unit)
    return out


def missing_layers(tracer: Tracer, workload: str) -> list[str]:
    """Spans predicted to run on ``workload`` that recorded no call."""
    summary = tracer.summary()
    return [s for s in PREDICTED_TO_RUN[workload] if summary.get(s, {}).get("calls", 0) == 0]
