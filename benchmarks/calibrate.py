"""Machine-speed probe and the clock that scales timings by it.

On a shared machine the speed of one core drifts by up to about 2x over
tens of seconds, as neighbours come and go, which swamps any change in
the code.  The probe times a fixed kernel that does not touch spdbci and
mixes the same kinds of work as the workloads: a batched small-matrix
eigendecomposition, a causal IIR filter over a short multichannel
signal, and a Python loop of small numpy calls.  While a :class:`Clock`
runs, an interval timer fires the probe every ``PERIOD_S`` seconds, and
every timed stretch of wall time is rescaled by the probe times around
it, giving seconds "at reference speed": on a machine where the probe
takes ``REF_PROBE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass

import numpy as np
from scipy import signal as dsp

#: Timings are reported at the machine speed where the probe takes this
#: long: about its time on an idle core of a 2-core x86-64 VM with
#: OpenBLAS 0.3.31, so that reference figures read close to wall figures
#: on a quiet machine.
REF_PROBE_S = 0.6e-3
#: Seconds between two probes while a clock runs.  Contention comes in
#: bursts of a tenth of a second and more, so the probe must run often to
#: see them; at about 0.7 ms a probe, this costs about 3% of a run.
PERIOD_S = 0.02


class SpeedProbe:
    """A fixed kernel over fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((32, 8, 16))
        self._spd = a @ np.swapaxes(a, -1, -2) / 16 + 1e-3 * np.eye(8)
        self._signal = rng.standard_normal((8, 125))
        self._b, self._a = dsp.cheby2(4, 40.0, [8.0, 12.0], btype="bandpass", fs=250.0)
        self._small = rng.standard_normal((20, 8, 25))
        self._eigh = np.linalg.eigh  # bound now, so a traced run does not see it

    def _kernel(self) -> float:
        w, u = self._eigh(self._spd)
        logs = (u * np.log(w)[..., None, :]) @ np.swapaxes(u, -1, -2)
        filtered = dsp.lfilter(self._b, self._a, self._signal, axis=1)
        acc = float(logs.sum()) + float(filtered[:, -1].sum())
        for z in self._small:
            z = z - z.mean(axis=1, keepdims=True)
            acc += float(np.trace(z @ z.T))
        return acc

    def measure(self) -> float:
        """Time of one kernel run, in seconds."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


@dataclass(frozen=True)
class Interval:
    """A stretch of wall time, in ``time.perf_counter`` seconds."""

    start: float
    end: float


class Clock:
    """Runs the probe on a timer and converts intervals to reference time.

    The probe runs from a ``SIGALRM`` handler, which Python calls in the
    main thread between two bytecodes, so it never splits a numpy call
    and starts no thread.  The handler only appends one tuple, so it
    cannot corrupt any other state it interrupts.  The time the probe
    itself takes is cut out of every interval.  A piece of an interval
    between two probes is scaled by ``REF_PROBE_S`` over the mean of
    those two probe times; a piece before the first or after the last
    probe by the nearest one.  Convert intervals with :meth:`reference`
    after :meth:`mark` has probed once more, so that every interval has a
    probe on both sides.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self._marks: list[tuple[float, float, float]] = []  # (start, end, probe s)
        self._sorted: tuple[list, list, list] = ([], [], [])
        self._previous_handler = None

    def marks(self) -> list[tuple[float, float, float]]:
        """Every probe so far as ``(start, end, probe seconds)``, in time order."""
        return sorted(self._marks)

    def mark(self) -> None:
        """Probe now."""
        t0 = time.perf_counter()
        k = self.probe.measure()
        self._marks.append((t0, time.perf_counter(), k))

    def _on_alarm(self, signum, frame) -> None:
        self.mark()

    def start(self) -> None:
        self._marks = []
        self._sorted = ([], [], [])
        self.mark()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self.mark()

    def timed(self, fn, *args, **kwargs):
        """``(result, Interval)`` of one call."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, Interval(t0, time.perf_counter())

    def reference(self, iv: Interval) -> tuple[float, float]:
        """``(seconds at reference speed, wall seconds)`` of ``iv``, both
        without the probe's own time."""
        if len(self._sorted[0]) != len(self._marks):
            self._sorted = tuple(map(list, zip(*self.marks())))
        starts, ends, ks = self._sorted
        i = bisect.bisect_right(ends, iv.start)  # first probe ending after the start
        cur, ref, wall = iv.start, 0.0, 0.0
        while cur < iv.end:
            stop = min(starts[i], iv.end) if i < len(starts) else iv.end
            if stop > cur:
                near = [ks[j] for j in (i - 1, i) if 0 <= j < len(ks)]
                ref += (stop - cur) * REF_PROBE_S / (sum(near) / len(near))
                wall += stop - cur
            if i >= len(starts) or starts[i] >= iv.end:
                break
            cur = max(cur, ends[i])
            i += 1
        return ref, wall
