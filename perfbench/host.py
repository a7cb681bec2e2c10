"""Host fingerprint, host-speed normalisation and peak-RSS measurement.

Every result carries the host it was measured on, so numbers from a
different or loaded machine can be told apart from a real change.

On a shared host the core's speed swings with its neighbours' load: a
fixed pure-Python loop has taken anywhere from 9 to 40 ms on the same
2-vCPU machine within one hour.  :class:`HostSpeed` samples that speed
while a block runs and rescales the block's wall time to a reference
core speed, so a timing reflects the program rather than the hour.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time

_STATUS = "/proc/self/status"
_CLEAR_REFS = "/proc/self/clear_refs"

#: loop iterations of one speed probe: about a millisecond
PROBE_ITERATIONS = 20_000
#: wall seconds between probes while a block runs
PROBE_INTERVAL_S = 0.05
#: a probe's time on an unloaded core of an Intel Xeon at 2.1 GHz, so
#: that normalised seconds read close to wall seconds on that core
REFERENCE_PROBE_S = 1.0e-3
#: probes whose median is the fingerprint's ``calibration_ms``
CALIBRATION_REPEATS = 50


def spin(iterations: int) -> float:
    """Wall seconds of a fixed pure-Python loop of ``iterations`` steps."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i % 7
    return time.perf_counter() - start


def calibration_ms() -> float:
    """Median time of one speed probe, in milliseconds.

    The loop does the same interpreter work on every host, so its time
    tracks the speed and current load of the core running the benchmark:
    a run whose calibration is off from its neighbours ran on a noisy host.
    """
    return statistics.median(
        spin(PROBE_ITERATIONS) for _ in range(CALIBRATION_REPEATS)
    ) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict[str, object]:
    """CPU, core count, load, library versions and the calibration time."""
    import numpy
    import scipy

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_ms": calibration_ms(),
    }


class HostSpeed:
    """Wall time of a ``with`` block, and the same rescaled to the reference core.

    A ``SIGALRM`` interval timer runs a speed probe every
    :data:`PROBE_INTERVAL_S` in the main thread; one more probe runs on
    entry, before the clock starts.  ``slowdown`` is the mean probe time
    over :data:`REFERENCE_PROBE_S`: the probes sit at even wall
    intervals, so it weights each stretch of the block by its length.
    ``wall_s`` is the block's wall time, probes included; ``normalised_s``
    is its wall time without the probes, divided by ``slowdown``.
    Enter only from the main thread.
    """

    def __enter__(self) -> "HostSpeed":
        self._probes = [spin(PROBE_ITERATIONS)]
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _probe(self, _signum, _frame) -> None:
        self._probes.append(spin(PROBE_ITERATIONS))

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.slowdown = statistics.fmean(self._probes) / REFERENCE_PROBE_S
        probing_s = sum(self._probes[1:])
        self.normalised_s = (self.wall_s - probing_s) / self.slowdown


def _status_kb(field: str) -> int:
    with open(_STATUS) as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from {_STATUS}")


class PeakRss:
    """Peak resident memory of this process over a ``with`` block, in MiB.

    Resets the kernel's high-water mark (VmHWM) through
    ``/proc/self/clear_refs`` on entry and reads it back on exit, so
    memory held only during set-up does not count.  Raises ``OSError``
    where that file cannot be written (kernels before 4.0, or not Linux).
    """

    def __enter__(self) -> "PeakRss":
        self.mb = 0.0
        with open(_CLEAR_REFS, "w") as handle:
            handle.write("5")
        return self

    def __exit__(self, *exc) -> None:
        self.mb = _status_kb("VmHWM") / 1024.0
