"""Host-speed sampling, so that timings taken on a shared host compare.

On a host shared with other tenants the speed of pure-Python code swings by
up to 2x within tens of seconds; a timing taken at one moment says as much
about the neighbours as about xconn.  A ``HostSpeed`` measures that speed
while the timed work runs: every ``INTERVAL`` seconds of wall time a SIGALRM
handler runs a fixed pure-Python calibration loop in the main thread, between
the bytecodes of whatever xconn is doing, and records how long it took.  The
mean of ``REF_SECONDS / sample`` over a window is the host's speed relative
to the reference host, and ``wall * speed`` is the window's time at the
reference speed.  Samples are taken at even wall-time steps, so the mean
weights every moment of the window alike, stalls included.

The calibration runs inside the timed window and costs about 2.5% of it;
that cost scales with the host speed like the rest of the window.

When the work runs in a process pool (``sweep-parallel``) the parent only
waits, and its speed says little about the workers'.  Then the pool class
the verifier looks up is replaced by one whose workers sample instead, every
``INTERVAL`` seconds of their own CPU time (so an idle worker takes no
samples), into counters shared with the parent.
"""

from __future__ import annotations

import multiprocessing
import signal
import statistics
import time

CAL_LOOPS = 3000
REF_SECONDS = 0.0004    # one calibration at the reference speed, about the
                        # median on the 2-core x86-64 VM the benchmark was tuned on
INTERVAL = 0.02


def calibrate() -> float:
    """Seconds one fixed calibration loop takes now."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_LOOPS):
        total += (i * i) % 7
        table[i & 63] = total
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Mean speed relative to the reference over calibration samples."""
    return statistics.fmean(REF_SECONDS / s for s in samples)


def _sample_in_worker(total, count) -> None:
    """Pool initializer: add each sample's speed to the shared counters."""
    def sample(signum, frame):
        value = REF_SECONDS / calibrate()
        with total.get_lock():      # a recursive lock, so a nested handler cannot deadlock
            total.value += value
            count.value += 1
    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)


class HostSpeed:
    """While entered, sample the host speed every ``INTERVAL`` seconds: in
    this process, or, given ``pooled``, a module whose ``ProcessPoolExecutor``
    runs the work, in that pool's workers only.

    ``take()`` returns the mean speed over the samples since the window
    began (on entering, or at the last ``restart()`` or ``take()``) and
    begins a new one."""

    def __init__(self, pooled=None):
        self.pooled = pooled
        self.samples: list[float] = []
        self._restore = None
        self._total = multiprocessing.Value("d", 0.0) if pooled else None
        self._count = multiprocessing.Value("q", 0) if pooled else None

    def _sample(self, signum, frame):
        self.samples.append(calibrate())

    def __enter__(self) -> HostSpeed:
        self.restart()
        if self.pooled is None:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
            self._restore = lambda: signal.signal(signal.SIGALRM, previous)
        else:
            base = self.pooled.ProcessPoolExecutor
            initargs = (self._total, self._count)

            class SampledPool(base):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, initializer=_sample_in_worker,
                                     initargs=initargs, **kwargs)

            self.pooled.ProcessPoolExecutor = SampledPool
            self._restore = lambda: setattr(self.pooled, "ProcessPoolExecutor", base)
        return self

    def __exit__(self, *exc) -> None:
        if self.pooled is None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._restore()

    def restart(self) -> None:
        self.samples = []
        if self.pooled is not None:
            self._total.value, self._count.value = 0.0, 0

    def take(self) -> float:
        if self.pooled is not None and self._count.value:
            mean = self._total.value / self._count.value
            self.restart()
            return mean
        samples = self.samples
        self.restart()
        if not samples:             # a window shorter than one interval
            samples = [calibrate()]
        return speed(samples)
