"""Machine speed, sampled while ops run, to put op times in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same op at the same seed takes anywhere from 1x to 2x as long from one
second to the next, and the slow stretches last from seconds to minutes,
longer than a run. The drift moves a fixed calibration kernel (small complex
matrix products and QR factorizations driven from Python, the same mix of
interpreter and small-BLAS work as the package) by the same factor as the
package's ops.

:class:`SpeedProbe` runs that kernel for a few milliseconds on an interval
timer while an op runs, in a ``SIGALRM`` handler of the main thread, and
once right before and after each op. An op's wall time, with the handler's
own time taken out, times ``REF_KERNEL_S`` over the mean kernel time
sampled during the op, is its time in *reference seconds*: what it would
take when the kernel runs in ``REF_KERNEL_S``. The kernel depends on
numpy alone, so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KERNEL_ROUNDS = 100
# Kernel time on the benchmark's build host (2 vCPU Xeon, 2.0 GHz) in its
# fast phase. It only sets the scale of a reference second.
REF_KERNEL_S = 0.004
INTERVAL_S = 0.2


def _kernel_input():
    rng = np.random.default_rng(0)
    return rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))


_A0 = _kernel_input()


def kernel():
    """The fixed calibration work; returns its wall time in s."""
    t0 = time.perf_counter()
    a = _A0
    for _ in range(KERNEL_ROUNDS):
        q, _ = np.linalg.qr(a)
        a = a + 1e-3 * (q @ (a.conj().T @ q))
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel samples and the time their handler took from the caller.

    ``samples`` holds (start, duration) of every kernel run. Between
    ``start`` and ``stop`` the interval timer samples; ``mark`` samples once
    between ops, and ``op_span`` turns two marks into (wall time without
    the handler, kernel time sampled in it).
    """

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.handler_s = 0.0  # wall time spent in the handler, kernel included

    def sample(self):
        t0 = time.perf_counter()
        self.samples.append((t0, kernel()))
        return t0

    def _on_alarm(self, signum, frame):
        t0 = self.sample()
        self.handler_s += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """A point between ops: (clock before, clock after, handler total) of one kernel sample.

        The timer's signal waits until the mark is taken, so the handler
        total counts exactly the handler runs before it.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            before = self.sample()
            return before, time.perf_counter(), self.handler_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def op_span(self, start, end):
        """(op wall time without handler time, mean kernel time) between two marks.

        The kernel times are those of the samples at both marks and every
        sample the timer took in between.
        """
        first, t0, h0 = start
        t1, _, h1 = end
        kernel_s = [d for s, d in self.samples if first <= s <= t1]
        return (t1 - t0) - (h1 - h0), statistics.fmean(kernel_s)


def reference_s(wall_s, kernel_s):
    """Wall time at measured kernel time ``kernel_s``, in reference seconds."""
    return wall_s * REF_KERNEL_S / kernel_s
