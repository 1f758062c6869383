"""Host-speed correction of measured times.

The benchmark runs on a machine whose cores are shared: the same pass can
take 1.5x as long a minute later, the speed changes within a second as well,
and process CPU time grows with wall time, so no clock removes the slowdown.
So the benchmark samples the host's speed while it measures: it times a short
fixed reference loop (exact Fraction arithmetic into a dict keyed by tuples,
the kind of work the package does) right before and right after each job,
and, from inside the process that runs the job, every SAMPLE_EVERY_S seconds
during it (a SIGALRM handler; see start_sampling).  A job's corrected time is

    (measured seconds - time spent in the handler) * REF_S / mean(samples)

that is, its time on a host that runs the reference loop in REF_S seconds.
The reference loop is the benchmark's own code and never calls the program,
so a change to the program moves corrected times as it moves measured ones;
what the correction takes out is the host's speed while the job ran.  The
loop runs with the garbage collector off, so that a program that holds more
objects cannot slow the reference instead of itself.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# the reference loop's time, in seconds, on the host where the benchmark was
# defined when its cores were not contended (Python 3.11, 2.1 GHz vCPU); it
# only fixes the unit of corrected times
REF_S = 0.001
SAMPLE_EVERY_S = 0.05


def _reference_work(n: int = 150) -> dict:
    acc: dict = {}
    for i in range(1, n):
        a = Fraction(i, 7)
        b = Fraction(3, i + 1)
        key = (i % 13, i % 3)
        acc[key] = acc.get(key, 0) + a * b - b / a
    return acc


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# filled by the SIGALRM handler while sampling is on
samples: list[float] = []
handler_s = 0.0


def _on_alarm(signum, frame):
    global handler_s
    t0 = time.perf_counter()
    samples.append(reference_s())
    handler_s += time.perf_counter() - t0


def start_sampling() -> None:
    """Time the reference loop every SAMPLE_EVERY_S seconds of wall time, in
    this process's main thread, but only inside `measure()` blocks."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)


def stop_sampling() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_IGN)  # drops a pending alarm
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


@contextmanager
def measure():
    """Time the block.  The yielded dict holds, on exit, `seconds` (less the
    time spent sampling) and `refs` (reference times just before, during and
    just after the block; during only if sampling is on)."""
    result: dict = {}
    before = reference_s()
    n0, h0 = len(samples), handler_s
    t0 = time.perf_counter()
    # the handler runs only here, so that all its time falls inside t0..t1
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    try:
        yield result
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        t1 = time.perf_counter()
        result["seconds"] = t1 - t0 - (handler_s - h0)
        result["refs"] = [before, *samples[n0:], reference_s()]


def corrected(seconds: float, refs: list[float]) -> float:
    """`seconds` at the reference host speed, given the reference loop's
    times taken around and during them (see the module docstring)."""
    return seconds * REF_S * len(refs) / sum(refs)
