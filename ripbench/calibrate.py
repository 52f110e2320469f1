"""Machine-speed calibration: timing metrics at a fixed reference speed.

The benchmark shares a few cores of a host whose speed changes under it.
On a 2-vCPU VM each vCPU switched, every second or so and independently of
the other, between two speeds about 1.5x apart (its sibling hardware
thread busy or not with other tenants' work), and the share of slow time
drifted from minute to minute.  Ten runs of the same code then spread by a
quarter or more however long each run was.

So every timed interval is bracketed by two timings of a fixed reference
workload — a pure-Python loop and a loop of small numpy operations, the
two kinds of work the program does — run on both cores at once: inside a
sweep's own process right before and after its ``design_population`` call,
and in the benchmark process around each daemon spawn and each round of
service load.  The interval's *slowness* is the mean of the timings over
:data:`REFERENCE_S`, and the benchmark reports ``seconds / slowness`` (and
rates times slowness): what the interval would have taken on a host where
the reference takes :data:`REFERENCE_S`.

The reference workload does not use the program under test, so a faster
program still reports faster times; only the host's speed cancels.  Each
run also prints its unscaled timings and median slowness.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Optional, Sequence

import numpy as np

#: Seconds the reference workload takes on the reference host (a 2-vCPU VM
#: at its usual speed); only a scale, the same for every run.
REFERENCE_S = 0.035
#: Processes that time the reference at once: one per core of that host.
REFERENCE_PROCESSES = 2

_VECTOR = np.linspace(0.1, 1.0, 400)


def _python_loop() -> float:
    accumulator = 0.0
    table = {}
    for index in range(60000):
        value = (index * 0.37) % 1.3
        accumulator += value * value - accumulator * 1e-6
        table[index & 255] = accumulator
    return sorted(table.values())[0]


def _numpy_loop() -> int:
    position = 0
    for index in range(1500):
        shifted = _VECTOR * 1.0001 + index
        position += int(np.argmin(np.minimum(shifted, shifted[::-1]).cumsum()))
    return position


def _timed_three_times(connection) -> None:
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        _python_loop()
        _numpy_loop()
        timings.append(time.perf_counter() - started)
    connection.send(statistics.median(timings))
    connection.close()


def reference_seconds() -> float:
    """Seconds of the reference workload on the host as it is now.

    :data:`REFERENCE_PROCESSES` forked processes each time it three times
    at once; the mean of their medians.
    """
    context = multiprocessing.get_context("fork")
    pipes = [context.Pipe(duplex=False) for _ in range(REFERENCE_PROCESSES)]
    children = [context.Process(target=_timed_three_times, args=(end,)) for _, end in pipes]
    for child in children:
        child.start()
    try:
        return statistics.mean(receiver.recv() for receiver, _ in pipes)
    finally:
        for child in children:
            child.join()


def slowness(reference_s: Sequence[float]) -> float:
    """Slowness of an interval from its bracketing reference timings."""
    return statistics.mean(reference_s) / REFERENCE_S


class Calibration:
    """Slowness of consecutive timed intervals in the benchmark process.

    ``start()`` before an interval and ``stop()`` after it; an interval that
    starts where the previous one stopped reuses that reference timing, so
    back-to-back intervals cost one reference timing each.
    """

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def start(self) -> None:
        if self._last is None:
            self._last = reference_seconds()

    def stop(self) -> float:
        """Slowness of the interval since ``start()`` (1.0 at reference speed)."""
        if self._last is None:
            raise RuntimeError("Calibration.stop() without start()")
        after = reference_seconds()
        value = slowness([self._last, after])
        self._last = after
        return value

    def forget(self) -> None:
        """Untimed work follows: the next ``start()`` times the reference anew."""
        self._last = None
