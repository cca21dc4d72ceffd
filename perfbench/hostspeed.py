"""Host speed: a fixed reference routine timed next to each measurement.

On a shared VM the speed of a vCPU drifts with other tenants' load: a
fixed pure-Python loop timed back to back for minutes took between
0.086 s and 0.185 s, in phases that last from seconds to minutes, and
ten benchmark runs in a row spread by up to 47 % of their median.  So
every timed interval (one operation, one set-up) is bracketed by
:func:`reference_seconds` on the same CPU, and reported scaled to the
reference speed::

    normalised = wall * REFERENCE_S / mean(reference before, after)

That is the interval's length on a host where the reference takes
``REFERENCE_S``.  The routine uses only the interpreter and numpy, never
the program, so a change to the program moves the interval and not the
reference.  The raw wall times stay in the report lines.

:func:`pin` and :func:`on_cpu` keep the work and its reference on
one CPU, so both see the same tenant load.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

#: About the median of :func:`reference_seconds` on the 2-vCPU VM the
#: benchmark was written on (Python 3.11, numpy 2.4, 0.022-0.037 s over
#: an hour); it only sets the scale of the normalised figures.
REFERENCE_S = 0.030

_DATA = np.random.default_rng(0).random(20_000)


def _routine() -> float:
    # interpreter work (integer arithmetic, dict stores), the bulk of
    # the program's per-trial and per-request cost
    total = 0
    table = {}
    for i in range(200_000):
        total += i
        table[i & 255] = total
    # numpy calls on small arrays, the per-chunk and per-frame cost
    acc = 0.0
    for _ in range(60):
        acc += float(np.sort(_DATA)[7] + np.cumsum(_DATA)[-1])
    return acc + len(table)


def reference_seconds() -> float:
    """Wall time of one run of the reference routine."""
    start = time.perf_counter()
    _routine()
    return time.perf_counter() - start


def normalise(wall: float, reference: float) -> float:
    """``wall`` seconds, scaled to the reference speed; ``reference`` is
    the mean reference time measured before and after the interval."""
    return wall * REFERENCE_S / reference


def cpus() -> list:
    """The CPUs this process may run on, in order."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


def pin(cpu) -> None:
    """Pin this process (and the children it spawns later) to ``cpu``."""
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


@contextlib.contextmanager
def on_cpu(cpu):
    """Run the block on ``cpu``, then restore the previous affinity.

    Children spawned inside the block inherit ``cpu``."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)
