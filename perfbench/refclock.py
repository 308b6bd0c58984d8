"""Drift-normalized timing: reference-seconds from a stdlib-only probe.

The host this benchmark runs on may change speed by up to 2x over tens of
seconds (shared vCPUs, no visible steal time).  A raw wall-clock number
then measures the host as much as the program.  Every timed step is
therefore bracketed by two samples of a fixed probe kernel, and its wall
time is rescaled to *reference-seconds*::

    ref = wall * (PROBE_REF_S / mean(probe_before, probe_after)) ** ELASTICITY

i.e. about the time the step would have taken on a host where one probe
sample takes exactly :data:`PROBE_REF_S`.  The probe never imports
``repro`` and runs with the garbage collector disabled, so neither the
program under test nor its heap can make the probe itself faster or
slower.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple, TypeVar

__all__ = ["ELASTICITY", "PROBE_REF_S", "RefClock", "Step", "probe_sample"]

T = TypeVar("T")

#: Seconds one probe sample takes on the reference host.  A constant of the
#: benchmark: changing it rescales every reference-second figure.
PROBE_REF_S = 0.0025

#: How strongly the checker's speed follows the probe's.  Under host
#: contention the small, cache-resident probe slows down more than the
#: checker does, so an exponent of 1 over-corrects slow periods.  Measured
#: on a 2-vCPU shared VM over ten runs of each workload: with 1 the
#: run-to-run spread (IQR / median) was 2.6-11%, with 0.85 it was 2.4-4%.
ELASTICITY = 0.85

_PROBE_NODES = 3000
_PROBE_REPS = 7


def _probe_kernel(n: int = _PROBE_NODES) -> int:
    """Dict/list/set churn plus an iterative DFS over a pseudo-random graph.

    Everything it builds is garbage on return: the probe keeps no
    allocations, so running it cannot grow the program's heap.
    """
    adj = {}
    x = 12345
    for node in range(n):
        out = []
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            out.append(x % n)
        adj[node] = out
    seen = set()
    order = []
    for root in range(n):
        if root in seen:
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            stack.extend(adj[node])
    return len(order)


def probe_sample() -> float:
    """One probe sample: the median of a few kernel runs, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(_PROBE_REPS):
            started = time.perf_counter()
            _probe_kernel()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


@dataclass
class Step:
    """One timed step: its wall interval and its drift factor."""

    name: str
    start: float
    end: float
    #: ``(PROBE_REF_S / mean(probe_before, probe_after)) ** ELASTICITY``.
    factor: float

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def ref(self) -> float:
        return self.wall * self.factor


@dataclass
class RefClock:
    """Times steps in reference-seconds, probing between consecutive steps.

    The probe taken after one step doubles as the "before" sample of the
    next, so back-to-back steps cost one probe each.  Probe time never
    falls inside a step's interval.
    """

    steps: List[Step] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    _last: float = 0.0

    def probe(self) -> float:
        sample = probe_sample()
        self.probes.append(sample)
        self._last = sample
        return sample

    def step(self, name: str, fn: Callable[[], T]) -> Tuple[T, Step]:
        """Run ``fn()`` as one timed step; return its result and timing."""
        before = self._last or self.probe()
        started = time.perf_counter()
        out = fn()
        ended = time.perf_counter()
        after = self.probe()
        factor = (PROBE_REF_S * 2.0 / (before + after)) ** ELASTICITY
        step = Step(name, started, ended, factor)
        self.steps.append(step)
        return out, step
