"""A fixed pure-Python reference loop that gauges the host's current speed.

Shared virtual machines change speed by tens of percent over minutes, each
virtual CPU on its own, and every workload here is interpreted Python, so
raw times move with the host.  After its timed run, each repetition times
this loop on the CPUs the run used: on its own pinned CPU for a serial
workload, on every CPU at once for the pooled sweep.  A repetition's
seconds are then reported at the reference speed as
``seconds * (NOMINAL_SECONDS / loop seconds) ** SENSITIVITY``.  The loop
mimics the simulator's hot path (a heap of timed callbacks on slotted
objects, dict counters, list indexing) but runs no simulator code, so a
change to the simulator cannot move it.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import statistics
import time

#: Loop seconds that define the reference host (the loop's median on a
#: 2-vCPU cloud VM in a quiet period); only ratios to it are reported.
NOMINAL_SECONDS = 0.05
#: How strongly the simulator's host time follows the loop's: when the
#: host slows the loop by a factor f, the workloads slow by about
#: f ** SENSITIVITY.  Log-log fits of run medians on the 2-vCPU VM gave
#: 0.6-1.2 (median 0.7); the tight loop suffers more from a busy sibling
#: hyperthread than the simulator does.
SENSITIVITY = 0.7
#: Events per timing of the loop.
EVENTS = 80_000
#: Timings per repetition; their median is the repetition's sample.
TIMINGS = 9


class _Node:
    __slots__ = ("index", "count", "table")

    def __init__(self, index: int, table: list) -> None:
        self.index = index
        self.count = 0
        self.table = table

    def fire(self, now: int) -> int:
        self.count += 1
        slot = (now + self.index) & 255
        self.table[slot] += 1
        return self.table[slot] & 15


def _loop(events: int) -> int:
    table = [0] * 256
    nodes = [_Node(index, table) for index in range(32)]
    heap = [(index, index, nodes[index].fire) for index in range(32)]
    heapq.heapify(heap)
    seq = len(heap)
    counts: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(events):
        now, _, fire = pop(heap)
        delay = fire(now) + 1
        counts[delay] = counts.get(delay, 0) + 1
        push(heap, (now + delay, seq, fire))
        seq += 1
    return sum(counts.values())


def reference_seconds() -> float:
    """Median seconds of :data:`TIMINGS` timings of the reference loop."""
    timings = []
    for _ in range(TIMINGS):
        started = time.perf_counter()
        _loop(EVENTS)
        timings.append(time.perf_counter() - started)
    timings.sort()
    return timings[len(timings) // 2]


def _pinned(cpu: int, start, results) -> None:
    os.sched_setaffinity(0, {cpu})
    start.wait(timeout=60)
    results.put(reference_seconds())


def parallel_reference_seconds(cpus: list[int]) -> float:
    """The loop timed at once on every CPU, combined like a pool's wall.

    A pool splits work dynamically, so its wall time scales with the
    harmonic mean of the CPUs' loop times (divided by the CPU count);
    this returns that harmonic mean.  A barrier starts the timings
    together, so each CPU is measured while the others are busy, as they
    are during the pooled run.
    """
    context = multiprocessing.get_context("spawn")
    start = context.Barrier(len(cpus))
    results = context.Queue()
    workers = [
        context.Process(target=_pinned, args=(cpu, start, results))
        for cpu in cpus
    ]
    for worker in workers:
        worker.start()
    seconds = [results.get(timeout=120) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
    return statistics.harmonic_mean(seconds)


def speed_factor(loop_seconds: float) -> float:
    """Multiplier that turns measured seconds into reference seconds."""
    return (NOMINAL_SECONDS / loop_seconds) ** SENSITIVITY
