"""Discrete-event scheduling primitive used by the whole simulator.

Every component (cores, channels, the hybrid-memory controller) shares one
:class:`EventQueue`.  Time is integer CPU cycles; events scheduled for the
same cycle fire in insertion order, which keeps runs fully deterministic.

Two representations back the queue:

* a min-heap of ``(cycle, sequence, callback)`` for events in the future,
* a plain FIFO *fast lane* for events scheduled at the current cycle
  (zero-delay hops: posted-write acceptance, controller kicks, same-cycle
  continuations), which skip the heap entirely.

The split preserves the global firing order exactly.  Heap events at
cycle ``c`` are necessarily scheduled while ``now < c`` (a same-cycle
schedule goes to the FIFO instead), so every heap event at ``c`` precedes
every FIFO event created during ``c`` in insertion order; draining the
FIFO only once the heap's head has moved past ``now`` therefore yields
the same sequence as a single ``(cycle, sequence)`` heap.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Callable, Optional

from repro.common.errors import SimulationError

Callback = Callable[[int], None]

#: Stand-in for an absent ``run`` budget: no event count reaches it.
_NEVER = sys.maxsize


class EventQueue:
    """A min-heap of (cycle, sequence, callback) events with a same-cycle
    FIFO fast lane."""

    __slots__ = (
        "_heap",
        "_fifo",
        "_seq",
        "_now",
        "schedule_now",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callback]] = []
        self._fifo: deque[Callback] = deque()
        self._seq = 0
        self._now = 0
        #: Fast lane for ``schedule(self.now, cb)``: appends straight to
        #: the same-cycle FIFO with no Python frame.  Hot producers (the
        #: channel kick, posted-write acceptance) bind this once.
        #:
        #: The symmetric fast lane for *future* events is the inline-push
        #: contract: a hot producer that can prove ``cycle > now`` may
        #: push ``(cycle, self._seq, callback)`` onto ``self._heap`` with
        #: ``heapq.heappush`` directly and then increment ``self._seq``,
        #: skipping :meth:`schedule`'s frame and compare.  The channel
        #: tick, the core dispatch loop, and the controller's STC-hit
        #: path use it; everything else goes through :meth:`schedule`.
        self.schedule_now: Callable[[Callback], None] = self._fifo.append

    @property
    def now(self) -> int:
        """Cycle of the event currently (or most recently) being processed."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap) + len(self._fifo)

    def schedule(self, cycle: int, callback: Callback) -> None:
        """Schedule ``callback(cycle)`` to run at ``cycle`` (>= now)."""
        now = self._now
        if cycle == now:
            self._fifo.append(callback)
        elif cycle > now:
            heapq.heappush(self._heap, (cycle, self._seq, callback))
            self._seq += 1
        else:
            raise SimulationError(
                f"cannot schedule event at {cycle} before now={now}"
            )

    def release(self) -> None:
        """Drop every queued event; the simulation using the queue is over.

        Queued callbacks are bound methods and partials of the components
        that share this queue, and those components hold the queue, so
        the entries close reference cycles.  A finished run still leaves
        some behind (the channel ticks that the end-of-run ST write-backs
        kick, or everything queued when a run raises); dropping them lets
        reference counting free the simulation.
        """
        self._heap.clear()
        self._fifo.clear()

    def schedule_after(self, delay: int, callback: Callback) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        self.schedule(self._now + delay, callback)

    def step(self) -> bool:
        """Run the earliest event.  Returns False when the queue is empty."""
        heap = self._heap
        fifo = self._fifo
        if fifo and (not heap or heap[0][0] > self._now):
            fifo.popleft()(self._now)
            return True
        if not heap:
            return False
        cycle, _, callback = heapq.heappop(heap)
        self._now = cycle
        callback(cycle)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; returns the number of events processed.

        ``max_events`` is a runaway guard, not a pause button: if the
        ceiling is reached while events remain, a :class:`SimulationError`
        is raised (a silently truncated run is indistinguishable from a
        completed one, which is how hangs used to masquerade as results).
        """
        # Local bindings: the loop below is the hottest few lines of the
        # whole simulator, so every global/attribute lookup it avoids is
        # paid back millions of times.  The ``range`` iterator counts the
        # budget in C.
        heap = self._heap
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        now = self._now
        limit = max_events if max_events is not None else _NEVER
        for processed in range(limit):
            if fifo and (not heap or heap[0][0] > now):
                popleft()(now)
            elif heap:
                now, _, callback = heappop(heap)
                self._now = now
                callback(now)
            else:
                return processed
        if heap or fifo:
            raise SimulationError(
                f"event budget of {max_events} exhausted; likely a hang"
            )
        return limit
