"""Trace-driven core timing model.

Substitute for the paper's 4-wide out-of-order core (Table 8): the core
retires non-memory instructions at ``issue_ipc`` and tolerates up to
``mlp`` outstanding main-memory reads before stalling — a first-order
model of ROB-limited memory-level parallelism.  Writes retire through a
bounded write buffer and stall the core only when the buffer is full.

This captures what migration policies are actually sensitive to: how much
main-memory latency each program can hide, and how stalls couple cores
through channel contention.  Absolute IPC is not calibrated to any real
machine; all paper figures are normalized comparisons.

The per-request front end is batched (DESIGN.md §12): the trace's gap /
address / op streams are decoded into preformed tables by
:class:`~repro.traces.decode.TraceDecoder`, and the issue loop walks a
cursor over one decoded chunk at a time.  Instructions retired are a
prefix-sum lookup rather than per-request accumulation, so the dispatch
path touches exactly three list elements per request.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Callable, Optional

from repro.common.config import CoreConfig
from repro.common.events import EventQueue
from repro.cpu.trace import Trace
from repro.traces.decode import DEFAULT_CHUNK_REQUESTS, TraceDecoder


class TraceCore:
    """Replays one program's trace against a memory access function.

    ``access`` is called as ``access(core_id, line, is_write,
    on_complete)`` with the trace's line as given; address translation is
    the caller's concern (:class:`repro.sim.engine.SimulationDriver`
    hands each core its trace already translated to physical lines).
    ``on_pass_complete`` fires each time the trace finishes one pass; it
    returns True to replay the trace again (workload repetition,
    Section 4.2) or False to stop the core.

    ``chunk_requests`` bounds how many decoded requests are resident as
    Python objects at once; the default keeps typical traces in a single
    chunk (see :mod:`repro.traces.decode`).
    """

    __slots__ = (
        "core_id",
        "config",
        "trace",
        "events",
        "access",
        "on_pass_complete",
        "passes_completed",
        "outstanding_reads",
        "writes_in_flight",
        "stopped",
        "finished_at",
        "_waiting_for_read",
        "_waiting_for_write",
        "_decoder",
        "_chunk_index",
        "_chunk_start",
        "_cursor",
        "_limit",
        "_cycles",
        "_lines",
        "_writes",
        "_retired_prefix",
        "_retired_base",
        "_mlp",
        "_write_buffer",
        "_issue_next_cb",
        "_dispatch_cb",
        "_on_read_complete_cb",
        "_on_write_complete_cb",
        "__weakref__",
    )

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: Trace,
        events: EventQueue,
        access: Callable[[int, int, bool, Callable[[int], None]], None],
        on_pass_complete: Optional[Callable[[int, int], bool]] = None,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.events = events
        self.access = access
        self.on_pass_complete = on_pass_complete
        self.passes_completed = 0
        self.outstanding_reads = 0
        self.writes_in_flight = 0
        self.stopped = False
        self.finished_at: Optional[int] = None
        self._waiting_for_read = False
        self._waiting_for_write = False
        # Batched front end: the decoder holds the vectorized numpy
        # tables; the core walks plain-list views one chunk at a time.
        self._decoder = TraceDecoder(trace, config.issue_ipc, chunk_requests)
        self._retired_base = 0
        self._load_chunk(0)
        self._mlp = config.mlp
        self._write_buffer = config.write_buffer
        # Pre-bound callbacks: one bound-method object reused for every
        # event instead of a fresh binding per schedule call.
        self._issue_next_cb = self._issue_next
        self._dispatch_cb = self._dispatch
        self._on_read_complete_cb = self._on_read_complete
        self._on_write_complete_cb = self._on_write_complete

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first instruction at cycle 0."""
        self.events.schedule(self.events.now, self._issue_next_cb)

    def stop(self) -> None:
        """Cease issuing after in-flight work completes."""
        self.stopped = True

    def release(self) -> None:
        """Drop the callbacks that tie the core to its finished simulation.

        ``access`` and ``on_pass_complete`` are bound methods of the
        driver that owns the core, and the four cached ``*_cb`` callbacks
        are bound methods of the core itself: each closes a reference
        cycle.  Counters and ``instructions_retired`` stay readable; the
        core cannot issue again.
        """
        del self.access, self.on_pass_complete
        del self._issue_next_cb, self._dispatch_cb
        del self._on_read_complete_cb, self._on_write_complete_cb

    @property
    def ipc(self) -> float:
        """Instructions per cycle up to now (or up to finish)."""
        end = self.finished_at if self.finished_at is not None else self.events.now
        return self.instructions_retired / end if end > 0 else 0.0

    @property
    def instructions_retired(self) -> int:
        """Instructions retired so far (prefix-sum lookup, not a counter)."""
        return self._retired_base + self._retired_prefix[self._cursor]

    @property
    def index(self) -> int:
        """Position of the next request within the current pass."""
        return self._chunk_start + self._cursor

    # ------------------------------------------------------------------
    def _load_chunk(self, index: int) -> None:
        chunk = self._decoder.chunk(index)
        self._chunk_index = index
        self._chunk_start = chunk.start
        self._cursor = 0
        self._limit = chunk.length
        self._cycles = chunk.cycles
        self._lines = chunk.lines
        self._writes = chunk.writes
        self._retired_prefix = chunk.retired_prefix

    def _refill(self, now: int) -> bool:
        """Advance past an exhausted chunk.

        Loads the next chunk (or, at end of trace, consults
        ``on_pass_complete`` and restarts at chunk 0).  Returns False
        when the core finished instead.  The retired base is folded
        forward — and the cursor zeroed — *before* ``on_pass_complete``
        runs, so ``instructions_retired`` stays exact for the driver's
        end-of-run snapshot.
        """
        self._retired_base += self._retired_prefix[self._limit]
        self._cursor = 0
        next_index = self._chunk_index + 1
        if next_index < self._decoder.num_chunks:
            self._load_chunk(next_index)
            return True
        self.passes_completed += 1
        replay = False
        if self.on_pass_complete is not None:
            replay = self.on_pass_complete(self.core_id, now)
        if not replay:
            self._finish(now)
            return False
        self._load_chunk(0)
        return True

    # ------------------------------------------------------------------
    def _issue_next(self, now: int) -> None:
        if self.stopped:
            self._finish(now)
            return
        cursor = self._cursor
        if cursor == self._limit:
            if not self._refill(now):
                return
            cursor = 0
        compute_cycles = self._cycles[cursor]
        if compute_cycles > 0:
            # Inline-push contract (events.py): compute_cycles > 0, so
            # the dispatch lands a strictly-future cycle.
            events = self.events
            seq = events._seq
            _heappush(
                events._heap, (now + compute_cycles, seq, self._dispatch_cb)
            )
            events._seq = seq + 1
            return
        self._dispatch(now)

    def _dispatch(self, now: int) -> None:
        if self.stopped:
            self._finish(now)
            return
        cursor = self._cursor
        writes = self._writes
        is_write = writes[cursor]
        # About a third of calls block at once: test the MLP/write-buffer
        # limit before loading the loop state.
        if is_write:
            if self.writes_in_flight >= self._write_buffer:
                self._waiting_for_write = True
                return  # resumed by _on_write_complete
        elif self.outstanding_reads >= self._mlp:
            self._waiting_for_read = True
            return  # resumed by _on_read_complete
        cycles = self._cycles
        lines = self._lines
        access = self.access
        core_id = self.core_id
        while True:
            if is_write:
                self.writes_in_flight += 1
                callback = self._on_write_complete_cb
            else:
                self.outstanding_reads += 1
                callback = self._on_read_complete_cb
            self._cursor = cursor + 1
            access(core_id, lines[cursor], is_write, callback)
            # Inlined issue-next: schedule the next request's dispatch,
            # or keep looping when it is due this same cycle.
            if self.stopped:
                self._finish(now)
                return
            cursor += 1
            if cursor == self._limit:
                if not self._refill(now):
                    return
                cursor = 0
                cycles = self._cycles
                lines = self._lines
                writes = self._writes
            compute_cycles = cycles[cursor]
            if compute_cycles > 0:
                # Inline-push contract (events.py): strictly future.
                events = self.events
                seq = events._seq
                _heappush(
                    events._heap,
                    (now + compute_cycles, seq, self._dispatch_cb),
                )
                events._seq = seq + 1
                return
            is_write = writes[cursor]
            if is_write:
                if self.writes_in_flight >= self._write_buffer:
                    self._waiting_for_write = True
                    return
            elif self.outstanding_reads >= self._mlp:
                self._waiting_for_read = True
                return

    def _on_read_complete(self, now: int) -> None:
        self.outstanding_reads -= 1
        if self._waiting_for_read:
            self._waiting_for_read = False
            self._dispatch(now)

    def _on_write_complete(self, now: int) -> None:
        self.writes_in_flight -= 1
        if self._waiting_for_write:
            self._waiting_for_write = False
            self._dispatch(now)

    def _finish(self, now: int) -> None:
        if self.finished_at is None:
            self.finished_at = now
