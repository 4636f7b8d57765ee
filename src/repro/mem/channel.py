"""One memory channel with an M1 module and an M2 module (Figure 1).

The model is request-level and event-driven: each 64-B request picks up
bank-preparation latency (precharge + activate on a row miss, CAS only on a
row hit), then occupies the shared channel data bus for one burst.  Bank
preparation of the next request overlaps the current burst, which captures
the bank-level parallelism the open-page FR-FCFS-Cap controller exploits,
while the single data bus serializes transfers from the two modules, which
is what makes M2 traffic and swaps interfere with M1 traffic.

Swaps block the channel for the analytic swap latency (Section 4.1), and
row-buffer hits do not bypass the FR-FCFS-Cap ordering across a swap (the
paper modifies the scheduler to ignore row hits during swaps).

The channel holds its queues as :class:`repro.mem.batch.RequestBatch`
columns and its bank state as four ``int64`` arrays indexed by the
global bank key ``module * banks_per_rank + bank``.  Each scheduling
decision is one *fused tick* (``_tick_python``, DESIGN.md §14): queue
choice, FR-FCFS-Cap selection, dequeue, refresh catch-up, timing update,
and burst in a single scalar pass over those columns.  The tick is the
simulator's only FR-FCFS-Cap implementation; the test suite checks it
in lockstep against a scalar reference scheduler.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Optional

import numpy as np

from repro.common.config import MemTimings
from repro.common.events import EventQueue
from repro.mem.batch import NO_ROW, BankView, RequestBatch
from repro.mem.power import EnergyMeter
from repro.mem.request import MemRequest, Module

# Module-level spellings of the channel's tuning constants: the tick
# paths read them as globals (one dict probe) instead of class-attribute
# chains.  The class attributes below alias these for the public API.
_CMD_GAP = 4
_WRITE_QUEUE_HIGH = 24
_WRITE_QUEUE_LOW = 8
_WRITE_QUEUE_CAP = 32


class ChannelStats:
    """Per-channel served-traffic statistics."""

    __slots__ = (
        "reads",
        "writes",
        "row_hits",
        "swaps",
        "read_latency_sum",
        "read_count",
        "st_reads",
        "st_writes",
        "refreshes",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.swaps = 0
        self.read_latency_sum = 0
        self.read_count = 0
        self.st_reads = 0
        self.st_writes = 0
        self.refreshes = 0

    @property
    def average_read_latency(self) -> float:
        """Mean read latency in CPU cycles (queueing included)."""
        if self.read_count == 0:
            return 0.0
        return self.read_latency_sum / self.read_count


class ModuleState:
    """One module's timing parameters in CPU cycles plus refresh state.

    ``MemTimings`` stores nanoseconds and converts per property access;
    the channel issues commands tens of thousands of times per simulated
    millisecond, so the conversions are done once here and the hot path
    reads plain ints.  Bank state itself lives in the channel's columnar
    arrays; ``lo:hi`` is this module's bank-key slice of them.
    """

    __slots__ = (
        "cl",
        "t_rcd",
        "t_rp",
        "t_wr",
        "t_refi",
        "t_rfc",
        "line_burst",
        "next_refresh",
        "lo",
        "hi",
    )

    def __init__(
        self, timings: MemTimings, banks_per_rank: int, base: int
    ) -> None:
        self.cl = timings.cl
        self.t_rcd = timings.t_rcd
        self.t_rp = timings.t_rp
        self.t_wr = timings.t_wr
        self.t_refi = timings.t_refi
        self.t_rfc = timings.t_rfc
        self.line_burst = timings.line_burst
        self.next_refresh = self.t_refi or (1 << 62)
        self.lo = base
        self.hi = base + banks_per_rank


class Channel:
    """A memory channel shared by one M1 rank and one M2 rank."""

    __slots__ = (
        "_events",
        "_schedule_now",
        "_modules",
        "_streak",
        "_cap",
        "_energy",
        "_swap_latency",
        "_lines_per_block",
        "_row_idle_close",
        "_banks_per_rank",
        "_reads",
        "_writes",
        "_write_accept_waiters",
        "_draining_writes",
        "_bus_free_at",
        "_blocked_until",
        "_tick_scheduled",
        "_open_row",
        "_ready_at",
        "_dirty",
        "_closed_until",
        "_open_row_v",
        "_ready_at_v",
        "_dirty_v",
        "_closed_until_v",
        "_tick_cb",
        "stats",
    )

    def __init__(
        self,
        events: EventQueue,
        m1_timings: MemTimings,
        m2_timings: MemTimings,
        banks_per_rank: int,
        frfcfs_cap: int,
        energy: Optional[EnergyMeter] = None,
        swap_latency: int = 0,
        lines_per_block: int = 32,
        row_idle_close: int = 0,
    ) -> None:
        self._events = events
        # Same-cycle scheduling fast lane (the kick and posted-write
        # acceptance below always fire at the current cycle), bound once
        # for the enqueue and tick paths.
        self._schedule_now = events.schedule_now
        # Indexed by Module (IntEnum): _modules[Module.M1] is the M1 state.
        self._modules = (
            ModuleState(m1_timings, banks_per_rank, 0),
            ModuleState(m2_timings, banks_per_rank, banks_per_rank),
        )
        # FR-FCFS-Cap state (Section 4.1): consecutive row hits served,
        # and the cap after which the oldest request issues regardless.
        self._streak = 0
        self._cap = frfcfs_cap
        self._energy = energy
        self._swap_latency = swap_latency
        self._lines_per_block = lines_per_block
        self._row_idle_close = row_idle_close
        self._banks_per_rank = banks_per_rank
        # Columnar bank state, both modules back to back: key =
        # module * banks_per_rank + bank.  Scalar access goes through
        # the memoryviews; refresh uses the arrays.
        total_banks = 2 * banks_per_rank
        self._open_row = np.full(total_banks, NO_ROW, dtype=np.int64)
        self._ready_at = np.zeros(total_banks, dtype=np.int64)
        self._dirty = np.zeros(total_banks, dtype=np.int64)
        self._closed_until = np.zeros(total_banks, dtype=np.int64)
        self._open_row_v = memoryview(self._open_row)
        self._ready_at_v = memoryview(self._ready_at)
        self._dirty_v = memoryview(self._dirty)
        self._closed_until_v = memoryview(self._closed_until)
        self._reads = RequestBatch()
        self._writes = RequestBatch()
        self._write_accept_waiters: deque = deque()
        self._draining_writes = False
        self._bus_free_at = 0
        self._blocked_until = 0
        self._tick_scheduled = False
        # The tick, bound once: every kick and reschedule reuses it.
        self._tick_cb = self._tick_python
        self.stats = ChannelStats()

    def bank(self, module: Module, index: int) -> BankView:
        """One bank's state (inspection helper for tests and policies)."""
        return BankView(
            self._open_row,
            self._ready_at,
            self._dirty,
            self._closed_until,
            module * self._banks_per_rank + index,
        )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def enqueue_soa(
        self,
        bank_key: int,
        row: int,
        is_write: bool,
        arrival: int,
        kind: int,
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Accept a request given directly as column values.

        The allocation-free fast path: callers (the hybrid controller)
        pass the precomputed global bank key and row instead of building
        a ``MemRequest``.  Reads complete (``on_complete``) at the end
        of their data burst.  Writes are *posted*: they buffer in the
        controller's write queue, their ``on_complete`` fires at
        acceptance, and the queue drains in batches under a watermark
        policy with read priority.  When the write queue is full,
        acceptance (and thus the issuing core's store buffer)
        backpressures until entries drain.
        """
        # RequestBatch.push, inlined for both queues: one call frame per
        # request saved on the hottest producer in the simulator.
        queue = self._writes if is_write else self._reads
        free = queue.free
        if not free:
            queue._grow()
            free = queue.free
        slot = free.pop()
        queue.bank_key_v[slot] = bank_key
        queue.row_v[slot] = row
        queue.arrival_v[slot] = arrival
        queue.kind_v[slot] = kind
        count = queue.count
        queue.order_v[count] = slot
        queue.count = count + 1
        if is_write:
            queue.is_write_v[slot] = 1
            if on_complete is not None:
                if queue.count <= _WRITE_QUEUE_CAP:
                    self._schedule_now(on_complete)
                else:
                    self._write_accept_waiters.append(on_complete)
        else:
            queue.is_write_v[slot] = 0
            queue.callbacks[slot] = on_complete
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self._schedule_now(self._tick_cb)

    def enqueue(self, request: MemRequest) -> None:
        """Accept a :class:`MemRequest` (compat wrapper over the columns).

        Same acceptance semantics as :meth:`enqueue_soa`; additionally
        the request object's ``completion`` and ``row_hit`` fields are
        written back when the request is issued.
        """
        address = request.address
        bank_key = address.module * self._banks_per_rank + address.bank
        if request.is_write:
            writes = self._writes
            writes.push(
                bank_key, address.row, 1, request.arrival, request.kind,
                None, request,
            )
            acceptance = request.on_complete
            request.on_complete = None
            if acceptance is not None:
                if writes.count <= self.WRITE_QUEUE_CAP:
                    self._schedule_now(acceptance)
                else:
                    self._write_accept_waiters.append(acceptance)
        else:
            self._reads.push(
                bank_key, address.row, 0, request.arrival, request.kind,
                request.on_complete, request,
            )
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self._schedule_now(self._tick_cb)

    def queue_depth(self) -> int:
        """Pending (unscheduled) requests, reads + buffered writes."""
        return self._reads.count + self._writes.count

    #: Command-bus gap between consecutive scheduling decisions: one
    #: channel cycle (4 CPU cycles at 3.2/0.8 GHz).  Banks prepare in
    #: parallel; only command issue and the data bus serialize.
    CMD_GAP = _CMD_GAP
    #: Write-queue watermarks: start draining writes when the queue
    #: reaches the high mark (or no reads are waiting), stop at the low
    #: mark — the standard read-priority write-buffering discipline.
    WRITE_QUEUE_HIGH = _WRITE_QUEUE_HIGH
    WRITE_QUEUE_LOW = _WRITE_QUEUE_LOW
    #: Posted-write acceptance backpressures beyond this depth.
    WRITE_QUEUE_CAP = _WRITE_QUEUE_CAP

    def _tick_python(self, now: int) -> None:
        """One fused scheduling decision.

        Queue choice, FR-FCFS-Cap selection, dequeue, refresh catch-up,
        bank timing, stats, and completion scheduling in a single pass —
        no per-request objects, no nested per-event calls.
        """
        self._tick_scheduled = False
        reads = self._reads
        writes = self._writes
        if writes.count:
            # The read-priority write-drain watermark policy.
            if not reads.count or writes.count >= _WRITE_QUEUE_HIGH:
                self._draining_writes = True
                queue = writes
            else:
                if (
                    self._draining_writes
                    and writes.count <= _WRITE_QUEUE_LOW
                ):
                    self._draining_writes = False
                queue = writes if self._draining_writes else reads
        elif reads.count:
            # No buffered writes: reads drain, and any write drain
            # mode ends.
            self._draining_writes = False
            queue = reads
        else:
            return
        order = queue.order_v
        keys = queue.bank_key_v
        rows = queue.row_v
        open_row = self._open_row_v
        count = queue.count
        # --- FR-FCFS-Cap selection (pre-refresh bank state): the oldest
        # row hit while the hit streak is under the cap, else the oldest
        # request.  Production queues stay shallow (DESIGN.md §14), so a
        # scalar walk that stops at the first hit is all it takes. ---
        chosen = 0
        slot = order[0]
        hit = open_row[keys[slot]] == rows[slot]
        if not hit and self._streak < self._cap:
            index = 1
            while index < count:
                candidate = order[index]
                if open_row[keys[candidate]] == rows[candidate]:
                    chosen = index
                    slot = candidate
                    hit = True
                    break
                index += 1
        self._streak = self._streak + 1 if hit else 0
        # --- dequeue: shift the arrival order over the gap ---
        last = count - 1
        index = chosen
        while index < last:
            order[index] = order[index + 1]
            index += 1
        queue.count = last
        if (
            self._write_accept_waiters
            and writes.count <= _WRITE_QUEUE_CAP
        ):
            self._schedule_now(self._write_accept_waiters.popleft())
        # --- issue: refresh catch-up, bank preparation, data burst ---
        key = keys[slot]
        module = 1 if key >= self._banks_per_rank else 0
        module_state = self._modules[module]
        if now >= module_state.next_refresh:
            self._refresh_if_due(module_state, now)
        ready = self._ready_at_v
        dirty = self._dirty_v
        bank_ready = ready[key]
        prep_start = now if now > bank_ready else bank_ready
        if self._blocked_until > prep_start:
            prep_start = self._blocked_until
        orow = open_row[key]
        row_idle_close = self._row_idle_close
        if (
            row_idle_close > 0
            and orow != NO_ROW
            and prep_start - bank_ready >= row_idle_close
        ):
            # Adaptive page policy: the controller precharged this idle
            # row in the background.  The precharge (and write recovery,
            # for a dirty row) happened off the critical path; only its
            # tail can still delay a prompt re-activation.
            penalty = module_state.t_rp + (
                module_state.t_wr if dirty[key] else 0
            )
            self._closed_until_v[key] = bank_ready + row_idle_close + penalty
            orow = NO_ROW
            dirty[key] = 0
        row = rows[slot]
        is_write = queue.is_write_v[slot]
        energy = self._energy
        if orow == row:
            # Row-buffer hit: CAS only; writes land in the row buffer
            # and defer their cell-write cost to the eventual precharge.
            row_hit = True
            data_ready = prep_start + module_state.cl
            new_dirty = 1 if is_write else dirty[key]
        else:
            row_hit = False
            precharge = 0
            if orow != NO_ROW:
                precharge = module_state.t_rp
                if dirty[key]:
                    # Write recovery: the dirty row must finish writing
                    # to the array before the precharge (tWR_M2 = 275 ns
                    # makes this the dominant NVM write cost, Sec. 4.1).
                    precharge += module_state.t_wr
            else:
                closed_until = self._closed_until_v[key]
                if closed_until > prep_start:
                    precharge = closed_until - prep_start
            data_ready = (
                prep_start + precharge + module_state.t_rcd + module_state.cl
            )
            if energy is not None:
                energy.activates[module] += 1
            new_dirty = is_write
        burst_start = data_ready
        if self._bus_free_at > burst_start:
            burst_start = self._bus_free_at
        burst_end = burst_start + module_state.line_burst
        self._bus_free_at = burst_end
        open_row[key] = row
        ready[key] = burst_end
        dirty[key] = new_dirty
        # --- record served traffic and schedule the completion ---
        stats = self.stats
        kind = queue.kind_v[slot]
        if kind == 0:  # RequestKind.DATA
            # Demand traffic first: it dominates the served stream.
            if is_write:
                stats.writes += 1
            else:
                stats.reads += 1
                # Latency statistics track demand reads only (AMMAT).
                stats.read_latency_sum += burst_end - queue.arrival_v[slot]
                stats.read_count += 1
        else:
            if kind == 1:  # RequestKind.ST_READ
                stats.st_reads += 1
            else:
                stats.st_writes += 1
            if is_write:
                stats.writes += 1
            else:
                stats.reads += 1
        if row_hit:
            stats.row_hits += 1
        if energy is not None:
            counters = energy.line_writes if is_write else energy.line_reads
            counters[module] += 1
        origins = queue.origins
        origin = origins[slot]
        if origin is not None:
            origin.completion = burst_end
            origin.row_hit = row_hit
            origins[slot] = None
        callbacks = queue.callbacks
        callback = callbacks[slot]
        # Inline-push contract (events.py): both targets are strictly
        # future cycles (burst_end >= now + CL + burst, the next tick is
        # now + CMD_GAP), so they go straight onto the heap.
        events = self._events
        heap = events._heap
        if callback is not None:
            seq = events._seq
            _heappush(heap, (burst_end, seq, callback))
            events._seq = seq + 1
            callbacks[slot] = None
        # Recycle the slot (origins/callbacks were cleared above only
        # when set — the SoA fast path leaves both None).
        queue.free.append(slot)
        if reads.count or writes.count:
            self._tick_scheduled = True
            seq = events._seq
            _heappush(heap, (now + _CMD_GAP, seq, self._tick_cb))
            events._seq = seq + 1

    def _refresh_if_due(self, module_state: ModuleState, now: int) -> None:
        """Apply any refresh cycles that elapsed on the module by ``now``.

        Refresh is all-bank: every bank closes its row and stays busy for
        tRFC.  M2 (NVM) configures t_refi = 0 and never refreshes
        (Section 4.1).  Processing lazily at request issue is exact for
        timing because refresh only matters when traffic arrives.
        Vectorized over the module's bank-key slice.
        """
        lo = module_state.lo
        hi = module_state.hi
        ready_slice = self._ready_at[lo:hi]
        while now >= module_state.next_refresh:
            start = module_state.next_refresh
            end = start + module_state.t_rfc
            self._open_row[lo:hi] = NO_ROW
            self._dirty[lo:hi] = 0
            np.maximum(ready_slice, end, out=ready_slice)
            module_state.next_refresh = start + module_state.t_refi
            self.stats.refreshes += 1
            if self._energy is not None:
                self._energy.record_refresh()

    # ------------------------------------------------------------------
    # Swaps
    # ------------------------------------------------------------------
    def schedule_swap(
        self,
        m1_bank: int,
        m1_row: int,
        m2_bank: int,
        m2_row: int,
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Block the channel for one 2-KB/2-KB swap; returns completion cycle.

        The swap starts once the bus and any earlier swap finish.  Involved
        banks end with the respective rows open (the blocks were just
        rewritten), and the FR-FCFS-Cap row-hit streak is reset, modelling
        the paper's modification of ignoring row hits during swaps.
        """
        now = self._events.now
        start = max(now, self._bus_free_at, self._blocked_until)
        end = start + self._swap_latency
        self._blocked_until = end
        self._bus_free_at = end
        # Both blocks were just rewritten: the involved rows end up open
        # and dirty (their array write-back is pending).
        m1_key = m1_bank
        m2_key = self._banks_per_rank + m2_bank
        self._open_row_v[m1_key] = m1_row
        self._ready_at_v[m1_key] = end
        self._dirty_v[m1_key] = 1
        self._open_row_v[m2_key] = m2_row
        self._ready_at_v[m2_key] = end
        self._dirty_v[m2_key] = 1
        self._streak = 0
        self.stats.swaps += 1
        if self._energy is not None:
            lines = self._lines_per_block
            self._energy.record_activate(Module.M1)
            self._energy.record_activate(Module.M2)
            self._energy.record_line(Module.M1, is_write=False, count=lines)
            self._energy.record_line(Module.M2, is_write=False, count=lines)
            self._energy.record_line(Module.M1, is_write=True, count=lines)
            self._energy.record_line(Module.M2, is_write=True, count=lines)
        if on_complete is not None:
            self._events.schedule(end, on_complete)
        return end

    @property
    def blocked_until(self) -> int:
        """Cycle until which the channel is blocked by a swap."""
        return self._blocked_until
