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

The channel holds each queue as a plain list of ``(bank_key, row,
arrival, tag, on_complete)`` tuples in arrival order (``tag``: the
request's bits of its counter slot, see ``_SERVED_SLOTS``), and its bank
state as four plain lists indexed by the global bank key ``module *
banks_per_rank + bank``.  Each scheduling decision is one *fused tick*
(``_tick_python``, DESIGN.md §14): queue choice, FR-FCFS-Cap selection,
dequeue, refresh catch-up, timing update, and burst in a single scalar
pass.  The tick is the simulator's only FR-FCFS-Cap implementation; the
test suite checks it in lockstep against a scalar reference scheduler.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush as _heappush
from typing import Callable, Optional

from repro.common.config import MemTimings
from repro.common.events import EventQueue
from repro.mem.request import Module

# Module-level spellings of the channel's tuning constants: the tick
# paths read them as globals (one dict probe) instead of class-attribute
# chains.  The class attributes below alias these for the public API.
_CMD_GAP = 4
_WRITE_QUEUE_HIGH = 24
_WRITE_QUEUE_LOW = 8
_WRITE_QUEUE_CAP = 32
#: An idle time no bank reaches (the disabled row-idle-close policy).
_NEVER = 1 << 62

#: Sentinel for "no row open" in the bank ``open_row`` column.  The ST
#: area uses a *negative* row namespace (``-1 - k``), so the sentinel
#: must sit far below any representable row id, not at ``-1``.
NO_ROW = -(1 << 60)

# Served-traffic counter layout.  Slot ``kind << 3 | module << 2 |
# is_write << 1 | row_hit`` counts the requests served with that key
# (kinds are the RequestKind values 0-2); three more slots hold the
# demand-read latency sum, the swaps and the refreshes.  A queued
# request carries its kind and direction bits as its tag; the tick ORs
# in the module and row-hit bits.
_SERVED_SLOTS = 24
_LATENCY_SUM = 24
_SWAPS = 25
_REFRESHES = 26


class BankView:
    """Read-only view of one bank inside the channel's bank-state lists.

    Preserves the ``Channel.bank(module, index)`` inspection API (tests
    and policies).  ``open_row`` translates the :data:`NO_ROW` sentinel
    back to ``None``.
    """

    __slots__ = ("_open_row", "_ready_at", "_dirty", "_closed_until", "_key")

    def __init__(
        self,
        open_row: list[int],
        ready_at: list[int],
        dirty: list[int],
        closed_until: list[int],
        key: int,
    ) -> None:
        self._open_row = open_row
        self._ready_at = ready_at
        self._dirty = dirty
        self._closed_until = closed_until
        self._key = key

    @property
    def open_row(self) -> Optional[int]:
        row = self._open_row[self._key]
        return None if row == NO_ROW else row

    @property
    def ready_at(self) -> int:
        return self._ready_at[self._key]

    @property
    def dirty(self) -> bool:
        return bool(self._dirty[self._key])

    @property
    def closed_until(self) -> int:
        return self._closed_until[self._key]

    def is_row_hit(self, row: int) -> bool:
        """True if ``row`` is currently open in this bank's row buffer."""
        return self._open_row[self._key] == row


class ChannelStats:
    """Per-channel served-traffic statistics, read from the channel's
    counter list.

    Holds the list, not the channel, so it closes no reference cycle.
    Every served request counts once, by kind, module, direction and row
    hit; a row miss is one activation.  A swap moves ``lines_per_block``
    lines each way on both modules after one activation on each.
    """

    __slots__ = ("_counts", "_lines_per_block")

    def __init__(self, counts: list[int], lines_per_block: int) -> None:
        self._counts = counts
        self._lines_per_block = lines_per_block

    def _served(
        self,
        kind: Optional[int] = None,
        module: Optional[int] = None,
        is_write: Optional[int] = None,
        row_hit: Optional[int] = None,
    ) -> int:
        """Served requests whose key matches every given field."""
        return sum(
            count
            for slot, count in enumerate(self._counts[:_SERVED_SLOTS])
            if (kind is None or slot >> 3 == kind)
            and (module is None or slot >> 2 & 1 == module)
            and (is_write is None or slot >> 1 & 1 == is_write)
            and (row_hit is None or slot & 1 == row_hit)
        )

    @property
    def reads(self) -> int:
        return self._served(is_write=0)

    @property
    def writes(self) -> int:
        return self._served(is_write=1)

    @property
    def row_hits(self) -> int:
        return self._served(row_hit=1)

    @property
    def st_reads(self) -> int:
        return self._served(kind=1)

    @property
    def st_writes(self) -> int:
        return self._served(kind=2)

    @property
    def read_count(self) -> int:
        """Demand reads served (the latency sum's denominator)."""
        return self._served(kind=0, is_write=0)

    @property
    def read_latency_sum(self) -> int:
        return self._counts[_LATENCY_SUM]

    @property
    def swaps(self) -> int:
        return self._counts[_SWAPS]

    @property
    def refreshes(self) -> int:
        return self._counts[_REFRESHES]

    @property
    def average_read_latency(self) -> float:
        """Mean read latency in CPU cycles (queueing included)."""
        read_count = self.read_count
        if read_count == 0:
            return 0.0
        return self.read_latency_sum / read_count

    def activates(self, module: int) -> int:
        """Row activations on ``module``."""
        return self._served(module=module, row_hit=0) + self.swaps

    def line_reads(self, module: int) -> int:
        """64-B lines read from ``module``."""
        swapped = self.swaps * self._lines_per_block
        return self._served(module=module, is_write=0) + swapped

    def line_writes(self, module: int) -> int:
        """64-B lines written to ``module``."""
        swapped = self.swaps * self._lines_per_block
        return self._served(module=module, is_write=1) + swapped


class ModuleState:
    """One module's timing parameters in CPU cycles plus refresh state.

    ``MemTimings`` stores nanoseconds and converts per property access;
    the channel issues commands tens of thousands of times per simulated
    millisecond, so the conversions are done once here and the hot path
    reads plain ints (``rcd_cl`` is a row miss's activate-to-data time,
    ``t_rcd + cl``).  ``miss_slot``/``hit_slot`` are the module and
    row-hit bits of the channel's counter slot for a row miss/hit.
    Bank state itself lives in the channel's bank lists; ``lo:hi`` is
    this module's bank-key slice of them.
    """

    __slots__ = (
        "cl",
        "rcd_cl",
        "t_rp",
        "t_wr",
        "t_refi",
        "t_rfc",
        "line_burst",
        "next_refresh",
        "lo",
        "hi",
        "miss_slot",
        "hit_slot",
    )

    def __init__(
        self, timings: MemTimings, banks_per_rank: int, module: int
    ) -> None:
        self.cl = timings.cl
        self.rcd_cl = timings.t_rcd + timings.cl
        self.t_rp = timings.t_rp
        self.t_wr = timings.t_wr
        self.t_refi = timings.t_refi
        self.t_rfc = timings.t_rfc
        self.line_burst = timings.line_burst
        self.next_refresh = self.t_refi or (1 << 62)
        self.lo = module * banks_per_rank
        self.hi = self.lo + banks_per_rank
        self.miss_slot = module << 2
        self.hit_slot = module << 2 | 1


class Channel:
    """A memory channel shared by one M1 rank and one M2 rank."""

    __slots__ = (
        "_events",
        "_schedule_now",
        "_module_of",
        "_streak",
        "_cap",
        "_swap_latency",
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
        "_tick_cb",
        "_counts",
        "stats",
        "__weakref__",
    )

    def __init__(
        self,
        events: EventQueue,
        m1_timings: MemTimings,
        m2_timings: MemTimings,
        banks_per_rank: int,
        frfcfs_cap: int,
        swap_latency: int = 0,
        lines_per_block: int = 32,
        row_idle_close: int = 0,
    ) -> None:
        self._events = events
        # Same-cycle scheduling fast lane (the kick and posted-write
        # acceptance below always fire at the current cycle), bound once
        # for the enqueue and tick paths.
        self._schedule_now = events.schedule_now
        # The module state of every bank key: M1's banks, then M2's.
        m1_state = ModuleState(m1_timings, banks_per_rank, Module.M1)
        m2_state = ModuleState(m2_timings, banks_per_rank, Module.M2)
        self._module_of = [m1_state] * banks_per_rank + [m2_state] * banks_per_rank
        # FR-FCFS-Cap state (Section 4.1): consecutive row hits served,
        # and the cap after which the oldest request issues regardless.
        self._streak = 0
        self._cap = frfcfs_cap
        self._swap_latency = swap_latency
        # Idle cycles after which an open row is closed in the
        # background; a disabled policy (0) waits for ever.
        self._row_idle_close = row_idle_close if row_idle_close > 0 else _NEVER
        self._banks_per_rank = banks_per_rank
        # Bank state, both modules back to back: key =
        # module * banks_per_rank + bank.
        total_banks = 2 * banks_per_rank
        self._open_row = [NO_ROW] * total_banks
        self._ready_at = [0] * total_banks
        self._dirty = [0] * total_banks
        self._closed_until = [0] * total_banks
        # Pending requests, oldest first: (bank_key, row, arrival, tag,
        # on_complete) tuples.  Posted writes carry no completion.
        self._reads: list[tuple] = []
        self._writes: list[tuple] = []
        self._write_accept_waiters: deque = deque()
        self._draining_writes = False
        self._bus_free_at = 0
        self._blocked_until = 0
        self._tick_scheduled = False
        # The tick, bound once: every kick and reschedule reuses it.
        self._tick_cb = self._tick_python
        # Served traffic (see ``_SERVED_SLOTS``): the tick bumps one slot
        # per request; ``stats`` and the energy meter read the list.
        self._counts = [0] * (_REFRESHES + 1)
        self.stats = ChannelStats(self._counts, lines_per_block)

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
        tag: int,
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Accept one request at a global bank key and row.

        Callers (the hybrid controller) pass the precomputed bank key
        ``module * banks_per_rank + bank`` and the request kind's tag,
        ``kind << 3`` (its bits of the counter slot, see
        ``_SERVED_SLOTS``).  The queued tuple carries ``tag | is_write <<
        1``.  Reads complete
        (``on_complete``) at the end of their data burst.  Writes are
        *posted*: they buffer in the controller's write queue, their
        ``on_complete`` fires at acceptance, and the queue drains in
        batches under a watermark policy with read priority.  When the
        write queue is full, acceptance (and thus the issuing core's
        store buffer) backpressures until entries drain.
        """
        if is_write:
            writes = self._writes
            writes.append((bank_key, row, arrival, tag | 2, None))
            if on_complete is not None:
                if len(writes) <= _WRITE_QUEUE_CAP:
                    self._schedule_now(on_complete)
                else:
                    self._write_accept_waiters.append(on_complete)
        else:
            self._reads.append((bank_key, row, arrival, tag, on_complete))
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self._schedule_now(self._tick_cb)

    def release(self) -> None:
        """Drop the callbacks the channel holds; its simulation is over.

        The cached tick is a bound method of the channel itself, and
        queued reads and writes waiting for acceptance carry completions
        that reach back into the controller and the cores (a run that
        raises can leave demand reads and ST fetches queued; posted
        writes keep no completion in the queue).  Both
        close reference cycles.  Statistics, bank state and the queued
        entries (minus their completions) stay readable; the channel
        cannot tick again.
        """
        del self._tick_cb
        self._reads = [entry[:4] + (None,) for entry in self._reads]
        self._write_accept_waiters.clear()

    def queue_depth(self) -> int:
        """Pending (unscheduled) requests, reads + buffered writes."""
        return len(self._reads) + len(self._writes)

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
        reads = self._reads
        writes = self._writes
        if not writes:
            if not reads:
                self._tick_scheduled = False
                return
            # Reads only: they drain, and any write drain mode ends.
            self._draining_writes = False
            is_write = False
            queue = reads
        elif not reads or len(writes) >= _WRITE_QUEUE_HIGH:
            # The read-priority write-drain watermark policy.
            self._draining_writes = True
            is_write = True
            queue = writes
        else:
            if self._draining_writes and len(writes) <= _WRITE_QUEUE_LOW:
                self._draining_writes = False
            is_write = self._draining_writes
            queue = writes if is_write else reads
        open_row = self._open_row
        # --- FR-FCFS-Cap selection (pre-refresh bank state): the oldest
        # row hit while the hit streak is under the cap, else the oldest
        # request.  Production queues stay shallow (DESIGN.md §14), so a
        # scalar walk that stops at the first hit is all it takes. ---
        key, row, arrival, tag, callback = queue[0]
        orow = open_row[key]
        if orow == row:
            self._streak += 1
            del queue[0]
        else:
            chosen = 0
            if self._streak < self._cap:
                index = 1
                count = len(queue)
                while index < count:
                    candidate = queue[index]
                    if open_row[candidate[0]] == candidate[1]:
                        chosen = index
                        key, row, arrival, tag, callback = candidate
                        orow = row
                        break
                    index += 1
            if chosen:
                self._streak += 1
            else:
                self._streak = 0
            del queue[chosen]
        if (
            self._write_accept_waiters
            and len(writes) <= _WRITE_QUEUE_CAP
        ):
            self._schedule_now(self._write_accept_waiters.popleft())
        # --- issue: refresh catch-up, bank preparation, data burst ---
        module_state = self._module_of[key]
        if now >= module_state.next_refresh:
            self._refresh_if_due(module_state, now)
            orow = open_row[key]
        ready = self._ready_at
        dirty = self._dirty
        bank_ready = ready[key]
        prep_start = now if now > bank_ready else bank_ready
        if self._blocked_until > prep_start:
            prep_start = self._blocked_until
        row_idle_close = self._row_idle_close
        if orow != NO_ROW and prep_start - bank_ready >= row_idle_close:
            # Adaptive page policy: the controller precharged this idle
            # row in the background.  The precharge (and write recovery,
            # for a dirty row) happened off the critical path; only its
            # tail can still delay a prompt re-activation.
            penalty = module_state.t_rp + (
                module_state.t_wr if dirty[key] else 0
            )
            self._closed_until[key] = bank_ready + row_idle_close + penalty
            orow = NO_ROW
            dirty[key] = 0
        if orow == row:
            # Row-buffer hit: CAS only; writes land in the row buffer
            # and defer their cell-write cost to the eventual precharge.
            slot = tag | module_state.hit_slot
            data_ready = prep_start + module_state.cl
            new_dirty = 1 if is_write else dirty[key]
        else:
            slot = tag | module_state.miss_slot
            precharge = 0
            if orow != NO_ROW:
                precharge = module_state.t_rp
                if dirty[key]:
                    # Write recovery: the dirty row must finish writing
                    # to the array before the precharge (tWR_M2 = 275 ns
                    # makes this the dominant NVM write cost, Sec. 4.1).
                    precharge += module_state.t_wr
            else:
                closed_until = self._closed_until[key]
                if closed_until > prep_start:
                    precharge = closed_until - prep_start
            data_ready = prep_start + precharge + module_state.rcd_cl
            new_dirty = 1 if is_write else 0
        burst_start = data_ready
        if self._bus_free_at > burst_start:
            burst_start = self._bus_free_at
        burst_end = burst_start + module_state.line_burst
        self._bus_free_at = burst_end
        open_row[key] = row
        ready[key] = burst_end
        dirty[key] = new_dirty
        # --- record served traffic and schedule the completion ---
        counts = self._counts
        counts[slot] += 1
        if tag == 0:
            # Latency statistics track demand reads only (AMMAT).
            counts[_LATENCY_SUM] += burst_end - arrival
        # Inline-push contract (events.py): both targets are strictly
        # future cycles (burst_end >= now + CL + burst, the next tick is
        # now + CMD_GAP), so they go straight onto the heap.
        events = self._events
        heap = events._heap
        if callback is not None:
            seq = events._seq
            _heappush(heap, (burst_end, seq, callback))
            events._seq = seq + 1
        if reads or writes:
            # The tick stays scheduled: it runs again next command slot.
            seq = events._seq
            _heappush(heap, (now + _CMD_GAP, seq, self._tick_cb))
            events._seq = seq + 1
        else:
            self._tick_scheduled = False

    def _refresh_if_due(self, module_state: ModuleState, now: int) -> None:
        """Apply any refresh cycles that elapsed on the module by ``now``.

        Refresh is all-bank: every bank closes its row and stays busy for
        tRFC.  M2 (NVM) configures t_refi = 0 and never refreshes
        (Section 4.1).  Processing lazily at request issue is exact for
        timing because refresh only matters when traffic arrives.
        """
        lo = module_state.lo
        hi = module_state.hi
        ready = self._ready_at
        while now >= module_state.next_refresh:
            start = module_state.next_refresh
            end = start + module_state.t_rfc
            self._open_row[lo:hi] = [NO_ROW] * (hi - lo)
            self._dirty[lo:hi] = [0] * (hi - lo)
            for key in range(lo, hi):
                if ready[key] < end:
                    ready[key] = end
            module_state.next_refresh = start + module_state.t_refi
            self._counts[_REFRESHES] += 1

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
        # max(now, bus free, blocked until), without the call.
        start = self._events._now
        if self._bus_free_at > start:
            start = self._bus_free_at
        if self._blocked_until > start:
            start = self._blocked_until
        end = start + self._swap_latency
        self._blocked_until = end
        self._bus_free_at = end
        # Both blocks were just rewritten: the involved rows end up open
        # and dirty (their array write-back is pending).
        m1_key = m1_bank
        m2_key = self._banks_per_rank + m2_bank
        self._open_row[m1_key] = m1_row
        self._ready_at[m1_key] = end
        self._dirty[m1_key] = 1
        self._open_row[m2_key] = m2_row
        self._ready_at[m2_key] = end
        self._dirty[m2_key] = 1
        self._streak = 0
        self._counts[_SWAPS] += 1
        if on_complete is not None:
            self._events.schedule(end, on_complete)
        return end
