"""FR-FCFS-Cap scheduling tests (Section 4.1: cap = 4).

The simulator's only FR-FCFS-Cap implementation is the channel's fused
tick (``Channel._tick_python``), which walks the channel's read queue in
place.  This module keeps an independent scalar reference scheduler,
:class:`FrFcfsCapScheduler`, tests it on its own, and then runs it in
lockstep with the production tick: before every tick the oracle picks
from a plain list model of the queue, and after it the channel must
have dequeued that request, kept the rest in arrival order, and carry
the same row-hit streak.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, TypeVar

import pytest
from hypothesis import given, strategies as st

from repro.common.config import MemTimings
from repro.common.errors import InvalidValueError
from repro.common.events import EventQueue
from repro.mem.channel import Channel
from repro.mem.request import DeviceAddress, Module

T = TypeVar("T")


class FrFcfsCapScheduler:
    """Scalar FR-FCFS-Cap reference: the oracle for the channel tick.

    Among pending requests, row-buffer hits are prioritized over misses,
    but at most ``cap`` consecutive row hits may be served before the
    oldest request is picked regardless, bounding starvation of row-miss
    requests (Mutlu & Moscibroda's FR-FCFS-Cap, cap = 4 in the paper).
    """

    def __init__(self, cap: int = 4) -> None:
        if cap < 1:
            raise InvalidValueError("cap must be >= 1")
        self.cap = cap
        self._consecutive_hits = 0

    def reset_streak(self) -> None:
        """Forget the current row-hit streak (used across swaps)."""
        self._consecutive_hits = 0

    def select(
        self, pending: Sequence[T], is_row_hit: Callable[[T], bool]
    ) -> int:
        """Return the index of the request to issue next.

        ``pending`` must be in arrival order (index 0 = oldest).  The
        chosen request's hit/miss status updates the streak counter.
        """
        if not pending:
            raise InvalidValueError("select called with no pending requests")
        chosen = 0
        if self._consecutive_hits < self.cap:
            for index, request in enumerate(pending):
                if is_row_hit(request):
                    chosen = index
                    break
        if is_row_hit(pending[chosen]):
            self._consecutive_hits += 1
        else:
            self._consecutive_hits = 0
        return chosen


def _req(bank: int, row: int) -> DeviceAddress:
    return DeviceAddress(Module.M1, bank, row)


class TestSelection:
    def test_prefers_row_hit_over_older_miss(self):
        sched = FrFcfsCapScheduler(cap=4)
        pending = [_req(0, 1), _req(0, 2)]
        chosen = sched.select(pending, lambda r: r.row == 2)
        assert chosen == 1

    def test_oldest_when_no_hits(self):
        sched = FrFcfsCapScheduler(cap=4)
        pending = [_req(0, 1), _req(0, 2)]
        assert sched.select(pending, lambda r: False) == 0

    def test_cap_limits_consecutive_hits(self):
        sched = FrFcfsCapScheduler(cap=2)
        hit = lambda r: r.row == 9
        pending = [_req(0, 1), _req(0, 9)]
        # Two hits allowed...
        assert sched.select(pending, hit) == 1
        assert sched.select(pending, hit) == 1
        # ...then the oldest (a miss) must be chosen.
        assert sched.select(pending, hit) == 0

    def test_miss_resets_streak(self):
        sched = FrFcfsCapScheduler(cap=2)
        hit = lambda r: r.row == 9
        pending_hit = [_req(0, 1), _req(0, 9)]
        sched.select(pending_hit, hit)
        sched.select([_req(0, 1)], hit)  # a miss
        # Streak reset: hits allowed again.
        assert sched.select(pending_hit, hit) == 1

    def test_reset_streak_explicit(self):
        sched = FrFcfsCapScheduler(cap=1)
        hit = lambda r: True
        sched.select([_req(0, 1)], hit)
        sched.reset_streak()
        assert sched.select([_req(0, 2), _req(0, 3)], hit) == 0

    def test_oldest_hit_chosen_first(self):
        sched = FrFcfsCapScheduler(cap=4)
        pending = [_req(0, 5), _req(1, 9), _req(2, 9)]
        hit = lambda r: r.row == 9
        assert sched.select(pending, hit) == 1


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrFcfsCapScheduler().select([], lambda r: False)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            FrFcfsCapScheduler(cap=0)


# ----------------------------------------------------------------------
# The production tick in lockstep with the oracle
# ----------------------------------------------------------------------
#: Banks per rank of the lockstep channel: few banks and rows make row
#: hits, conflicts and ties frequent.
BANKS = 4
KEYS = st.integers(min_value=0, max_value=2 * BANKS - 1)
ROWS = st.integers(min_value=0, max_value=3)


class _Lockstep:
    """A channel's read queue and the oracle, driven side by side.

    The model queue holds ``(request id, bank key, row)`` oldest first;
    the id travels through the channel as the request's ``arrival``
    field, which is how the channel's queue is read back.
    """

    def __init__(self, cap: int, open_rows: Optional[dict[int, int]] = None) -> None:
        self.channel = Channel(
            events=EventQueue(),
            m1_timings=MemTimings.dram(),
            m2_timings=MemTimings.nvm_from_dram(),
            banks_per_rank=BANKS,
            frfcfs_cap=cap,
        )
        for key, row in (open_rows or {}).items():
            self.channel._open_row[key] = row
        self.oracle = FrFcfsCapScheduler(cap)
        self.pending: list[tuple[int, int, int]] = []
        self.now = 0
        self._next_id = 0

    def enqueue(self, key: int, row: int) -> int:
        request_id = self._next_id
        self._next_id += 1
        self.pending.append((request_id, key, row))
        self.channel.enqueue_soa(key, row, False, request_id, 0)
        return request_id

    def queued_ids(self) -> list[int]:
        """The channel's read queue as request ids, oldest first."""
        return [arrival for _key, _row, arrival, _kind, _done in self.channel._reads]

    def _is_row_hit(self, request: tuple[int, int, int]) -> bool:
        _id, key, row = request
        module, bank = divmod(key, BANKS)
        return self.channel.bank(Module(module), bank).open_row == row

    def tick(self) -> int:
        """One production tick checked against the oracle; the issued id."""
        before = self.queued_ids()
        assert before == [request[0] for request in self.pending]
        expected = self.pending.pop(
            self.oracle.select(self.pending, self._is_row_hit)
        )[0]
        self.channel._tick_python(self.now)
        after = self.queued_ids()
        assert set(before) - set(after) == {expected}
        assert after == [request[0] for request in self.pending]
        assert self.channel._streak == self.oracle._consecutive_hits
        self.now += Channel.CMD_GAP
        return expected

    def swap(self, m1_bank: int, m1_row: int, m2_bank: int, m2_row: int) -> None:
        self.channel.schedule_swap(m1_bank, m1_row, m2_bank, m2_row)
        self.oracle.reset_streak()
        assert self.channel._streak == 0


class TestBatchedSelection:
    """FR-FCFS-Cap as the channel tick runs it over its read queue."""

    def test_cap_exhaustion_mid_batch_falls_back_to_oldest(self):
        # Row 9 is open in bank 0: its hits win until the streak reaches
        # the cap, then the oldest request (a miss in bank 1) issues.
        lockstep = _Lockstep(cap=2, open_rows={0: 9})
        miss = lockstep.enqueue(1, 1)
        hits = [lockstep.enqueue(0, 9) for _ in range(4)]
        assert lockstep.tick() == hits[0]
        assert lockstep.tick() == hits[1]
        assert lockstep.channel._streak == 2
        assert lockstep.tick() == miss
        assert lockstep.channel._streak == 0
        # Serving the miss resets the streak: hits flow again.
        assert lockstep.tick() == hits[2]
        assert lockstep.channel._streak == 1

    def test_same_cycle_ties_break_in_fifo_order(self):
        # Equally-ready row hits queued together: the older one wins, as
        # does the oldest among all-miss candidates.
        lockstep = _Lockstep(cap=4, open_rows={0: 5, 1: 9, 2: 9})
        first = lockstep.enqueue(0, 5)
        lockstep.enqueue(1, 9)
        lockstep.enqueue(2, 9)
        assert lockstep.tick() == first

        lockstep = _Lockstep(cap=4, open_rows={0: 0, 1: 9, 2: 9})
        lockstep.enqueue(0, 1)
        older_hit = lockstep.enqueue(1, 9)
        lockstep.enqueue(2, 9)
        assert lockstep.tick() == older_hit

        lockstep = _Lockstep(cap=4, open_rows={0: 9, 1: 9, 2: 9})
        oldest = lockstep.enqueue(0, 1)
        lockstep.enqueue(1, 2)
        lockstep.enqueue(2, 3)
        assert lockstep.tick() == oldest

    def test_single_candidate_updates_streak(self):
        lockstep = _Lockstep(cap=1, open_rows={0: 7})
        lockstep.enqueue(0, 7)
        lockstep.tick()
        assert lockstep.channel._streak == 1  # a lone hit still counts
        # Cap reached: with two candidates the oldest must now issue.
        oldest = lockstep.enqueue(0, 1)
        lockstep.enqueue(0, 7)
        assert lockstep.tick() == oldest
        assert lockstep.channel._streak == 0

    def test_swap_resets_streak(self):
        # Same queue as the cap test, but a swap lands when the streak
        # reaches the cap: the hits keep priority over the oldest miss.
        lockstep = _Lockstep(cap=2, open_rows={0: 9})
        lockstep.enqueue(1, 1)
        hits = [lockstep.enqueue(0, 9) for _ in range(3)]
        lockstep.tick()
        lockstep.tick()
        lockstep.swap(3, 0, 3, 0)  # banks the queue does not touch
        assert lockstep.tick() == hits[2]

    @given(
        cap=st.integers(min_value=1, max_value=5),
        open_rows=st.dictionaries(KEYS, ROWS),
        rounds=st.lists(
            st.tuples(
                # Arrivals, then up to this many ticks...
                st.lists(st.tuples(KEYS, ROWS), max_size=6),
                st.integers(min_value=0, max_value=6),
                # ...then maybe a swap (M1 bank/row, M2 bank/row)...
                st.one_of(
                    st.none(),
                    st.tuples(
                        st.integers(min_value=0, max_value=BANKS - 1),
                        ROWS,
                        st.integers(min_value=0, max_value=BANKS - 1),
                        ROWS,
                    ),
                ),
                # ...then a gap; long ones let refresh close M1 rows.
                st.integers(min_value=0, max_value=40_000),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_batched_matches_scalar_reference(self, cap, open_rows, rounds):
        """The tick and the oracle agree on every pick and every streak."""
        lockstep = _Lockstep(cap, open_rows)
        for arrivals, ticks, swap, gap in rounds:
            for key, row in arrivals:
                lockstep.enqueue(key, row)
            for _ in range(ticks):
                if lockstep.pending:
                    lockstep.tick()
                else:
                    # An empty queue: the tick is a no-op.
                    streak = lockstep.channel._streak
                    lockstep.channel._tick_python(lockstep.now)
                    assert lockstep.queued_ids() == []
                    assert lockstep.channel._streak == streak
            if swap is not None:
                lockstep.swap(*swap)
            lockstep.now += gap
        while lockstep.pending:
            lockstep.tick()
