"""Event-queue tests: ordering, determinism, error paths."""

import heapq
import random

import pytest

from repro.common.errors import SimulationError
from repro.common.events import EventQueue


class TestOrdering:
    def test_fires_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(10, lambda c: log.append(("b", c)))
        q.schedule(5, lambda c: log.append(("a", c)))
        q.run()
        assert log == [("a", 5), ("b", 10)]

    def test_same_cycle_insertion_order(self):
        q = EventQueue()
        log = []
        for tag in "abc":
            q.schedule(3, lambda c, t=tag: log.append(t))
        q.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(7, lambda c: seen.append(q.now))
        q.run()
        assert seen == [7]

    def test_schedule_after(self):
        q = EventQueue()
        log = []
        q.schedule(4, lambda c: q.schedule_after(3, lambda c2: log.append(c2)))
        q.run()
        assert log == [7]

    def test_events_can_schedule_same_cycle(self):
        q = EventQueue()
        log = []

        def first(c):
            q.schedule(c, lambda c2: log.append("second"))
            log.append("first")

        q.schedule(1, first)
        q.run()
        assert log == ["first", "second"]


class TestErrors:
    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(10, lambda c: None)
        q.step()
        with pytest.raises(SimulationError):
            q.schedule(5, lambda c: None)

    def test_step_on_empty_returns_false(self):
        assert EventQueue().step() is False


class TestRun:
    def test_run_returns_count(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(i, lambda c: None)
        assert q.run() == 5

    def test_run_raises_when_budget_hit(self):
        # max_events is a runaway guard, not a pause button: hitting the
        # ceiling with work still queued is an error, never a truncation.
        q = EventQueue()
        for i in range(5):
            q.schedule(i, lambda c: None)
        with pytest.raises(SimulationError, match="event budget"):
            q.run(max_events=2)
        assert len(q) == 3  # unprocessed events stay queued

    def test_run_exact_budget_completes(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(i, lambda c: None)
        assert q.run(max_events=5) == 5

    def test_run_stop_after_cycle(self):
        q = EventQueue()
        fired = []
        for cycle in (1, 2, 8):
            q.schedule(cycle, lambda c: fired.append(c))
        assert q.run(stop_after_cycle=5) == 3
        # The first event past the cutoff still runs; control then
        # returns with the queue state intact.
        assert fired == [1, 2, 8]
        assert len(q) == 0

    def test_len(self):
        q = EventQueue()
        q.schedule(1, lambda c: None)
        assert len(q) == 1

    @staticmethod
    def _mixed(q, fired):
        """Heap events at cycles 1..4, each spawning two same-cycle
        (FIFO-lane) children: 12 events in all."""

        def child(cycle):
            fired.append(cycle)

        def parent(cycle):
            fired.append(cycle)
            q.schedule_now(child)
            q.schedule(cycle, child)

        for cycle in range(1, 5):
            q.schedule(cycle, parent)

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 11])
    def test_budget_processes_exactly_n_then_raises(self, budget):
        q, fired = EventQueue(), []
        self._mixed(q, fired)
        with pytest.raises(SimulationError, match=f"budget of {budget} "):
            q.run(max_events=budget)
        # Exactly ``budget`` callbacks ran, from either lane, and the
        # rest of the work stayed queued.
        assert len(fired) == budget
        assert q.run() == 12 - budget
        assert len(fired) == 12

    @pytest.mark.parametrize("budget", [None, 12, 13, 10**9])
    def test_returns_processed_count_when_the_queue_drains(self, budget):
        q, fired = EventQueue(), []
        self._mixed(q, fired)
        assert q.run(max_events=budget) == len(fired) == 12
        assert len(q) == 0
        assert q.run(max_events=budget) == 0

    def test_zero_budget(self):
        assert EventQueue().run(max_events=0) == 0
        q = EventQueue()
        q.schedule(1, lambda c: None)
        with pytest.raises(SimulationError, match="event budget"):
            q.run(max_events=0)

    def test_stop_after_cycle_leaves_later_work_queued(self):
        q, fired = EventQueue(), []
        self._mixed(q, fired)
        # Cycle 3's heap event is the first past the cutoff: it runs,
        # and its same-cycle children stay queued with cycle 4.
        assert q.run(stop_after_cycle=2) == 7
        assert fired == [1, 1, 1, 2, 2, 2, 3]
        assert q.now == 3
        assert len(q) == 3
        # Resuming with a cutoff already behind ``now`` stops after one
        # event, as before.
        assert q.run(stop_after_cycle=2) == 1
        assert len(q) == 2
        assert q.run() == 4
        assert fired == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]

    def test_stop_after_cycle_takes_precedence_over_an_exact_budget(self):
        # The budget's last event is the one that crosses the cutoff:
        # control returns normally, with work still queued.
        q, fired = EventQueue(), []
        self._mixed(q, fired)
        assert q.run(max_events=7, stop_after_cycle=2) == 7
        assert len(q) == 3
        assert q.run(max_events=3, stop_after_cycle=3) == 3
        assert fired[-3:] == [3, 3, 4]
        # A budget that runs out before the cutoff still raises.
        with pytest.raises(SimulationError, match="event budget"):
            q.run(max_events=1, stop_after_cycle=10)
        assert len(fired) == 11


class _ReferenceHeapQueue:
    """Textbook (cycle, seq) min-heap scheduler with no fast lane.

    This is the semantics the optimized EventQueue must preserve: events
    fire in cycle order, ties broken by insertion order, globally.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0

    def schedule(self, cycle, callback):
        assert cycle >= self.now
        heapq.heappush(self._heap, (cycle, self._seq, callback))
        self._seq += 1

    def run(self):
        count = 0
        while self._heap:
            cycle, _seq, callback = heapq.heappop(self._heap)
            self.now = cycle
            callback(cycle)
            count += 1
        return count


class TestFifoLaneProperty:
    """The same-cycle FIFO fast lane is observationally invisible.

    Property: for any workload of events — including callbacks that
    spawn more work at the current cycle mid-drain — the firing order of
    EventQueue is identical to the reference single-heap scheduler.
    """

    @staticmethod
    def _workload(queue, log, seed):
        # Each callback logs itself, then spawns 0-2 children whose
        # delays are drawn deterministically from the callback's own
        # identity (seed + tag), so both queue implementations see the
        # exact same schedule requests.  Delay 0 exercises the FIFO
        # lane; positive delays exercise the heap.
        def fire(tag):
            def callback(cycle):
                log.append((tag, cycle))
                rng = random.Random(f"{seed}:{tag}")
                if len(tag) < 6:
                    for child in range(rng.randrange(3)):
                        delay = rng.choice((0, 0, 1, 2, 5))
                        queue.schedule(cycle + delay, fire(tag + (child,)))

            return callback

        rng = random.Random(seed)
        for root in range(16):
            queue.schedule(rng.randrange(8), fire((root,)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_heap_order(self, seed):
        reference, reference_log = _ReferenceHeapQueue(), []
        self._workload(reference, reference_log, seed)
        reference_count = reference.run()

        queue, log = EventQueue(), []
        self._workload(queue, log, seed)
        count = queue.run()

        assert count == reference_count > 16
        assert log == reference_log

    def test_heap_events_precede_spawned_same_cycle_events(self):
        # An event scheduled *for* cycle 5 ahead of time must fire
        # before work scheduled *at* cycle 5 for cycle 5: the fast lane
        # drains only once the heap has no events left at `now`.
        q = EventQueue()
        log = []

        def h1(cycle):
            log.append("h1")
            q.schedule(cycle, lambda c: log.append("f1"))

        q.schedule(5, h1)
        q.schedule(5, lambda c: log.append("h2"))
        q.run()
        assert log == ["h1", "h2", "f1"]

    def test_schedule_now_matches_schedule_at_now(self):
        # schedule_now(cb) and schedule(now, cb) land in the same lane
        # and interleave in strict insertion order.
        q = EventQueue()
        log = []

        def kickoff(cycle):
            q.schedule_now(lambda c: log.append("a"))
            q.schedule(cycle, lambda c: log.append("b"))
            q.schedule_now(lambda c: log.append("c"))

        q.schedule(2, kickoff)
        q.run()
        assert log == ["a", "b", "c"]
