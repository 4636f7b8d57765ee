"""Trace-driven core timing-model tests."""

import pytest

from repro.common.config import CoreConfig
from repro.common.events import EventQueue
from repro.cpu.core_model import TraceCore
from repro.cpu.trace import Trace


class InstantMemory:
    """Completes every request after a fixed latency."""

    def __init__(self, events, latency=100):
        self.events = events
        self.latency = latency
        self.requests = []

    def access(self, core_id, line, is_write, on_complete):
        self.requests.append((core_id, line, is_write))
        self.events.schedule(self.events.now + self.latency, on_complete)


def run_core(trace, core_cfg=None, latency=100, on_pass=None):
    events = EventQueue()
    memory = InstantMemory(events, latency)
    core = TraceCore(
        core_id=0,
        config=core_cfg or CoreConfig(),
        trace=trace,
        events=events,
        access=memory.access,
        on_pass_complete=on_pass,
    )
    core.start()
    events.run()
    return core, memory


class TestExecution:
    def test_all_requests_issued(self):
        trace = Trace.from_records([(10, i, False) for i in range(5)])
        core, memory = run_core(trace)
        assert len(memory.requests) == 5

    def test_instructions_counted(self):
        trace = Trace.from_records([(10, 0, False), (20, 1, True)])
        core, _memory = run_core(trace)
        assert core.instructions_retired == 10 + 1 + 20 + 1

    def test_compute_time_respected(self):
        # One request after a 100-instruction gap at IPC 2 -> issue at 50.
        trace = Trace.from_records([(100, 0, False)])
        core, _memory = run_core(trace, CoreConfig(issue_ipc=2.0))
        # The single request dispatches only after 100/2 compute cycles.
        assert core.finished_at >= 50

    def test_finish_time_recorded(self):
        trace = Trace.from_records([(0, 0, False)])
        core, _ = run_core(trace)
        assert core.finished_at is not None
        assert core.passes_completed == 1

    def test_ipc_positive(self):
        trace = Trace.from_records([(50, i, False) for i in range(10)])
        core, _ = run_core(trace)
        assert core.ipc > 0


class TestMLP:
    def test_reads_overlap_up_to_mlp(self):
        # 4 zero-gap reads with MLP 4 overlap: finish ~ single latency.
        trace = Trace.from_records([(0, i, False) for i in range(4)])
        core, _ = run_core(trace, CoreConfig(mlp=4), latency=1000)
        assert core.finished_at < 1500

    def test_mlp_one_serializes(self):
        trace = Trace.from_records([(0, i, False) for i in range(4)])
        core, _ = run_core(trace, CoreConfig(mlp=1), latency=1000)
        # Each read must complete before the next issues; the 4th issues
        # at 3000 (finish marks issue completion, not drain).
        assert core.finished_at >= 3000

    def test_stall_resumes_after_completion(self):
        trace = Trace.from_records([(0, i, False) for i in range(8)])
        core, memory = run_core(trace, CoreConfig(mlp=2), latency=500)
        assert len(memory.requests) == 8
        assert core.finished_at >= (8 // 2 - 1) * 500


class TestInFlightLimits:
    @pytest.mark.parametrize("gap", [0, 4])
    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_limit_is_reached_and_never_exceeded(self, gap, is_write, limit):
        # Dispatches arrive both from a compute gap (a scheduled
        # dispatch) and from a completion that frees a slot.
        trace = Trace.from_records([(gap, i, is_write) for i in range(24)])
        config = CoreConfig(mlp=limit, write_buffer=limit)
        events = EventQueue()
        in_flight = []

        def access(core_id, line, write, on_complete):
            # The core counts a request in flight before it calls access.
            in_flight.append(
                core.writes_in_flight if write else core.outstanding_reads
            )
            events.schedule(events.now + 500, on_complete)

        core = TraceCore(0, config, trace, events, access)
        core.start()
        events.run()
        assert len(in_flight) == 24
        assert max(in_flight) == limit
        assert core.outstanding_reads == core.writes_in_flight == 0


class TestWrites:
    def test_writes_do_not_block_below_buffer(self):
        trace = Trace.from_records([(0, i, True) for i in range(4)])
        core, _ = run_core(trace, CoreConfig(write_buffer=8), latency=1000)
        assert core.finished_at < 1200

    def test_full_write_buffer_blocks(self):
        trace = Trace.from_records([(0, i, True) for i in range(4)])
        core, _ = run_core(trace, CoreConfig(write_buffer=1), latency=1000)
        assert core.finished_at >= 3000


class TestRepetition:
    def test_replay_on_true(self):
        trace = Trace.from_records([(0, 0, False)])
        passes = []

        def on_pass(core_id, now):
            passes.append(now)
            return len(passes) < 3

        core, memory = run_core(trace, on_pass=on_pass)
        assert core.passes_completed == 3
        assert len(memory.requests) == 3

    def test_stop_prevents_new_issues(self):
        trace = Trace.from_records([(0, i, False) for i in range(100)])
        events = EventQueue()
        memory = InstantMemory(events, 10)
        core = TraceCore(0, CoreConfig(), trace, events, memory.access)
        core.start()
        # Run up to and including the first event past cycle 15.
        while events.step() and events.now <= 15:
            pass
        core.stop()
        events.run()
        assert len(memory.requests) < 100
