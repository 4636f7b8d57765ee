"""Batched trace decoding tests: decoder tables, chunk boundaries, and
TraceCore's chunked refill (DESIGN.md §12).

The refill boundary cases the CI coverage gate pins down: a pass shorter
than one chunk, a pass that is an exact multiple of the chunk size, and
a trailing partial chunk — each must issue every request, retire every
instruction, and produce simulation results identical to the
single-chunk decode.
"""

import math

import pytest

from repro.common.config import CoreConfig
from repro.common.errors import TraceError
from repro.common.events import EventQueue
from repro.cpu.core_model import TraceCore
from repro.cpu.trace import Trace
from repro.traces.decode import DEFAULT_CHUNK_REQUESTS, TraceDecoder
from repro.traces.generator import synthesize_trace


def legacy_decode(trace, issue_ipc):
    """The seed's per-element front end, verbatim: the decode oracle.

    Returns ``(compute_cycles, lines, writes, retired)`` where
    ``retired[i]`` is the instructions retired by request ``i`` alone
    (``gap + 1``).
    """
    gaps = [int(gap) for gap in trace.gaps]
    lines = [int(line) for line in trace.lines]
    writes = [bool(write) for write in trace.writes]
    cycles = [
        math.ceil(gap / issue_ipc) if gap > 0 else 0 for gap in gaps
    ]
    retired = [gap + 1 for gap in gaps]
    return cycles, lines, writes, retired


def batched_decode(trace, issue_ipc):
    """The batched front end, every chunk concatenated into whole-trace
    lists shaped like :func:`legacy_decode`'s output."""
    decoder = TraceDecoder(trace, issue_ipc)
    cycles, lines, writes, retired = [], [], [], []
    for index in range(decoder.num_chunks):
        chunk = decoder.chunk(index)
        cycles.extend(chunk.cycles)
        lines.extend(chunk.lines)
        writes.extend(chunk.writes)
        prefix = chunk.retired_prefix
        retired.extend(
            prefix[i + 1] - prefix[i] for i in range(chunk.length)
        )
    return cycles, lines, writes, retired


def _mixed_trace(n=24):
    """Gaps including zero-runs, writes interleaved, varied lines."""
    records = [
        (0 if i % 3 == 0 else (i * 7) % 19, (i * 13) % 40, i % 4 == 1)
        for i in range(n)
    ]
    return Trace.from_records(records)


class TestDecoderTables:
    def test_compute_cycles_match_scalar_ceil(self):
        trace = _mixed_trace()
        for ipc in (0.5, 1.0, 1.5, 2.0, 3.0):
            decoder = TraceDecoder(trace, ipc)
            chunk = decoder.chunk(0)
            expected = [
                math.ceil(int(gap) / ipc) if int(gap) > 0 else 0
                for gap in trace.gaps
            ]
            assert chunk.cycles == expected

    def test_decode_matches_legacy_front_end(self):
        trace = synthesize_trace("mcf", 2_000, scale=128, seed=3)
        assert batched_decode(trace, 2.0) == legacy_decode(trace, 2.0)

    def test_values_are_plain_python_objects(self):
        chunk = TraceDecoder(_mixed_trace(), 2.0).chunk(0)
        assert all(type(value) is int for value in chunk.cycles)
        assert all(type(value) is int for value in chunk.lines)
        assert all(type(value) is bool for value in chunk.writes)
        assert all(type(value) is int for value in chunk.retired_prefix)

    def test_retired_prefix_is_cumulative_gap_plus_one(self):
        trace = _mixed_trace()
        chunk = TraceDecoder(trace, 2.0).chunk(0)
        total = 0
        assert chunk.retired_prefix[0] == 0
        for i, gap in enumerate(trace.gaps):
            total += int(gap) + 1
            assert chunk.retired_prefix[i + 1] == total
        assert chunk.retired_prefix[-1] == trace.instructions

    def test_total_instructions_matches_trace(self):
        trace = _mixed_trace()
        assert TraceDecoder(trace, 2.0).total_instructions == trace.instructions

    def test_rejects_bad_parameters(self):
        trace = _mixed_trace()
        with pytest.raises(TraceError):
            TraceDecoder(trace, 0.0)
        with pytest.raises(TraceError):
            TraceDecoder(trace, 2.0, chunk_requests=0)
        with pytest.raises(TraceError):
            TraceDecoder(trace, 2.0).chunk(99)


class TestChunking:
    @pytest.mark.parametrize(
        "requests,chunk_requests,expected_chunks",
        [
            (3, 8, 1),   # pass shorter than one chunk
            (8, 4, 2),   # exact multiple of the chunk size
            (10, 4, 3),  # trailing partial chunk
        ],
    )
    def test_chunk_count_and_coverage(
        self, requests, chunk_requests, expected_chunks
    ):
        trace = _mixed_trace(requests)
        decoder = TraceDecoder(trace, 2.0, chunk_requests=chunk_requests)
        assert decoder.num_chunks == expected_chunks
        starts, lines = [], []
        for index in range(decoder.num_chunks):
            chunk = decoder.chunk(index)
            starts.append(chunk.start)
            lines.extend(chunk.lines)
            assert len(chunk.retired_prefix) == chunk.length + 1
        assert starts == [
            i * chunk_requests for i in range(expected_chunks)
        ]
        assert lines == [int(line) for line in trace.lines]

    def test_chunked_concatenation_equals_single_chunk(self):
        trace = _mixed_trace(10)
        whole = TraceDecoder(trace, 2.0).chunk(0)
        decoder = TraceDecoder(trace, 2.0, chunk_requests=4)
        cycles, prefix_total = [], 0
        for index in range(decoder.num_chunks):
            chunk = decoder.chunk(index)
            cycles.extend(chunk.cycles)
            prefix_total += chunk.retired_prefix[chunk.length]
        assert cycles == whole.cycles
        assert prefix_total == whole.retired_prefix[whole.length]

    def test_first_chunk_is_cached(self):
        decoder = TraceDecoder(_mixed_trace(10), 2.0, chunk_requests=4)
        assert decoder.chunk(0) is decoder.chunk(0)
        assert decoder.chunk(1) is not decoder.chunk(1)

    def test_default_chunk_holds_typical_traces(self):
        assert DEFAULT_CHUNK_REQUESTS >= 20_000


class InstantMemory:
    """Completes every request after a fixed latency."""

    def __init__(self, events, latency=100):
        self.events = events
        self.latency = latency
        self.requests = []

    def access(self, core_id, line, is_write, on_complete):
        self.requests.append((core_id, line, is_write))
        self.events.schedule(self.events.now + self.latency, on_complete)


def _run_core(trace, chunk_requests, passes=1, latency=100):
    events = EventQueue()
    memory = InstantMemory(events, latency)
    seen_passes = []

    def on_pass(core_id, now):
        seen_passes.append(now)
        return len(seen_passes) < passes

    core = TraceCore(
        core_id=0,
        config=CoreConfig(),
        trace=trace,
        events=events,
        access=memory.access,
        on_pass_complete=on_pass,
        chunk_requests=chunk_requests,
    )
    core.start()
    events.run()
    return core, memory


class TestCoreChunkedRefill:
    @pytest.mark.parametrize("requests", [3, 8, 10])
    def test_every_request_issues_across_refills(self, requests):
        trace = _mixed_trace(requests)
        core, memory = _run_core(trace, chunk_requests=4)
        assert len(memory.requests) == requests
        assert [line for _c, line, _w in memory.requests] == [
            int(line) for line in trace.lines
        ]
        assert core.instructions_retired == trace.instructions
        assert core.passes_completed == 1

    @pytest.mark.parametrize("requests", [3, 8, 10])
    def test_chunked_run_is_identical_to_unchunked(self, requests):
        trace = _mixed_trace(requests)
        chunked_core, chunked_memory = _run_core(trace, chunk_requests=4)
        whole_core, whole_memory = _run_core(
            trace, chunk_requests=DEFAULT_CHUNK_REQUESTS
        )
        assert chunked_memory.requests == whole_memory.requests
        assert chunked_core.finished_at == whole_core.finished_at
        assert (
            chunked_core.instructions_retired
            == whole_core.instructions_retired
        )

    def test_replay_spans_chunks(self):
        trace = _mixed_trace(10)
        core, memory = _run_core(trace, chunk_requests=4, passes=3)
        assert core.passes_completed == 3
        assert len(memory.requests) == 30
        assert core.instructions_retired == 3 * trace.instructions

    def test_index_and_retired_track_position(self):
        trace = Trace.from_records([(5, i, False) for i in range(6)])
        events = EventQueue()
        memory = InstantMemory(events, latency=10)
        core = TraceCore(
            0,
            CoreConfig(),
            trace,
            events,
            memory.access,
            chunk_requests=2,
        )
        core.start()
        assert core.index == 0
        assert core.instructions_retired == 0
        events.run()
        assert core.instructions_retired == trace.instructions
        assert core.ipc > 0

    def test_multi_chunk_simulation_result_is_unchanged(self):
        # Full-stack variant: a driver whose cores straddle chunk
        # boundaries must produce byte-identical results to the default
        # single-chunk decode.
        from repro.common.config import paper_single_core
        from repro.sim.engine import SimulationDriver

        config = paper_single_core(scale=128)
        trace = synthesize_trace("zeusmp", 1_000, scale=128, seed=0)
        baseline = SimulationDriver(
            config, "pom", [("zeusmp", trace)], seed=0
        ).run()
        driver = SimulationDriver(config, "pom", [("zeusmp", trace)], seed=0)
        for core in driver.cores:
            # Rebuild each core's front end with a tiny chunk size.
            core._decoder = TraceDecoder(core.trace, config.core.issue_ipc, 96)
            core._retired_base = 0
            core._load_chunk(0)
        assert driver.run().to_dict() == baseline.to_dict()
