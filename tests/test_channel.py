"""Channel timing-model tests: row hits/misses, write recovery, idle
close, bus serialization, swap blocking, and the request queues."""


from repro.common.config import MemTimings
from repro.common.events import EventQueue
from repro.mem.channel import NO_ROW, Channel
from repro.mem.power import EnergyMeter
from repro.common.config import EnergyConfig, paper_quad_core
from repro.hybrid.memory import HybridMemoryController
from repro.mem.request import Module, RequestKind
from repro.policies.registry import build_policy

M1 = MemTimings.dram()
M2 = MemTimings.nvm_from_dram()
BANKS = 16


def make_channel(idle_close=0, swap_latency=2548):
    events = EventQueue()
    channel = Channel(
        events=events,
        m1_timings=M1,
        m2_timings=M2,
        banks_per_rank=BANKS,
        frfcfs_cap=4,
        swap_latency=swap_latency,
        row_idle_close=idle_close,
    )
    return events, channel


def enqueue(channel, module, bank, row, done=None, is_write=False,
            kind=RequestKind.DATA):
    """Queue one request that arrived at cycle 0."""
    channel.enqueue_soa(module * BANKS + bank, row, is_write, 0, kind, done)


def run_one(events, channel, module, bank, row, is_write=False):
    done = []
    enqueue(channel, module, bank, row, done.append, is_write)
    events.run()
    assert len(done) == 1
    return done[0]


class TestQueues:
    def test_enqueue_records_entries_in_arrival_order(self):
        _events, channel = make_channel()
        done = lambda now: None
        channel.enqueue_soa(3, 40, False, 100, 0, done)
        channel.enqueue_soa(7, 41, True, 101, 2)
        channel.enqueue_soa(5, 42, False, 102, 1)
        # Each entry is tagged with its counter-slot bits,
        # kind << 3 | is_write << 1.
        assert channel._reads == [
            (3, 40, 100, 0 << 3, done),
            (5, 42, 102, 1 << 3, None),
        ]
        # Posted writes complete at acceptance: the queue keeps no callback.
        assert channel._writes == [(7, 41, 101, 2 << 3 | 1 << 1, None)]
        assert channel.queue_depth() == 3

    def test_tick_dequeues_entry_and_schedules_completion(self):
        events, channel = make_channel()
        done = []
        channel.enqueue_soa(1, 1, False, 0, 0, done.append)
        channel._tick_python(0)
        assert channel._reads == []
        assert channel.queue_depth() == 0
        events.run()
        assert done == [M1.t_rcd + M1.cl + M1.line_burst]

    def test_release_drops_queued_completions(self):
        _events, channel = make_channel()
        channel.enqueue_soa(0, 1, False, 5, 0, lambda now: None)
        channel.release()
        assert channel._reads == [(0, 1, 5, 0, None)]
        assert channel.queue_depth() == 1

    def test_no_row_sentinel_is_outside_the_st_row_namespace(self):
        # ST rows use a negative namespace (-1 - k): the sentinel must
        # never collide with a representable row id.
        assert NO_ROW < -(1 << 40)
        _events, channel = make_channel()
        assert channel.bank(Module.M1, 0).open_row is None


class TestSingleRequestLatency:
    def test_m1_cold_miss(self):
        events, channel = make_channel()
        latency = run_one(events, channel, Module.M1, 0, 0)
        # No precharge on a closed bank: tRCD + CL + burst.
        assert latency == M1.t_rcd + M1.cl + M1.line_burst

    def test_m2_cold_miss_is_ten_x_trcd(self):
        events, channel = make_channel()
        latency = run_one(events, channel, Module.M2, 0, 0)
        assert latency == M2.t_rcd + M2.cl + M2.line_burst
        assert M2.t_rcd == 10 * M1.t_rcd

    def test_row_hit_is_cas_plus_burst(self):
        events, channel = make_channel()
        run_one(events, channel, Module.M1, 0, 0)
        start = events.now
        latency = run_one(events, channel, Module.M1, 0, 0) - start
        assert latency == M1.cl + M1.line_burst

    def test_row_conflict_pays_precharge(self):
        events, channel = make_channel()
        run_one(events, channel, Module.M1, 0, 0)
        start = events.now
        latency = run_one(events, channel, Module.M1, 0, 1) - start
        assert latency == M1.t_rp + M1.t_rcd + M1.cl + M1.line_burst

    def test_dirty_row_conflict_pays_write_recovery(self):
        events, channel = make_channel()
        run_one(events, channel, Module.M2, 0, 0, is_write=True)
        # Sync past the drained write's burst (it ends by 500 cycles).
        events.schedule(600, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, Module.M2, 0, 1) - start
        expected = M2.t_wr + M2.t_rp + M2.t_rcd + M2.cl + M2.line_burst
        assert latency == expected

    def test_write_hit_does_not_pay_recovery_inline(self):
        # Writes into an open row buffer are cheap; tWR is deferred.
        events, channel = make_channel()
        run_one(events, channel, Module.M2, 0, 0, is_write=True)
        events.schedule(600, lambda c: None)
        events.run()
        # The second write drains as a row hit: bank busy only CAS + burst
        # beyond the first write's burst end (500).
        run_one(events, channel, Module.M2, 0, 0, is_write=True)
        bank = channel.bank(Module.M2, 0)
        assert bank.ready_at == 600 + M2.cl + M2.line_burst


class TestIdleClose:
    def test_idle_row_closes(self):
        events, channel = make_channel(idle_close=480)  # 150 ns
        run_one(events, channel, Module.M1, 0, 0)
        # Wait out the idle window.
        events.schedule(events.now + 10_000, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, Module.M1, 0, 0) - start
        # Same row, but it was closed: full activate, no precharge stall
        # (precharge happened in the background long ago).
        assert latency == M1.t_rcd + M1.cl + M1.line_burst

    def test_prompt_reuse_still_hits(self):
        events, channel = make_channel(idle_close=480)
        run_one(events, channel, Module.M1, 0, 0)
        start = events.now
        latency = run_one(events, channel, Module.M1, 0, 0) - start
        assert latency == M1.cl + M1.line_burst

    def test_dirty_idle_close_can_delay_reactivation(self):
        events, channel = make_channel(idle_close=480)
        run_one(events, channel, Module.M2, 0, 0, is_write=True)
        # The write drains by cycle 500; arrive just after its row's
        # idle-close begins, while the tWR tail is still draining.
        events.schedule(500 + 481, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, Module.M2, 0, 0) - start
        assert latency > M2.t_rcd + M2.cl + M2.line_burst


class TestBusSerialization:
    def test_two_hits_same_cycle_serialize_on_bus(self):
        events, channel = make_channel()
        # Open two rows on different banks first.
        run_one(events, channel, Module.M1, 0, 0)
        run_one(events, channel, Module.M1, 1, 0)
        done = []
        enqueue(channel, Module.M1, 0, 0, done.append)
        enqueue(channel, Module.M1, 1, 0, done.append)
        events.run()
        assert len(done) == 2
        assert abs(done[1] - done[0]) >= M1.line_burst

    def test_bank_prep_overlaps_burst(self):
        events, channel = make_channel()
        done = []
        # Two cold misses on different banks: the second's activation
        # overlaps the first's, so completion gap is far below a full
        # serial miss latency.
        enqueue(channel, Module.M2, 0, 0, done.append)
        enqueue(channel, Module.M2, 1, 0, done.append)
        events.run()
        serial = 2 * (M2.t_rcd + M2.cl + M2.line_burst)
        assert max(done) < serial


class TestSwaps:
    def test_swap_blocks_channel(self):
        events, channel = make_channel()
        end = channel.schedule_swap(0, 0, 0, 0)
        assert end == 2548
        latency = run_one(events, channel, Module.M1, 1, 0)
        assert latency >= 2548

    def test_swap_leaves_rows_open_dirty(self):
        events, channel = make_channel()
        end = channel.schedule_swap(2, 7, 3, 9)
        events.schedule(end, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, Module.M1, 2, 7) - start
        assert latency == M1.cl + M1.line_burst

    def test_swap_completion_callback(self):
        events, channel = make_channel()
        fired = []
        channel.schedule_swap(0, 0, 0, 0, on_complete=lambda c: fired.append(c))
        events.run()
        assert fired == [2548]

    def test_swaps_serialize(self):
        events, channel = make_channel()
        channel.schedule_swap(0, 0, 0, 0)
        end = channel.schedule_swap(1, 0, 1, 0)
        assert end == 2 * 2548

    def test_swap_counted(self):
        events, channel = make_channel()
        channel.schedule_swap(0, 0, 0, 0)
        assert channel.stats.swaps == 1


class TestStats:
    def test_read_latency_tracks_data_reads_only(self):
        events, channel = make_channel()
        enqueue(channel, Module.M1, 0, -1, kind=RequestKind.ST_READ)
        events.run()
        assert channel.stats.read_count == 0
        assert channel.stats.st_reads == 1
        run_one(events, channel, Module.M1, 0, 0)
        assert channel.stats.read_count == 1

    def test_row_hit_counter(self):
        events, channel = make_channel()
        run_one(events, channel, Module.M1, 0, 0)
        run_one(events, channel, Module.M1, 0, 0)
        assert channel.stats.row_hits == 1

    def test_energy_recording(self):
        events, channel = make_channel()
        meter = EnergyMeter(EnergyConfig(), [channel.stats])
        run_one(events, channel, Module.M2, 0, 0)
        assert meter.activates == [0, 1]
        assert meter.line_reads == [0, 1]
        assert meter.line_writes == [0, 0]
        run_one(events, channel, Module.M2, 0, 0)  # row hit: no activate
        assert meter.activates == [0, 1]
        assert meter.line_reads == [0, 2]

    def test_swap_energy(self):
        events, channel = make_channel()
        meter = EnergyMeter(EnergyConfig(), [channel.stats])
        channel.schedule_swap(0, 0, 0, 0)
        assert meter.activates == [1, 1]
        assert meter.line_reads == [32, 32]
        assert meter.line_writes == [32, 32]

    def test_counts_match_a_hand_tally_mid_run_and_after_finalize(self):
        # Scripted traffic on channel 0 of a real controller: demand and
        # ST reads and writes, row hits, a swap and two refreshes.  The
        # channel statistics and the controller's energy meter must
        # equal a hand tally at every step, and after ``finalize()``.
        config = paper_quad_core(scale=128)
        events = EventQueue()
        controller = HybridMemoryController(
            config, events, build_policy("static", config)
        )
        channel = controller.channels[0]
        meter = controller.energy
        tally = dict.fromkeys(
            ("reads", "writes", "row_hits", "swaps", "read_latency_sum",
             "read_count", "st_reads", "st_writes", "refreshes"),
            0,
        )
        activates, line_reads, line_writes = [0, 0], [0, 0], [0, 0]

        def check():
            stats = channel.stats
            assert {field: getattr(stats, field) for field in tally} == tally
            if tally["read_count"]:
                assert stats.average_read_latency == (
                    tally["read_latency_sum"] / tally["read_count"]
                )
            assert meter.activates == activates
            assert meter.line_reads == line_reads
            assert meter.line_writes == line_writes
            assert meter.refreshes == tally["refreshes"]

        def serve(module, bank, row, is_write, kind, hit, refreshes=0):
            done = []
            arrival = events.now
            channel.enqueue_soa(
                module * BANKS + bank, row, is_write, arrival, kind, done.append
            )
            check()  # queued, not yet served: nothing counted
            events.run()
            tally["refreshes"] += refreshes
            tally["writes" if is_write else "reads"] += 1
            tally["row_hits"] += hit
            activates[module] += not hit
            (line_writes if is_write else line_reads)[module] += 1
            if kind == RequestKind.ST_READ:
                tally["st_reads"] += 1
            elif kind == RequestKind.ST_WRITE:
                tally["st_writes"] += 1
            elif not is_write:
                tally["read_count"] += 1
                tally["read_latency_sum"] += done[0] - arrival
            check()

        data, st_read, st_write = (
            RequestKind.DATA, RequestKind.ST_READ, RequestKind.ST_WRITE
        )
        serve(Module.M1, 0, 5, False, data, hit=False)
        serve(Module.M1, 0, 5, False, data, hit=True)
        serve(Module.M1, 1, -1, False, st_read, hit=False)
        serve(Module.M2, 2, 7, True, data, hit=False)
        serve(Module.M2, 2, 7, True, data, hit=True)
        serve(Module.M1, 1, -2, True, st_write, hit=False)
        channel.schedule_swap(3, 9, 4, 11)
        tally["swaps"] += 1
        for module in (Module.M1, Module.M2):
            activates[module] += 1
            line_reads[module] += 32
            line_writes[module] += 32
        check()
        # Past two M1 refresh intervals: the next M1 request catches up
        # on both refreshes, which closed the swap's open row.
        events.schedule(2 * config.m1_timings.t_refi + 100, lambda c: None)
        events.run()
        serve(Module.M1, 3, 9, False, data, hit=False, refreshes=2)

        # finalize() flushes the STC; the write-back it queues for a
        # touched entry never issues, so it counts nowhere.
        controller.stc.insert(0, (0,) * 9, controller.st.entry(0))
        controller.stc.peek(0).counters[0] = 3
        controller.finalize()
        assert channel.queue_depth() == 1
        check()


class TestRefresh:
    def test_m1_refresh_closes_rows(self):
        events, channel = make_channel()
        run_one(events, channel, Module.M1, 0, 0)
        # Jump past several refresh intervals.
        events.schedule(events.now + 3 * M1.t_refi, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, Module.M1, 0, 0) - start
        # Row was closed by refresh: the access re-activates.
        assert latency >= M1.t_rcd + M1.cl + M1.line_burst
        assert channel.stats.refreshes >= 3

    def test_m2_never_refreshes(self):
        events, channel = make_channel()
        run_one(events, channel, Module.M2, 0, 0)
        events.schedule(events.now + 10 * M1.t_refi, lambda c: None)
        events.run()
        before = channel.stats.refreshes
        run_one(events, channel, Module.M2, 1, 0)
        assert channel.stats.refreshes == before
        assert M2.t_refi == 0

    def test_refresh_delays_prompt_request(self):
        events, channel = make_channel()
        # Arrive exactly at the refresh boundary: bank busy for tRFC.
        events.schedule(M1.t_refi, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, Module.M1, 0, 0) - start
        assert latency >= M1.t_rfc


class TestWriteQueue:
    def test_write_acceptance_is_immediate(self):
        events, channel = make_channel()
        accepted = []
        enqueue(channel, Module.M1, 0, 0, accepted.append, is_write=True)
        events.step()  # acceptance event only
        assert accepted and accepted[0] == 0

    def test_reads_prioritized_over_buffered_writes(self):
        events, channel = make_channel()
        order = []
        enqueue(channel, Module.M2, 0, 5, is_write=True)
        enqueue(channel, Module.M1, 1, 0, lambda c: order.append("read"))
        events.run()
        # The read completes long before the slow M2 write would have.
        assert channel.stats.reads == 1
        assert channel.stats.writes == 1
        assert order == ["read"]

    def test_writes_drain_when_idle(self):
        events, channel = make_channel()
        for row in range(3):
            enqueue(channel, Module.M1, 0, row, is_write=True)
        events.run()
        assert channel.stats.writes == 3
        assert channel.queue_depth() == 0

    def test_backpressure_beyond_cap(self):
        events, channel = make_channel()
        accepted = []
        total = Channel.WRITE_QUEUE_CAP + 8
        for index in range(total):
            enqueue(
                channel, Module.M2, index % 16, index,
                lambda c, i=index: accepted.append(i), is_write=True,
            )
        # Before any draining, only the first CAP writes are accepted.
        assert len(accepted) <= Channel.WRITE_QUEUE_CAP
        events.run()
        assert len(accepted) == total

    def test_high_watermark_forces_drain_despite_reads(self):
        events, channel = make_channel()
        for index in range(Channel.WRITE_QUEUE_HIGH):
            enqueue(channel, Module.M1, index % 16, index, is_write=True)
        # A steady read stream would otherwise starve the writes.
        for index in range(4):
            enqueue(channel, Module.M1, index % 16, 100 + index)
        events.run()
        assert channel.stats.writes == Channel.WRITE_QUEUE_HIGH
