"""Hybrid memory controller integration tests."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import paper_quad_core, STCConfig
from repro.common.events import EventQueue
from repro.hybrid.memory import HybridMemoryController
from repro.policies.registry import build_policy, registry_names
from repro.policies.base import AccessContext, MigrationPolicy
from repro.sim.engine import SimulationDriver
from repro.traces.generator import synthesize_trace

CONFIG = paper_quad_core(scale=64)


class PromoteAlways(MigrationPolicy):
    """Test policy: promote every M2 access."""

    name = "promote-always"

    def __init__(self, config):
        super().__init__(config)
        self.evictions = 0

    def on_access(self, ctx: AccessContext):
        return None if ctx.in_m1 else ctx.slot

    def on_st_eviction(self, stc_entry, st_entry):
        self.evictions += 1


class RecordingPolicy(MigrationPolicy):
    """Test policy: never promote; record each served request's STC
    entry beside what a fresh probe of the STC returns at that instant."""

    name = "recording"

    def __init__(self, config):
        super().__init__(config)
        self.seen = []

    def on_access(self, ctx: AccessContext):
        self.seen.append((ctx.stc_entry, self._controller.stc.peek(ctx.group)))
        return None


def small_stc(ways):
    """A config whose STC is one set of ``ways`` entries, so any other
    group's fill can evict."""
    return replace(
        CONFIG, stc=STCConfig(capacity=8 * ways, associativity=ways)
    )


def make_controller(policy=None, config=CONFIG):
    events = EventQueue()
    policy = policy or build_policy("static", config)
    controller = HybridMemoryController(config, events, policy, seed=1)
    return events, controller


def line_of(controller, group, slot, offset=0):
    block = controller.address_map.block_of(group, slot)
    return block * 32 + offset


class TestAccessPath:
    def test_m1_access_served(self):
        events, controller = make_controller()
        done = []
        controller.access(0, line_of(controller, 0, 0), False, done.append)
        events.run()
        assert len(done) == 1
        assert controller.core_stats[0].requests == 1
        assert controller.core_stats[0].served_from_m1 == 1

    def test_m2_access_counted(self):
        events, controller = make_controller()
        controller.access(0, line_of(controller, 0, 3), False)
        events.run()
        assert controller.core_stats[0].served_from_m1 == 0

    def test_m2_slower_than_m1(self):
        events, controller = make_controller()
        latencies = []
        controller.access(0, line_of(controller, 0, 0), False, lambda c: latencies.append(c))
        events.run()
        start = events.now
        controller.access(0, line_of(controller, 2, 3), False, lambda c: latencies.append(c - start))
        events.run()
        assert latencies[1] > latencies[0]

    def test_read_write_counters(self):
        events, controller = make_controller()
        controller.access(0, line_of(controller, 0, 0), False)
        controller.access(0, line_of(controller, 0, 0), True)
        events.run()
        stats = controller.core_stats[0]
        assert stats.reads == 1
        assert stats.writes == 1

    def test_stc_miss_generates_st_read(self):
        events, controller = make_controller()
        controller.access(0, line_of(controller, 4, 0), False)
        events.run()
        st_reads = sum(c.stats.st_reads for c in controller.channels)
        assert st_reads == 1

    def test_stc_hit_no_extra_fetch(self):
        events, controller = make_controller()
        controller.access(0, line_of(controller, 4, 0), False)
        events.run()
        controller.access(0, line_of(controller, 4, 0, offset=1), False)
        events.run()
        st_reads = sum(c.stats.st_reads for c in controller.channels)
        assert st_reads == 1
        assert controller.stc_hit_rate() == 0.5

    def test_concurrent_misses_coalesce(self):
        events, controller = make_controller()
        controller.access(0, line_of(controller, 4, 0), False)
        controller.access(0, line_of(controller, 4, 1), False)
        events.run()
        st_reads = sum(c.stats.st_reads for c in controller.channels)
        assert st_reads == 1
        assert controller.core_stats[0].requests == 2

    def test_access_counter_bumped_with_weight(self):
        # MDM-family policies weigh writes as eight accesses (Sec. 4.1).
        events, controller = make_controller(build_policy("mdm", CONFIG))
        controller.access(0, line_of(controller, 4, 2), True)  # write: x8
        events.run()
        entry = controller.stc.peek(4)
        assert entry.count(2) == CONFIG.write_access_weight

    def test_access_counter_weight_one_for_static(self):
        events, controller = make_controller()
        controller.access(0, line_of(controller, 4, 2), True)
        events.run()
        assert controller.stc.peek(4).count(2) == 1


class TestCarriedSTCEntry:
    """``access`` hands its STC hit to the serve hop; an entry evicted in
    between must not be served from."""

    def _hit_then_queue_serve(self, controller, events, done):
        controller.access(0, line_of(controller, 4, 2), False)
        events.run()
        hit = controller.stc.peek(4)
        # An STC hit: the serve hop is queued, latency_cycles away.
        controller.access(0, line_of(controller, 4, 2, offset=1), False, done.append)
        assert controller.stc.hits == 1
        return hit

    @staticmethod
    def _st_reads(controller):
        return sum(c.stats.st_reads for c in controller.channels)

    def test_evicted_hit_is_fetched_again(self):
        config = small_stc(1)
        policy = RecordingPolicy(config)
        events, controller = make_controller(policy, config)
        done = []
        hit = self._hit_then_queue_serve(controller, events, done)
        # Another group's fill evicts the hit before the serve hop runs.
        controller.stc.insert(5, (0,) * 9, controller.st.entry(5))
        assert not hit.resident
        events.run()
        # A fresh probe would miss: the ST entry is fetched again and
        # the request is served from, and counted on, the new entry.
        assert done
        assert self._st_reads(controller) == 2
        refetched = controller.stc.peek(4)
        assert refetched is not hit and refetched.resident
        assert hit.count(2) == 1
        assert refetched.count(2) == 1
        assert [entry is probe for entry, probe in policy.seen] == [True, True]
        assert policy.seen[-1][0] is refetched
        assert controller.core_stats[0].requests == 2

    def test_evicted_and_refilled_hit_serves_from_the_new_entry(self):
        config = small_stc(1)
        policy = RecordingPolicy(config)
        events, controller = make_controller(policy, config)
        done = []
        hit = self._hit_then_queue_serve(controller, events, done)
        controller.stc.insert(5, (0,) * 9, controller.st.entry(5))
        st_entry = controller.st.entry(4)
        controller.stc.insert(4, tuple(st_entry.qac), st_entry)
        refilled = controller.stc.peek(4)
        assert not hit.resident and refilled.resident
        events.run()
        # A fresh probe would hit the re-filled entry: no fetch, and the
        # request counts there, not on the evicted entry.
        assert done
        assert self._st_reads(controller) == 1
        assert hit.count(2) == 1
        assert refilled.count(2) == 1
        assert policy.seen[-1][0] is refilled
        assert controller.core_stats[0].requests == 2

    def test_resident_hit_is_served_without_a_second_probe(self, monkeypatch):
        events, controller = make_controller()
        done = []
        hit = self._hit_then_queue_serve(controller, events, done)
        monkeypatch.setattr(
            controller, "_stc_peek", lambda group: pytest.fail("probed")
        )
        events.run()
        assert done
        assert hit.count(2) == 2

    def test_fetched_entry_is_served_without_a_probe(self, monkeypatch):
        # An STC miss: the fill hands the entry it inserted to every
        # request waiting on the fetch, so their serves probe nothing.
        policy = RecordingPolicy(CONFIG)
        events, controller = make_controller(policy)
        monkeypatch.setattr(
            controller, "_stc_peek", lambda group: pytest.fail("probed")
        )
        controller.access(0, line_of(controller, 4, 2), False)
        controller.access(0, line_of(controller, 4, 3), False)
        events.run()
        assert self._st_reads(controller) == 1
        filled = controller.stc._array.peek(4)
        assert [entry for entry, _probe in policy.seen] == [filled, filled]
        assert filled.count(2) == filled.count(3) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        ways=st.integers(1, 3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["access", "fill", "run"]),
                st.integers(0, 7),
                st.integers(0, 8),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_served_entry_is_what_a_fresh_probe_returns(self, ways, ops):
        # Fills land between an access and its serve hop: they evict
        # carried hits, re-fill evicted groups, and insert over groups
        # that are resident or have an ST fetch in flight.
        config = small_stc(ways)
        policy = RecordingPolicy(config)
        events, controller = make_controller(policy, config)
        accesses = 0
        for op, group, slot, is_write in ops:
            if op == "access":
                controller.access(0, line_of(controller, group, slot), is_write)
                accesses += 1
            elif op == "fill":
                st_entry = controller.st.entry(group)
                controller.stc.insert(group, tuple(st_entry.qac), st_entry)
            else:
                events.run()
        events.run()
        assert len(policy.seen) == accesses
        assert all(entry is probe for entry, probe in policy.seen)
        assert controller.core_stats[0].requests == accesses


class TestSwaps:
    def test_promotion_updates_translation(self):
        events, controller = make_controller(PromoteAlways(CONFIG))
        controller.access(0, line_of(controller, 6, 5), False)
        events.run()
        st_entry = controller.st.entry(6)
        assert st_entry.location_of(5) == 0
        assert controller.total_swaps == 1

    def test_swapped_block_now_served_from_m1(self):
        events, controller = make_controller(PromoteAlways(CONFIG))
        controller.access(0, line_of(controller, 6, 5), False)
        events.run()
        controller.access(0, line_of(controller, 6, 5, offset=1), False)
        events.run()
        assert controller.core_stats[0].served_from_m1 == 1

    def test_swap_fraction(self):
        events, controller = make_controller(PromoteAlways(CONFIG))
        controller.access(0, line_of(controller, 6, 5), False)
        events.run()
        assert controller.swap_fraction() == pytest.approx(1.0)

    def test_no_double_swap_while_pending(self):
        events, controller = make_controller(PromoteAlways(CONFIG))
        controller.access(0, line_of(controller, 6, 5), False)
        controller.access(0, line_of(controller, 6, 4), False)
        events.run()
        # Both accesses decide to promote, but the second commit arrives
        # while the first swap is pending or after 5 is already in M1.
        assert controller.total_swaps <= 2

    def test_m1_owner_updated(self):
        events, controller = make_controller(PromoteAlways(CONFIG))
        # Give program 1 a page so ownership is meaningful.
        frames = controller.allocator.allocate(1, 4)
        block = 2 * frames[0]
        group = controller.address_map.group_of_block(block)
        slot = controller.address_map.slot_of_block(block)
        if slot == 0:
            block = 2 * frames[1] if controller.address_map.slot_of_block(2 * frames[1]) else 2 * frames[1] + 1
            group = controller.address_map.group_of_block(block)
            slot = controller.address_map.slot_of_block(block)
        if slot != 0:
            controller.access(1, block * 32, False)
            events.run()
            assert controller.st.entry(group).m1_owner == 1

    @pytest.mark.xfail(
        strict=True,
        reason="STEntry.m1_owner stays None until the group's first swap",
    )
    def test_m1_owner_names_the_owner_of_an_unswapped_m1_block(self):
        # STEntry's contract: m1_owner is None only while the block in
        # M1 belongs to no allocated page.  An M1-home block of a page
        # program 1 owns sits in M1 from the start, so the group's entry
        # must name program 1 as soon as it exists.
        events, controller = make_controller()
        amap = controller.address_map
        frames = controller.allocator.allocate(1, 64)
        block = next(
            2 * frame for frame in frames if amap.slot_of_block(2 * frame) == 0
        )
        group = amap.group_of_block(block)
        controller.access(1, line_of(controller, group, 3), False)
        events.run()
        entry = controller.st.entry(group)
        assert controller.owner_of_slot(group, entry.m1_slot) == 1
        assert entry.m1_owner == 1

    def test_request_promotion_noop_for_m1_resident(self):
        events, controller = make_controller()
        assert controller.request_promotion(3, 0) is False
        assert controller.total_swaps == 0


class TestEvictionsAndFinalize:
    def test_eviction_callback_reaches_policy(self):
        tiny_stc = replace(CONFIG, stc=STCConfig(capacity=512))
        policy = PromoteAlways(tiny_stc)
        events, controller = make_controller(policy, tiny_stc)
        # Touch more groups than the STC holds (64 entries).
        for group in range(0, 200, 1):
            controller.access(0, line_of(controller, group, 0), False)
        events.run()
        assert policy.evictions > 0

    def test_finalize_flushes(self):
        policy = PromoteAlways(CONFIG)
        events, controller = make_controller(policy)
        controller.access(0, line_of(controller, 2, 0), False)
        events.run()
        controller.finalize()
        assert policy.evictions >= 1
        assert controller.stc.peek(2) is None

    def test_st_writeback_on_touched_eviction(self):
        tiny_stc = replace(CONFIG, stc=STCConfig(capacity=512))
        events, controller = make_controller(config=tiny_stc)
        for group in range(0, 200):
            controller.access(0, line_of(controller, group, 1), False)
        events.run()
        st_writes = sum(c.stats.st_writes for c in controller.channels)
        assert st_writes > 0


class TestRSMIntegration:
    def test_requests_counted_by_region_type(self):
        events, controller = make_controller()
        frames = controller.allocator.allocate(0, 64)
        private = [
            f
            for f in frames
            if controller.region_map.is_private_to(
                controller.address_map.region_of_page(f), 0
            )
        ]
        shared = [
            f
            for f in frames
            if not controller.region_map.is_private_to(
                controller.address_map.region_of_page(f), 0
            )
        ]
        if private:
            controller.access(0, 2 * private[0] * 32, False)
        if shared:
            controller.access(0, 2 * shared[0] * 32, False)
        events.run()
        counters = controller.rsm.counters[0]
        assert counters.num_req_total_p == (1 if private else 0)
        assert counters.num_req_total_s == (1 if shared else 0)

    def test_private_region_swaps_not_counted(self):
        events, controller = make_controller(PromoteAlways(CONFIG))
        #

        # Find a group in program 0's private region with an M2 slot owned.
        frames = controller.allocator.allocate(0, 400)
        target = None
        for frame in frames:
            region = controller.address_map.region_of_page(frame)
            block = 2 * frame
            slot = controller.address_map.slot_of_block(block)
            if controller.region_map.is_private_to(region, 0) and slot != 0:
                target = block
                break
        if target is not None:
            controller.access(0, target * 32, False)
            events.run()
            assert controller.total_swaps == 1
            assert controller.rsm.counters[0].num_swap_total == 0


class TestServedOwner:
    @pytest.mark.parametrize("policy", registry_names())
    def test_served_block_belongs_to_the_requesting_program(self, policy):
        # ``_serve`` hands the policy the requesting core's program as
        # the block's owner; lockstep over a whole quad run, that is the
        # block's frame owner for every served demand request.
        config = paper_quad_core(scale=256)
        traces = [
            (name, synthesize_trace(name, 400, scale=256, seed=seed))
            for seed, name in enumerate(("mcf", "soplex", "lbm", "GemsFDTD"))
        ]
        driver = SimulationDriver(config, policy, traces, seed=0)
        controller = driver.controller
        requester = []
        served = []
        rsm_on_request = controller._rsm_on_request
        policy_on_access = controller._policy_on_access

        def on_request(program, *args):
            requester.append(program)
            rsm_on_request(program, *args)

        def on_access(ctx):
            served.append(
                (
                    requester.pop(),
                    ctx.owner,
                    controller.owner_of_slot(ctx.group, ctx.slot),
                )
            )
            return policy_on_access(ctx)

        controller._rsm_on_request = on_request
        controller._policy_on_access = on_access
        driver.run()
        assert len(served) == controller.total_requests() > 0
        assert all(
            program == owner == frame_owner
            for program, owner, frame_owner in served
        )
