"""MemPod policy tests: MEA tracking and interval-batched migrations."""

from dataclasses import replace

from repro.common.config import MemPodConfig, paper_quad_core
from repro.common.events import EventQueue
from repro.hybrid.memory import HybridMemoryController
from repro.policies.mempod import MEATracker, MemPodPolicy

CONFIG = paper_quad_core(scale=64)


class TestMEATracker:
    def test_insert_and_increment(self):
        mea = MEATracker(4)
        mea.observe(10)
        mea.observe(10)
        assert mea.counters[10] == 2

    def test_decrement_all_when_full(self):
        mea = MEATracker(2)
        mea.observe(1)
        mea.observe(1)
        mea.observe(2)
        mea.observe(3)  # full: decrement all; 2 dies, 1 survives at 1
        assert 2 not in mea.counters
        assert mea.counters.get(1) == 1

    def test_majority_element_survives(self):
        mea = MEATracker(2)
        stream = [7] * 50 + list(range(100, 130))
        for block in stream:
            mea.observe(block)
        assert 7 in mea.counters

    def test_hottest_ordering(self):
        mea = MEATracker(8)
        for _ in range(5):
            mea.observe(1)
        for _ in range(3):
            mea.observe(2)
        mea.observe(3)
        assert mea.hottest(2) == [1, 2]

    def test_clear(self):
        mea = MEATracker(4)
        mea.observe(1)
        mea.clear()
        assert not mea.counters


class TestMemPodPolicy:
    def _driver(self, mempod_cfg=None):
        cfg = CONFIG
        if mempod_cfg is not None:
            cfg = replace(CONFIG, mempod=mempod_cfg)
        events = EventQueue()
        policy = MemPodPolicy(cfg)
        controller = HybridMemoryController(cfg, events, policy)
        return events, policy, controller

    def test_write_weight_is_one(self):
        assert MemPodPolicy(CONFIG).write_weight == 1

    def test_no_migration_before_interval(self):
        events, policy, controller = self._driver()
        controller.access(0, line=32 * controller.address_map.total_groups, is_write=False)
        events.run()
        assert controller.total_swaps == 0

    def test_batched_migration_after_interval(self):
        # Shrink the interval so the test stays fast.
        events, policy, controller = self._driver(
            MemPodConfig(interval_us=0.1, mea_counters=16)
        )
        total_groups = controller.address_map.total_groups
        hot_line = 32 * total_groups + 7 * 32  # slot-1 block of group 7
        for _ in range(4):
            controller.access(0, hot_line, is_write=False)
            events.run()
        # Advance past an interval boundary and touch memory again.
        events.schedule(events.now + 2_000, lambda c: None)
        events.run()
        controller.access(0, hot_line + 1, is_write=False)
        events.run()
        assert policy.intervals >= 1
        assert controller.total_swaps >= 1

    def test_migrations_capped(self):
        cfg = MemPodConfig(
            interval_us=0.1, mea_counters=128, max_migrations_per_interval=2
        )
        events, policy, controller = self._driver(cfg)
        total_groups = controller.address_map.total_groups
        for group in range(10):
            line = 32 * total_groups + group * 32
            controller.access(0, line, is_write=False)
            events.run()
        events.schedule(events.now + 2_000, lambda c: None)
        events.run()
        assert len(policy._pending) <= 2 or policy.intervals == 0
