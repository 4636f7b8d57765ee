"""Tests for measurement warm-up, slow swaps, refresh energy, and M1
utilization."""

import pytest

from repro.common.config import paper_quad_core, paper_single_core
from repro.common.events import EventQueue
from repro.hybrid.memory import HybridMemoryController
from repro.policies.registry import build_policy
from repro.sim.engine import SimulationDriver
from repro.traces.generator import synthesize_trace

SCALE = 128
SINGLE = paper_single_core(scale=SCALE)
QUAD = paper_quad_core(scale=SCALE)


def driver_for(policy="pom", warmup=0, requests=3000):
    trace = synthesize_trace("soplex", requests, scale=SCALE, seed=1)
    return SimulationDriver(
        SINGLE, policy, [("soplex", trace)], warmup_requests=warmup
    )


class TestWarmup:
    def test_warmup_changes_measured_ipc(self):
        cold = driver_for(warmup=0).run()
        warm = driver_for(warmup=1000).run()
        assert warm.program(0).ipc != cold.program(0).ipc
        assert warm.program(0).ipc > 0

    def test_warmup_excludes_cold_start(self):
        driver = driver_for(warmup=1000)
        driver.run()
        assert driver._warmed
        assert driver._warmup_cycle > 0
        assert driver._warmup_instructions[0] > 0

    def test_zero_warmup_measures_everything(self):
        driver = driver_for(warmup=0)
        result = driver.run()
        assert driver._warmup_cycle == 0
        assert result.program(0).instructions == pytest.approx(
            result.program(0).ipc * result.cycles, rel=0.01
        )


class TestSlowSwaps:
    def _line(self, controller, group, slot):
        return controller.address_map.block_of(group, slot) * 32

    def test_first_swap_is_fast(self):
        events = EventQueue()
        policy = build_policy("silcfm", QUAD)
        controller = HybridMemoryController(QUAD, events, policy)
        controller.access(0, self._line(controller, 5, 3), False)
        events.run()
        assert controller.total_swaps == 1
        assert controller.channels[1].stats.swaps == 1  # group 5 -> ch 1

    def test_remapped_group_pays_restore_pass(self):
        events = EventQueue()
        policy = build_policy("silcfm", QUAD)
        controller = HybridMemoryController(QUAD, events, policy)
        controller.access(0, self._line(controller, 5, 3), False)
        events.run()
        controller.access(0, self._line(controller, 5, 4), False)
        events.run()
        assert controller.total_swaps == 2
        # Second logical swap needed a restore: three channel swap ops.
        assert controller.channels[1].stats.swaps == 3

    def test_fast_policies_never_restore(self):
        events = EventQueue()
        policy = build_policy("cameo", QUAD)
        controller = HybridMemoryController(QUAD, events, policy)
        controller.access(0, self._line(controller, 5, 3), False)
        events.run()
        controller.access(0, self._line(controller, 5, 4), False)
        events.run()
        assert controller.channels[1].stats.swaps == 2

    def test_slow_swap_flag_values(self):
        assert build_policy("silcfm", QUAD).swap_style == "slow"
        assert build_policy("pom", QUAD).swap_style != "slow"
        assert build_policy("mdm", QUAD).swap_style != "slow"


class TestRefreshEnergy:
    def test_refreshes_add_energy(self):
        driver = driver_for(requests=3000)
        result = driver.run()
        meter = driver.controller.energy
        assert meter.refreshes > 0
        config = QUAD.energy
        assert meter.dynamic_energy_nj() >= meter.refreshes * config.m1_refresh_nj


class TestM1Utilization:
    def test_grows_with_allocation(self):
        events = EventQueue()
        controller = HybridMemoryController(
            QUAD, events, build_policy("static", QUAD)
        )
        before = controller.m1_utilization()
        controller.allocator.allocate(0, 400)
        after = controller.m1_utilization()
        assert after > before

    def test_bounded(self):
        events = EventQueue()
        controller = HybridMemoryController(
            QUAD, events, build_policy("static", QUAD)
        )
        assert 0.0 <= controller.m1_utilization() <= 1.0
