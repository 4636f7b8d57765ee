"""Simulation-driver tests: runs, repetition, measurement methodology."""

import pytest

from repro.common.config import paper_quad_core, paper_single_core
from repro.common.errors import SimulationError
from repro.sim.engine import SimulationDriver
from repro.traces.generator import LINES_PER_PAGE, synthesize_trace

QUAD = paper_quad_core(scale=128)
SINGLE = paper_single_core(scale=128)


def trace(name="zeusmp", requests=1500, seed=0):
    return synthesize_trace(name, requests, scale=128, seed=seed)


class TestSingleProgram:
    def test_run_completes(self):
        driver = SimulationDriver(SINGLE, "static", [("zeusmp", trace())])
        result = driver.run()
        assert result.cycles > 0
        assert result.program(0).ipc > 0
        assert result.program(0).passes_completed == 1

    def test_requests_served(self):
        driver = SimulationDriver(SINGLE, "static", [("zeusmp", trace())])
        result = driver.run()
        assert result.total_requests == 1500

    def test_policy_by_name_or_object(self):
        from repro.policies.static import StaticPolicy

        by_name = SimulationDriver(SINGLE, "static", [("zeusmp", trace())])
        by_object = SimulationDriver(
            SINGLE, StaticPolicy(SINGLE), [("zeusmp", trace())]
        )
        assert by_name.run().policy == by_object.run().policy == "static"

    def test_deterministic(self):
        results = [
            SimulationDriver(SINGLE, "pom", [("zeusmp", trace())]).run()
            for _ in range(2)
        ]
        assert results[0].cycles == results[1].cycles
        assert results[0].total_swaps == results[1].total_swaps

    def test_energy_positive(self):
        result = SimulationDriver(SINGLE, "static", [("zeusmp", trace())]).run()
        assert result.energy_joules > 0
        assert result.energy_efficiency > 0

    def test_lost_completions_raise(self):
        # A memory that never completes a request stalls the core, so the
        # queue drains before its first pass ends: the run raises instead
        # of returning a truncated result.
        driver = SimulationDriver(SINGLE, "static", [("zeusmp", trace())])
        driver.cores[0].access = lambda core_id, line, is_write, done: None
        with pytest.raises(SimulationError, match="completion was lost"):
            driver.run()


class TestMultiProgram:
    def _traces(self):
        return [
            ("zeusmp", trace("zeusmp", 1200, 0)),
            ("leslie3d", trace("leslie3d", 400, 1)),
        ]

    def test_fast_program_repeats(self):
        driver = SimulationDriver(QUAD, "static", self._traces())
        result = driver.run()
        # leslie3d's short trace finishes early and must repeat.
        assert result.program(1).passes_completed >= 1
        total_passes = sum(p.passes_completed for p in result.programs)
        assert total_passes >= 3

    def test_ends_when_all_first_passes_done(self):
        driver = SimulationDriver(QUAD, "static", self._traces())
        driver.run()
        assert all(driver._first_pass_done)

    def test_per_core_stats_separate(self):
        result = SimulationDriver(QUAD, "static", self._traces()).run()
        assert result.program(0).name == "zeusmp"
        assert result.program(1).name == "leslie3d"
        assert result.program(0).requests >= 1200


class TestTranslation:
    def _traces(self):
        return [
            ("zeusmp", trace("zeusmp", 600, 0)),
            ("leslie3d", trace("leslie3d", 400, 1)),
        ]

    def test_cores_replay_translated_traces(self):
        traces = self._traces()
        driver = SimulationDriver(QUAD, "pom", traces)
        for core, table, (_name, original) in zip(
            driver.cores, driver.page_tables, traces
        ):
            assert core.trace.lines.tolist() == [
                table.translate_line(line, LINES_PER_PAGE)
                for line in original.lines.tolist()
            ]
            assert core.trace.gaps is original.gaps
            assert core.trace.writes is original.writes

    def test_no_warmup_binds_cores_to_the_controller(self):
        driver = SimulationDriver(QUAD, "pom", self._traces())
        assert all(core.access == driver.controller.access for core in driver.cores)

    def test_warmup_interposes_the_driver(self):
        driver = SimulationDriver(
            QUAD, "pom", self._traces(), warmup_requests=100
        )
        assert all(core.access == driver._access for core in driver.cores)


class TestValidation:
    def test_rejects_empty_traces(self):
        with pytest.raises(SimulationError):
            SimulationDriver(QUAD, "static", [])

    def test_rejects_too_many_programs(self):
        traces = [("zeusmp", trace())] * 5
        with pytest.raises(SimulationError):
            SimulationDriver(QUAD, "static", traces)
