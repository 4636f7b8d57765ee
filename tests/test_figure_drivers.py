"""Figure-driver tests on a stubbed runner (no simulation)."""

from repro.experiments import fig02, fig16
from repro.experiments.accumulators import CellMetrics, StreamedMetricsSweep
from repro.sim.metrics import WorkloadMetrics
from repro.workloads.table10 import WORKLOADS


class StubRunner:
    """Canned per-policy slowdowns for the detail workloads."""

    SLOWDOWNS = {
        "pom": (4.0, 3.0, 2.5, 2.0),
        "mdm": (3.6, 2.9, 2.4, 2.1),
        "profess": (3.2, 2.8, 2.6, 2.2),
    }

    def run_cells(self, cells):
        wave = StreamedMetricsSweep()
        for cell_id, programs, policy, _config in cells:
            slowdowns = self.SLOWDOWNS[policy]
            metrics = WorkloadMetrics(
                policy=policy,
                program_names=tuple(programs),
                slowdowns=slowdowns,
                weighted_speedup=sum(1 / s for s in slowdowns),
                unfairness=max(slowdowns),
                energy_efficiency=1e6,
                average_read_latency=100.0,
                swap_fraction=0.02,
            )
            wave.cells[cell_id] = CellMetrics(
                metrics=metrics, total_swaps=0, stc_hit_rate=0.0
            )
        return wave


class TestFig02:
    def test_rows_per_workload_program(self):
        result = fig02.run(StubRunner())
        assert len(result.rows) == 12
        workloads = {row[0] for row in result.rows}
        assert workloads == {"w09", "w16", "w19"}

    def test_spread_computed(self):
        result = fig02.run(StubRunner())
        for value in result.summary.values():
            assert value == 2.0  # 4.0 / 2.0


class TestFig16:
    def test_three_policies_per_row(self):
        result = fig16.run(StubRunner())
        assert result.headers[-3:] == ["pom", "mdm", "profess"]
        for row in result.rows:
            assert len(row) == 5

    def test_max_summary_lines(self):
        result = fig16.run(StubRunner())
        assert "w09 max slowdown pom/mdm/profess" in result.summary
        assert result.summary["w09 max slowdown pom/mdm/profess"] == (
            "4.00 / 3.60 / 3.20"
        )

    def test_program_names_match_table10(self):
        result = fig16.run(StubRunner())
        w09_rows = [row for row in result.rows if row[0] == "w09"]
        assert tuple(row[1] for row in w09_rows) == WORKLOADS["w09"]
