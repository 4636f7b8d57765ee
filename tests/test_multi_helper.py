"""Tests for the shared multiprogram-figure machinery (stubbed runner)."""

import pytest

from repro.exec.resilience import RunFailure
from repro.experiments.accumulators import CellMetrics, StreamedMetricsSweep
from repro.experiments.multi import normalized_figure, sweep
from repro.sim.metrics import WorkloadMetrics
from repro.workloads.table10 import WORKLOADS

#: Program mix -> Table 10 workload name (the stub's cells carry mixes).
WORKLOAD_OF = {programs: name for name, programs in WORKLOADS.items()}


class StubRunner:
    """Returns canned cells; counts the cells it computes."""

    def __init__(self, values, failed=()):
        # values[workload][policy] -> (unfairness, weighted_speedup)
        self.values = values
        self.calls = 0
        #: Workload names whose (fake) runs failed after retries.
        self.failed_workloads = set(failed)
        self.failures = [
            RunFailure(
                key=f"{name}:pom",
                label=f"multi:{name}:pom",
                error_type="ChaosError",
                message="injected",
                traceback_digest="0123456789ab",
                attempts=1,
                retryable=False,
            )
            for name in sorted(self.failed_workloads)
        ]

    def run_cells(self, cells):
        wave = StreamedMetricsSweep()
        for cell_id, programs, policy, _config in cells:
            name = WORKLOAD_OF[tuple(programs)]
            if name in self.failed_workloads:
                # The failed run is shared by every cell of its workload.
                wave.failed[cell_id] = next(
                    f for f in self.failures if f.key == f"{name}:pom"
                )
                continue
            self.calls += 1
            unfairness, speedup = self.values[name][policy]
            metrics = WorkloadMetrics(
                policy=policy,
                program_names=("a", "b"),
                slowdowns=(unfairness, unfairness / 2),
                weighted_speedup=speedup,
                unfairness=unfairness,
                energy_efficiency=100.0,
                average_read_latency=50.0,
                swap_fraction=0.02,
            )
            wave.cells[cell_id] = CellMetrics(
                metrics=metrics, total_swaps=0, stc_hit_rate=0.0
            )
        return wave


VALUES = {
    "w01": {"pom": (4.0, 1.0), "mdm": (3.6, 1.1)},
    "w02": {"pom": (2.0, 2.0), "mdm": (2.2, 1.9)},
}


class TestSweep:
    def test_structure(self):
        runner = StubRunner(VALUES)
        result = sweep(runner, ["pom", "mdm"], workloads=["w01", "w02"])
        assert set(result) == {"w01", "w02"}
        assert result["w01"]["mdm"].unfairness == 3.6

    def test_failed_workloads_are_omitted(self):
        runner = StubRunner(VALUES, failed=["w01"])
        result = sweep(runner, ["pom", "mdm"], workloads=["w01", "w02"])
        assert set(result) == {"w02"}
        # The failed workload's metrics were never requested.
        assert runner.calls == 2


class TestNormalizedFigure:
    def test_ratios_and_summary(self):
        runner = StubRunner(VALUES)
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.unfairness,
            higher_is_better=False,
            workloads=["w01", "w02"],
        )
        ratios = {row[0]: row[3] for row in result.rows}
        assert ratios["w01"] == pytest.approx(0.9)
        assert ratios["w02"] == pytest.approx(1.1)
        assert result.summary["best_key"] == "w01"
        # geomean(0.9, 1.1) < 1: the figure shows a net improvement.
        assert result.summary["geomean"] == pytest.approx(
            (0.9 * 1.1) ** 0.5
        )

    def test_chart_in_notes(self):
        runner = StubRunner(VALUES)
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.weighted_speedup,
            higher_is_better=True,
            workloads=["w01", "w02"],
        )
        assert "baseline" in result.notes
        assert "w01" in result.notes

    def test_partial_wave_renders_failed_rows(self):
        runner = StubRunner(VALUES, failed=["w01"])
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.unfairness,
            higher_is_better=False,
            workloads=["w01", "w02"],
        )
        rows = {row[0]: row for row in result.rows}
        assert rows["w01"][1:] == ["FAILED", "FAILED", "-"]
        assert rows["w02"][3] == pytest.approx(1.1)
        # The summary covers only survivors; the failure table rides
        # along in the notes.
        assert result.summary["geomean"] == pytest.approx(1.1)
        assert "ChaosError" in result.notes
        assert "1 failed run(s)" in result.notes

    def test_all_failed_degrades_to_a_message(self):
        runner = StubRunner(VALUES, failed=["w01", "w02"])
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.unfairness,
            higher_is_better=False,
            workloads=["w01", "w02"],
        )
        assert all(row[1] == "FAILED" for row in result.rows)
        assert "FAILED" in result.summary
        assert "ChaosError" in result.notes
