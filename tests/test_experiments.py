"""Experiment runner/registry tests (small scale to stay fast)."""

import collections

import pytest

from repro.common.config import paper_quad_core, paper_single_core
from repro.exec import SweepFailure
from repro.exec import executor as executor_module
from repro.exec.chaos import ChaosKilledError
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    # Tiny but complete runs: enough requests to exercise every path.
    return ExperimentRunner(
        scale=128, multi_requests=2500, single_requests=2500, seed=0
    )


class TestRunnerCaching:
    def test_single_run_cached(self, runner):
        first = runner.execute(runner.spec_single("zeusmp", "static"))
        second = runner.execute(runner.spec_single("zeusmp", "static"))
        assert first is second

    def test_different_policy_not_cached(self, runner):
        a = runner.execute(runner.spec_single("zeusmp", "static"))
        b = runner.execute(runner.spec_single("zeusmp", "pom"))
        assert a is not b

    def test_workload_traces_seed_instances(self, runner):
        traces = runner.workload_traces(["lbm", "lbm"])
        assert (traces[0][1].lines != traces[1][1].lines).any()

    def test_configs_scaled(self, runner):
        assert runner.quad_config().scale == 128
        assert runner.single_config().num_cores == 1


class TestSharedConfigs:
    def test_without_overrides_one_instance(self):
        runner = ExperimentRunner(scale=128)
        assert runner.quad_config() is runner.quad_config()
        assert runner.single_config() is runner.single_config()
        assert runner.spec_alone("mcf", "pom").config is runner.quad_config()
        assert (
            runner.spec_single("mcf", "pom").config is runner.single_config()
        )

    def test_overrides_build_a_new_instance(self):
        runner = ExperimentRunner(scale=128)
        shared = runner.quad_config()
        changed = runner.quad_config(frfcfs_cap=shared.frfcfs_cap + 1)
        assert changed is not shared
        assert changed.frfcfs_cap == shared.frfcfs_cap + 1
        assert changed.cache_token() != shared.cache_token()
        assert runner.quad_config() is shared

    def test_shared_instance_equals_a_fresh_preset(self):
        runner = ExperimentRunner(scale=128)
        assert runner.quad_config() == paper_quad_core(scale=128)
        assert runner.single_config() == paper_single_core(scale=128)


class TestWorkloadMetrics:
    def test_w16_metrics_complete(self, runner):
        metrics = runner.workload_metrics("w16", "pom")
        assert len(metrics.slowdowns) == 4
        assert metrics.unfairness == max(metrics.slowdowns)
        assert metrics.weighted_speedup > 0
        assert all(s >= 1.0 or s > 0 for s in metrics.slowdowns)

    def test_slowdowns_indicate_contention(self, runner):
        metrics = runner.workload_metrics("w16", "pom")
        # Four co-runners on a shared memory: everyone slows down.
        assert min(metrics.slowdowns) > 1.0


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for artifact in (
            "table1",
            "fig2",
            "table4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "sens-twr",
            "sens-ratio",
            "mempod-vs-pom",
        ):
            assert artifact in EXPERIMENTS

    def test_unknown_experiment(self, runner):
        with pytest.raises(KeyError):
            run_experiment("fig99", runner)

    def test_table1_runs(self, runner):
        result = run_experiment("table1", runner)
        assert isinstance(result, ExperimentResult)
        assert all(
            value is True
            for key, value in result.summary.items()
            if isinstance(value, bool)
        )

    def test_render_contains_title(self, runner):
        result = run_experiment("table1", runner)
        assert "table1" in result.render()


class TestSmallDrivers:
    """End-to-end driver runs at tiny scale (shape, not magnitude)."""

    def test_fig7_runs(self, runner):
        result = run_experiment("fig7", runner)
        assert len(result.rows) == 9
        for _program, rate in result.rows:
            assert 0 <= rate <= 100

    def test_fig5_runs(self, runner):
        result = run_experiment("fig5", runner)
        assert len(result.rows) == 9
        assert "geomean" in result.summary

    def test_fig2_runs(self, runner):
        result = run_experiment("fig2", runner)
        assert len(result.rows) == 12  # 3 workloads x 4 programs
        for _w, _p, sdn in result.rows:
            assert sdn > 0


def _mix_case(runner):
    """A one-cell multiprogram call whose mix run fails."""
    return (
        runner.spec_workload("w16", "pom"),
        lambda: runner.workload_metrics("w16", "pom"),
    )


def _single_case(runner):
    """A single-program figure one of whose runs fails."""
    return (
        runner.spec_single("mcf", "mdm"),
        lambda: run_experiment("fig7", runner),
    )


class TestCellPath:
    """The two wave paths: run_cells for multiprogram cells, run_specs
    for single-program figures."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(_mix_case, id="mix"),
            pytest.param(_single_case, id="single"),
        ],
    )
    def test_failed_mix_is_attempted_once_per_retry_budget(
        self, case, monkeypatch
    ):
        simulate = executor_module.execute_spec
        attempts = collections.Counter()
        runner = ExperimentRunner(
            scale=128, multi_requests=300, single_requests=300, retries=1
        )
        victim, run_figure = case(runner)
        key = victim.cache_key()

        def flaky(spec):
            if spec.describe() == victim.describe():
                attempts[spec.cache_key()] += 1
                # Retryable (an OSError), so it spends the whole budget.
                raise ChaosKilledError("injected")
            return simulate(spec)

        monkeypatch.setattr(executor_module, "execute_spec", flaky)
        with pytest.raises(SweepFailure) as caught:
            run_figure()
        assert attempts == {key: 2}
        assert [failure.key for failure in runner.failures] == [key]
        assert [failure.key for failure in caught.value.failures] == [key]

    def test_session_simulates_no_spec_twice(self):
        # A cache-less ``run all``.  The memo rule: stand-alone reference
        # runs are shared by every cell on a config, mempod-vs-pom reads
        # fig2's PoM mixes from its cells, and every single-program
        # result is memoized (fig5 reuses mempod-vs-pom's PoM runs,
        # fig6-fig9 and the sensitivities reuse earlier figures' runs),
        # so no spec of this session is simulated twice.  Every artifact
        # renders rows.
        runner = ExperimentRunner(
            scale=128, multi_requests=300, single_requests=300, seed=0
        )
        runs = collections.Counter()
        runner.executor.on_run = lambda event: runs.update(
            [event.spec.cache_key()]
        )
        empty = [
            experiment_id
            for experiment_id in EXPERIMENTS
            if not run_experiment(experiment_id, runner).rows
        ]
        assert empty == []
        assert len(runs) == runner.executor.executed == 413
        assert set(runs.values()) == {1}

    def test_sens_ratio_skips_programs_that_do_not_fit(self):
        # At scale 64, milc's traced pages (2,182) exceed the 1:16
        # system's 2,176 page frames: it is left out before the wave
        # instead of failing in it.
        runner = ExperimentRunner(scale=64, single_requests=2000, jobs=2)
        result = run_experiment("sens-ratio", runner)
        programs = {row[0]: row[2] for row in result.rows}
        assert programs == {"1:4": 7, "1:8": 9, "1:16": 8}
        assert runner.failures == []
