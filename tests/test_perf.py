"""Perf-harness tests: KernelProfile accounting, the benchmark payload,
the baseline regression gate, and the markdown summary."""

import json
from pathlib import Path

from repro.common.config import paper_single_core
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    compare_to_baseline,
    compatibility_warnings,
    markdown_summary,
    run_scenario,
    standard_scenarios,
    write_bench_json,
)
from repro.perf.profile import KernelProfile
from repro.sim.engine import SimulationDriver
from repro.traces.generator import synthesize_trace

#: The CI perf-smoke floor file.
KERNEL_BASELINE = (
    Path(__file__).parent.parent / "benchmarks/baselines/kernel_baseline.json"
)


def _tiny_driver():
    config = paper_single_core(scale=128)
    traces = [("zeusmp", synthesize_trace("zeusmp", 300, scale=128, seed=0))]
    return SimulationDriver(config, "static", traces, seed=0)


class TestKernelProfile:
    def test_accumulates_across_runs(self):
        profile = KernelProfile()
        profile.record_run(events=100, requests=10, cycles=50, wall_seconds=0.5)
        profile.record_run(events=300, requests=30, cycles=150, wall_seconds=0.5)
        assert profile.runs == 2
        assert profile.events_processed == 400
        assert profile.events_per_sec == 400.0
        assert profile.requests_per_sec == 40.0

    def test_zero_wall_time_is_not_a_division_error(self):
        assert KernelProfile().events_per_sec == 0.0

    def test_driver_fills_counters(self):
        # The driver counts the loop's events outside the result, so
        # the result (and its digest) is what an uncounted run returns.
        driver = _tiny_driver()
        result = driver.run()
        assert driver.events_processed > result.total_requests == 300
        assert result == _tiny_driver().run()
        assert "events" not in result.to_dict()


class TestBenchmark:
    def test_quick_scenarios_are_smaller(self):
        quick = {s.name: s for s in standard_scenarios(quick=True)}
        full = {s.name: s for s in standard_scenarios(quick=False)}
        assert set(quick) == set(full) == {"single", "multi"}
        for name in quick:
            quick_requests = sum(r for _p, r, _s in quick[name].programs)
            full_requests = sum(r for _p, r, _s in full[name].programs)
            assert quick_requests < full_requests

    def test_run_scenario_reports_best_repeat(self):
        scenario = standard_scenarios(quick=True)[0]
        tiny = type(scenario)(
            name=scenario.name,
            policy=scenario.policy,
            programs=(("zeusmp", 300, 0),),
            quad=False,
        )
        result = run_scenario(tiny, repeats=2)
        assert result.requests == 300
        assert result.events > result.requests
        assert result.events_per_sec > 0

    def test_write_bench_json_round_trips(self, tmp_path):
        payload = {"schema_version": BENCH_SCHEMA_VERSION, "scenarios": []}
        out = tmp_path / "bench.json"
        write_bench_json(payload, out)
        assert json.loads(out.read_text()) == payload


def _payload(quick=False, single=100_000.0, multi=100_000.0):
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "scenarios": [
            {"name": "single", "events_per_sec": single},
            {"name": "multi", "events_per_sec": multi},
        ],
    }


class TestBaselineGate:
    def test_passes_at_or_above_floor(self):
        current = _payload(single=70_000.0, multi=200_000.0)
        assert compare_to_baseline(current, _payload(), min_ratio=0.7) == []

    def test_fails_below_floor(self):
        current = _payload(single=69_000.0)
        failures = compare_to_baseline(current, _payload(), min_ratio=0.7)
        assert len(failures) == 1
        assert "'single'" in failures[0]

    def test_mode_mismatch_is_an_error(self):
        failures = compare_to_baseline(_payload(quick=True), _payload())
        assert failures and "mode mismatch" in failures[0]

    def test_scenario_missing_from_baseline_is_skipped(self):
        baseline = _payload()
        baseline["scenarios"] = baseline["scenarios"][:1]  # drop "multi"
        current = _payload(single=100_000.0, multi=1.0)
        assert compare_to_baseline(current, baseline) == []

    def test_ignores_backend_keys_of_the_checked_in_baseline(self):
        # The checked-in floor file tags each row "backend": "python";
        # rows match by name alone, so the tag neither hides a row from
        # the gate nor is required of the current run.
        baseline = json.loads(KERNEL_BASELINE.read_text())
        assert {row.get("backend") for row in baseline["scenarios"]} == {
            "python"
        }
        floors = {
            row["name"]: row["events_per_sec"] for row in baseline["scenarios"]
        }
        current = {
            "quick": True,
            "scenarios": [
                {"name": name, "events_per_sec": rate}
                for name, rate in floors.items()
            ],
        }
        assert compare_to_baseline(current, baseline) == []
        current["scenarios"][0]["events_per_sec"] *= 0.5
        (failure,) = compare_to_baseline(current, baseline)
        assert repr(current["scenarios"][0]["name"]) in failure


class TestCompatibilityWarnings:
    def test_warns_on_python_minor_mismatch(self):
        current = dict(_payload(), python="3.12.4")
        baseline = dict(_payload(), python="3.10.14")
        warnings = compatibility_warnings(current, baseline)
        assert len(warnings) == 1
        assert "3.10.14" in warnings[0] and "3.12.4" in warnings[0]

    def test_silent_on_same_minor_different_patch(self):
        current = dict(_payload(), python="3.12.4")
        baseline = dict(_payload(), python="3.12.1")
        assert compatibility_warnings(current, baseline) == []

    def test_silent_when_baseline_does_not_record_python(self):
        # The checked-in floor baseline predates the python field.
        current = dict(_payload(), python="3.12.4")
        assert compatibility_warnings(current, _payload()) == []

    def test_warns_on_machine_mismatch(self):
        current = dict(_payload(), machine="aarch64")
        baseline = dict(_payload(), machine="x86_64")
        warnings = compatibility_warnings(current, baseline)
        assert len(warnings) == 1
        assert "x86_64" in warnings[0]

    def test_warns_on_numpy_minor_mismatch(self):
        current = dict(_payload(), numpy="2.1.3")
        baseline = dict(_payload(), numpy="1.26.4")
        warnings = compatibility_warnings(current, baseline)
        assert len(warnings) == 1
        assert "numpy" in warnings[0] and "1.26.4" in warnings[0]

    def test_silent_on_same_numpy_minor(self):
        current = dict(_payload(), numpy="2.1.3")
        baseline = dict(_payload(), numpy="2.1.0")
        assert compatibility_warnings(current, baseline) == []

    def test_silent_when_baseline_does_not_record_numpy(self):
        current = dict(_payload(), numpy="2.1.3")
        assert compatibility_warnings(current, _payload()) == []


class TestMarkdownSummary:
    def test_table_has_one_row_per_scenario_with_delta(self):
        current = _payload(single=150_000.0, multi=50_000.0)
        current["quick"] = True
        current["repeats"] = 3
        text = markdown_summary(current, _payload(quick=False) | {"quick": True})
        assert "| single | 150,000 |" in text
        assert "1.50x" in text  # 150k vs 100k baseline
        assert "0.50x" in text  # 50k vs 100k baseline
        assert text.count("|---") == 0  # header uses spaced pipes
        assert "quick, best of 3" in text

    def test_without_baseline_deltas_are_dashes(self):
        text = markdown_summary(_payload())
        assert "—" in text

    def test_includes_compatibility_warnings(self):
        current = dict(_payload(), python="3.12.0")
        baseline = dict(_payload(), python="3.10.0")
        text = markdown_summary(current, baseline)
        assert ":warning:" in text
        assert "Python 3.10.0" in text


def _sweep_payload(**overrides):
    payload = {
        "schema_version": 1,
        "kind": "sweep",
        "spec_count": 200,
        "jobs": 4,
        "transport": "shm",
        "requests_per_sec": 10_000.0,
        "peak_rss_mb": 40.0,
    }
    payload.update(overrides)
    return payload


class TestSweepGate:
    def test_passes_within_both_bounds(self):
        from repro.perf.sweep_bench import compare_sweep_to_baseline

        current = _sweep_payload(
            requests_per_sec=7_000.0, peak_rss_mb=56.0
        )
        assert compare_sweep_to_baseline(current, _sweep_payload()) == []

    def test_fails_below_throughput_floor(self):
        from repro.perf.sweep_bench import compare_sweep_to_baseline

        current = _sweep_payload(requests_per_sec=6_900.0)
        failures = compare_sweep_to_baseline(
            current, _sweep_payload(), min_ratio=0.7
        )
        assert len(failures) == 1
        assert "throughput" in failures[0]

    def test_fails_above_rss_ceiling(self):
        from repro.perf.sweep_bench import compare_sweep_to_baseline

        current = _sweep_payload(peak_rss_mb=57.0)
        failures = compare_sweep_to_baseline(
            current, _sweep_payload(), max_rss_ratio=1.4
        )
        assert len(failures) == 1
        assert "peak RSS" in failures[0]

    def test_spec_count_mismatch_fails_fast(self):
        from repro.perf.sweep_bench import compare_sweep_to_baseline

        current = _sweep_payload(
            spec_count=100, requests_per_sec=1.0, peak_rss_mb=1e9
        )
        failures = compare_sweep_to_baseline(current, _sweep_payload())
        assert len(failures) == 1
        assert "mismatch" in failures[0]

    def test_missing_rss_skips_only_the_rss_check(self):
        # A platform without the resource module reports peak_rss_mb 0;
        # the throughput floor must still gate.
        from repro.perf.sweep_bench import compare_sweep_to_baseline

        current = _sweep_payload(requests_per_sec=1.0, peak_rss_mb=0.0)
        failures = compare_sweep_to_baseline(current, _sweep_payload())
        assert len(failures) == 1
        assert "throughput" in failures[0]

    def test_checked_in_baseline_is_comparable(self):
        # The real CI baseline must parse and be self-consistent with
        # the gate's expectations (spec_count present, positive bounds).
        import pathlib

        from repro.perf.sweep_bench import compare_sweep_to_baseline

        baseline = json.loads(
            (
                pathlib.Path(__file__).parent.parent
                / "benchmarks/baselines/sweep_rss_baseline.json"
            ).read_text()
        )
        assert baseline["spec_count"] == 200
        assert baseline["requests_per_sec"] > 0
        assert baseline["peak_rss_mb"] > 0
        # A run exactly at the baseline passes its own gate.
        assert compare_sweep_to_baseline(baseline, baseline) == []

    def test_markdown_summary_rows(self):
        from repro.perf.sweep_bench import sweep_markdown_summary

        current = _sweep_payload(
            requests_per_sec=15_000.0, peak_rss_mb=30.0, wall_seconds=4.0
        )
        text = sweep_markdown_summary(current, _sweep_payload())
        assert "| requests/sec | 15,000 | 10,000 | 1.50x |" in text
        assert "| parent peak RSS (MiB) | 30.0 | 40.0 | 0.75x |" in text

    def test_markdown_summary_without_baseline(self):
        from repro.perf.sweep_bench import sweep_markdown_summary

        text = sweep_markdown_summary(_sweep_payload(failed=2))
        assert "—" in text
        assert "2 spec(s) failed" in text

    def test_peak_rss_is_positive_here(self):
        from repro.perf.sweep_bench import peak_rss_mb

        assert peak_rss_mb() > 0


class TestSweepBenchmark:
    def test_tiny_sweep_end_to_end(self):
        from repro.perf.sweep_bench import (
            build_sweep_specs,
            run_sweep_benchmark,
        )

        specs = build_sweep_specs(8)
        assert len({spec.cache_key() for spec in specs}) == 8
        payload = run_sweep_benchmark(count=4, jobs=1, transport="pickle")
        assert payload["completed"] == 4
        assert payload["failed"] == 0
        assert payload["total_requests"] > 0
        assert payload["requests_per_sec"] > 0
