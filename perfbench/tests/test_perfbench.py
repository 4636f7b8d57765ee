"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench.entry_points import ENTRY_POINTS, EntryPoint  # noqa: E402
from perfbench.layers import LAYER_METRICS, layer_metrics, percentile  # noqa: E402
from perfbench.run import Gate  # noqa: E402
from perfbench.tracer import Tracer, merge  # noqa: E402


class FakeClock:
    """A clock the synthetic spans advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    def outer():
        clock.advance(0.25)
        middle()
        clock.advance(0.25)

    leaf = tracer.wrap(leaf, EntryPoint("t.leaf", "x:leaf"))
    middle = tracer.wrap(middle, EntryPoint("t.middle", "x:middle"))
    outer = tracer.wrap(outer, EntryPoint("t.outer", "x:outer"))
    outer()

    rows = tracer.snapshot()["boundaries"]
    assert rows["t.leaf"]["calls"] == 2
    assert rows["t.leaf"]["total_s"] == pytest.approx(4.0)
    assert rows["t.leaf"]["self_s"] == pytest.approx(4.0)
    assert rows["t.middle"]["total_s"] == pytest.approx(5.5)
    assert rows["t.middle"]["self_s"] == pytest.approx(1.5)
    assert rows["t.outer"]["total_s"] == pytest.approx(6.0)
    assert rows["t.outer"]["self_s"] == pytest.approx(0.5)
    edges = tracer.snapshot()["edges"]
    assert edges == {">t.outer": 1, "t.outer>t.middle": 1, "t.middle>t.leaf": 2}
    # Self times partition the root span's duration.
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(6.0)


def test_raising_span_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    boom = tracer.wrap(boom, EntryPoint("t.boom", "x:boom"))
    with pytest.raises(ValueError):
        boom()
    row = tracer.snapshot()["boundaries"]["t.boom"]
    assert (row["calls"], row["self_s"]) == (1, 1.0)
    assert tracer._stack == []


def test_merge_sums_snapshots():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    step = tracer.wrap(lambda: clock.advance(1.0), EntryPoint("t.s", "x:s"))
    step()
    merged = merge([tracer.snapshot(), tracer.snapshot()])
    assert merged["boundaries"]["t.s"]["calls"] == 2
    assert merged["boundaries"]["t.s"]["self_s"] == pytest.approx(2.0)


def test_every_entry_point_resolves_and_uninstall_restores():
    from repro.sim.engine import SimulationDriver

    original = SimulationDriver.run
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert SimulationDriver.run is not original
    finally:
        tracer.uninstall()
    assert SimulationDriver.run is original


def test_missing_entry_point_is_reported_not_raised():
    tracer = Tracer()
    tracer.install([EntryPoint("t.gone", "repro.sim.engine:NoSuchClass.run")])
    tracer.uninstall()
    assert tracer.missing == ["t.gone (repro.sim.engine:NoSuchClass.run)"]


def test_layer_metrics_cover_the_table():
    tracer = Tracer()
    for entry in ENTRY_POINTS:
        tracer.boundary(entry.name)
    values = layer_metrics(tracer.snapshot(), 1.0, 1.0, 1)
    assert set(values) == set(LAYER_METRICS)


def test_percentile():
    assert percentile({"1": 5, "2": 4, "9": 1}, 0.9) == 2.0
    assert percentile({}, 0.9) == 0.0


@pytest.fixture(scope="module")
def small_results():
    from repro.sim.golden import GOLDEN_SCENARIOS

    first = GOLDEN_SCENARIOS["single_pom"](None).run()
    second = GOLDEN_SCENARIOS["quad_profess"](None).run()
    return first, second


def _rep(specs: dict, failures: int = 0) -> dict:
    """A repetition's report as ``rep.py`` prints it (fields the gate reads)."""
    return {"specs": specs, "artifact": "a" * 64, "failures": failures,
            "attempted": 1}


def test_gate_flags_a_perturbed_result(small_results):
    from repro.sim.golden import result_digest

    result, _ = small_results
    good = {"k" * 64: result_digest(result)}
    perturbed = dataclasses.replace(result, cycles=result.cycles + 1)
    bad = {"k" * 64: result_digest(perturbed)}
    assert good != bad

    gate = Gate(None)
    gate.check(_rep(good))
    gate.check(_rep(good))
    assert gate.correct and gate.failed == 0
    gate.check(_rep(bad))
    assert not gate.correct
    assert (gate.failed, gate.attempted) == (1, 3)


def test_gate_counts_raised_specs():
    gate = Gate({"artifact": "a" * 16, "specs": {"k" * 16: "d" * 16}})
    gate.check(_rep({}, failures=1))
    assert gate.failed == 1 and not gate.correct


def test_seed_changes_the_generated_traces():
    from repro.exec.spec import build_traces
    from repro.experiments.runner import ExperimentRunner

    def lines(seed):
        runner = ExperimentRunner(scale=128, single_requests=300, seed=seed)
        [(_, trace)] = build_traces(runner.spec_single("mcf", "pom"))
        return list(trace.lines)

    assert lines(1) == lines(1)
    assert lines(1) != lines(2)


def test_wave_digest_ignores_fold_order(small_results):
    from perfbench.workloads import WaveDigest

    first, second = small_results
    folds = [("key-a", None, first), ("key-b", None, second)]
    forward, backward = WaveDigest(), WaveDigest()
    for fold in folds:
        forward.fold(*fold)
    for fold in reversed(folds):
        backward.fold(*fold)
    assert forward.digest() == backward.digest()
    swapped = WaveDigest()
    swapped.fold("key-a", None, second)
    swapped.fold("key-b", None, first)
    assert swapped.digest() != forward.digest()
