"""The standard kernel benchmark behind ``profess perf``.

Two fixed scenarios exercise the event loop, channel, translation, and
policy layers the way real experiments do:

* ``single`` — one core, MDM policy, one long zeusmp trace (the
  single-program shape of Figures 5-9);
* ``multi`` — the paper's quad-core mix under ProFess (the
  multiprogrammed shape of Figures 10-16, with swaps, RSM sampling, and
  channel contention).

Each scenario is run ``repeats`` times and the best run is reported
(best-of filters scheduler noise; the simulations themselves are
deterministic, so every repeat does identical work).  Results are
written to ``BENCH_kernel.json`` so the events/sec trajectory is
tracked in-repo, and :func:`compare_to_baseline` backs the CI
perf-smoke gate.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.common.config import paper_quad_core, paper_single_core
from repro.perf.profile import KernelProfile

BENCH_SCHEMA_VERSION = 1

#: The quad-core benchmark mix: distinct access patterns (streaming,
#: hot-set, pointer-chase heavy) so channel contention and swap traffic
#: both appear.
MULTI_PROGRAMS = ("zeusmp", "leslie3d", "mcf", "libquantum")


@dataclass(frozen=True)
class BenchScenario:
    """One fixed benchmark configuration."""

    name: str
    policy: str
    #: (program, requests, seed) per core.
    programs: tuple[tuple[str, int, int], ...]
    quad: bool

    def build_driver(self):
        """A fresh driver for this scenario (imports deferred: CLI startup)."""
        from repro.sim.engine import SimulationDriver
        from repro.traces.generator import synthesize_trace

        config = paper_quad_core(scale=128) if self.quad else paper_single_core(scale=128)
        traces = [
            (program, synthesize_trace(program, requests, scale=128, seed=seed))
            for program, requests, seed in self.programs
        ]
        return SimulationDriver(config, self.policy, traces, seed=0)


def standard_scenarios(quick: bool = False) -> list[BenchScenario]:
    """The standard (or ``--quick``) kernel-benchmark scenario set."""
    single_requests = 5_000 if quick else 20_000
    multi_requests = 1_500 if quick else 6_000
    return [
        BenchScenario(
            name="single",
            policy="mdm",
            programs=(("zeusmp", single_requests, 0),),
            quad=False,
        ),
        BenchScenario(
            name="multi",
            policy="profess",
            programs=tuple(
                (program, multi_requests, seed)
                for seed, program in enumerate(MULTI_PROGRAMS)
            ),
            quad=True,
        ),
    ]


@dataclass
class KernelBenchResult:
    """Measured throughput of one scenario (best repeat)."""

    name: str
    events: int
    requests: int
    cycles: int
    wall_seconds: float
    events_per_sec: float
    requests_per_sec: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "events": self.events,
            "requests": self.requests,
            "cycles": self.cycles,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "requests_per_sec": self.requests_per_sec,
        }


def run_scenario(
    scenario: BenchScenario,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> KernelBenchResult:
    """Run one scenario ``repeats`` times; report the fastest repeat.

    Each repeat times ``run()`` from outside; the event count is the
    driver's, the requests and cycles are the result's.
    """
    best: Optional[KernelProfile] = None
    for repeat in range(repeats):
        driver = scenario.build_driver()
        started = time.perf_counter()
        result = driver.run()
        wall_seconds = time.perf_counter() - started
        profile = KernelProfile()
        profile.record_run(
            events=driver.events_processed,
            requests=result.total_requests,
            cycles=result.cycles,
            wall_seconds=wall_seconds,
        )
        if best is None or profile.events_per_sec > best.events_per_sec:
            best = profile
        if progress is not None:
            progress(
                f"  {scenario.name} "
                f"repeat {repeat + 1}/{repeats}: "
                f"{profile.events_per_sec:,.0f} events/sec"
            )
    assert best is not None
    return KernelBenchResult(
        name=scenario.name,
        events=best.events_processed,
        requests=best.requests_served,
        cycles=best.cycles_simulated,
        wall_seconds=best.wall_seconds,
        events_per_sec=best.events_per_sec,
        requests_per_sec=best.requests_per_sec,
    )


def run_kernel_benchmark(
    quick: bool = False,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the standard benchmark; returns the ``BENCH_kernel.json`` payload."""
    import numpy

    results = [
        run_scenario(scenario, repeats=repeats, progress=progress)
        for scenario in standard_scenarios(quick=quick)
    ]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "scenarios": [result.to_dict() for result in results],
    }


def write_bench_json(payload: dict, path: Path) -> None:
    """Write the benchmark payload (stable formatting for diffs)."""
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _python_minor(version: object) -> str:
    """``"3.12.4"`` -> ``"3.12"`` (tolerates junk: returns it verbatim)."""
    parts = str(version).split(".")
    return ".".join(parts[:2])


def compatibility_warnings(payload: dict, baseline: dict) -> list[str]:
    """Non-fatal comparability problems between a run and its baseline.

    ``BENCH_kernel.json`` records the host ``python``/``machine``, but
    the regression gate historically ignored them — so a baseline
    recorded under one interpreter was silently compared against runs of
    another, where a throughput delta may be the interpreter's, not the
    kernel's.  Warns (never fails) on a Python *minor*-version mismatch,
    and on a machine-architecture mismatch for the same reason.
    """
    warnings: list[str] = []
    current_python = payload.get("python")
    baseline_python = baseline.get("python")
    if (
        current_python
        and baseline_python
        and _python_minor(current_python) != _python_minor(baseline_python)
    ):
        warnings.append(
            f"baseline was recorded on Python {baseline_python} but this "
            f"run is Python {current_python}: events/sec deltas may "
            "reflect the interpreter, not the kernel"
        )
    current_machine = payload.get("machine")
    baseline_machine = baseline.get("machine")
    if (
        current_machine
        and baseline_machine
        and current_machine != baseline_machine
    ):
        warnings.append(
            f"baseline was recorded on {baseline_machine!r} but this run "
            f"is {current_machine!r}: rates are not directly comparable"
        )
    current_numpy = payload.get("numpy")
    baseline_numpy = baseline.get("numpy")
    if (
        current_numpy
        and baseline_numpy
        and _python_minor(current_numpy) != _python_minor(baseline_numpy)
    ):
        warnings.append(
            f"baseline was recorded with numpy {baseline_numpy} but this "
            f"run uses numpy {current_numpy}: the SoA kernel's array "
            "primitives may perform differently"
        )
    return warnings


def markdown_summary(payload: dict, baseline: Optional[dict] = None) -> str:
    """A markdown delta-vs-baseline table (the CI ``$GITHUB_STEP_SUMMARY``).

    One row per scenario with events/sec, requests/sec, and — when the
    scenario exists in ``baseline`` — the throughput ratio against it.
    Compatibility warnings are appended so a cross-interpreter
    comparison is flagged right in the PR summary.
    """
    mode = "quick" if payload.get("quick") else "full"
    lines = [
        "## Kernel benchmark "
        f"({mode}, best of {payload.get('repeats', '?')} repeats, "
        f"Python {payload.get('python', '?')})",
        "",
        "| scenario | events/sec | requests/sec "
        "| baseline events/sec | delta |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    baseline_rates = {
        scenario["name"]: scenario["events_per_sec"]
        for scenario in (baseline or {}).get("scenarios", [])
    }
    for scenario in payload.get("scenarios", []):
        reference = baseline_rates.get(scenario["name"])
        if reference:
            baseline_cell = f"{reference:,.0f}"
            delta_cell = f"{scenario['events_per_sec'] / reference:.2f}x"
        else:
            baseline_cell = delta_cell = "—"
        requests_rate = scenario.get("requests_per_sec")
        requests_cell = (
            f"{requests_rate:,.0f}" if requests_rate is not None else "—"
        )
        lines.append(
            f"| {scenario['name']} "
            f"| {scenario['events_per_sec']:,.0f} "
            f"| {requests_cell} "
            f"| {baseline_cell} | {delta_cell} |"
        )
    if baseline is not None:
        for warning in compatibility_warnings(payload, baseline):
            lines += ["", f"> :warning: {warning}"]
    return "\n".join(lines) + "\n"


def compare_to_baseline(
    payload: dict, baseline: dict, min_ratio: float = 0.7
) -> list[str]:
    """Regression check: current events/sec vs a recorded baseline.

    Returns a list of human-readable failures (empty = pass).  A scenario
    fails when its events/sec drops below ``min_ratio`` times the
    baseline's; scenarios missing from the baseline are skipped (adding a
    scenario must not fail CI until the baseline is re-recorded).
    Comparisons are only meaningful between runs of the same mode
    (``quick`` vs full), which is also checked.  Rows match by ``name``
    alone; other row keys (older files carry ``"backend": "python"``)
    are ignored.
    """
    failures: list[str] = []
    if bool(payload.get("quick")) != bool(baseline.get("quick")):
        failures.append(
            "benchmark mode mismatch: current quick="
            f"{payload.get('quick')} vs baseline quick={baseline.get('quick')}"
        )
        return failures
    baseline_rates = {
        scenario["name"]: scenario["events_per_sec"]
        for scenario in baseline.get("scenarios", [])
    }
    for scenario in payload.get("scenarios", []):
        reference = baseline_rates.get(scenario["name"])
        if reference is None or reference <= 0:
            continue
        ratio = scenario["events_per_sec"] / reference
        if ratio < min_ratio:
            failures.append(
                f"scenario {scenario['name']!r}: "
                f"{scenario['events_per_sec']:,.0f} events/sec is "
                f"{ratio:.2f}x the baseline {reference:,.0f} "
                f"(floor {min_ratio:.2f}x)"
            )
    return failures
