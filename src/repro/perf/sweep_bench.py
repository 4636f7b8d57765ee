"""The sweep-scale benchmark behind ``profess perf --sweep``.

Where the kernel benchmark (:mod:`repro.perf.bench`) measures how fast
one simulation runs, this one measures how well the *execution
subsystem* carries a wide wave: it fans a few hundred small single-core
specs through the real :class:`~repro.exec.executor.Executor` under a
chosen transport, folds every result through a counting reducer (so the
parent never materializes the wave — the scenario the shm transport and
streaming aggregation exist for), and records two numbers that gate CI:

* sustained throughput (requests simulated per second of wall clock);
* the parent process's **peak RSS** (``ru_maxrss``) — the headline
  property: with frames in shared memory and streaming reduction, parent
  memory must stay flat no matter how many specs the wave holds.

The payload lands in ``BENCH_sweep.json`` and
:func:`compare_sweep_to_baseline` backs the ``sweep-scale`` CI job:
throughput has a 0.7x-style floor (like perf-smoke), peak RSS has a
*ceiling* against the checked-in baseline — a regression that quietly
re-materializes waves in the parent trips it long before a runner OOMs.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable, Optional

from repro.common.config import paper_single_core
from repro.exec.executor import Executor
from repro.exec.resilience import RunFailure
from repro.exec.spec import RunSpec
from repro.experiments.paper_report import peak_rss_mb
from repro.sim.results import SimulationResult

SWEEP_SCHEMA_VERSION = 1

#: Programs the sweep cycles through (distinct access patterns, all
#: cheap at the benchmark scale).
SWEEP_PROGRAMS = ("zeusmp", "leslie3d", "mcf", "libquantum", "lbm", "omnetpp")
#: Policies the sweep alternates between.
SWEEP_POLICIES = ("pom", "mdm")
#: Capacity divisor / trace length per spec: small enough that 200 specs
#: finish in CI minutes, large enough that each spec does real work.
#: 128 is the largest divisor the scaled single-core organization
#: supports (beyond it, regions drop under two swap-group pairs).
SWEEP_SCALE = 128
SWEEP_REQUESTS = 300


def build_sweep_specs(count: int = 200) -> list[RunSpec]:
    """``count`` distinct small single-core specs (a synthetic wave).

    Programs, policies, and seeds cycle so every spec has a unique cache
    key (nothing deduplicates away) while staying individually cheap.
    """
    config = paper_single_core(scale=SWEEP_SCALE)
    specs = []
    for index in range(count):
        specs.append(
            RunSpec(
                kind="single",
                programs=(SWEEP_PROGRAMS[index % len(SWEEP_PROGRAMS)],),
                policy=SWEEP_POLICIES[index % len(SWEEP_POLICIES)],
                config=config,
                requests=SWEEP_REQUESTS,
                seed=index // len(SWEEP_PROGRAMS),
                trace_scale=SWEEP_SCALE,
            )
        )
    return specs


class _CountingReducer:
    """Folds a wave into running totals; retains no results."""

    def __init__(
        self, progress: Optional[Callable[[str], None]] = None,
        every: int = 50,
    ) -> None:
        self.completed = 0
        self.failed = 0
        self.total_requests = 0
        self.total_cycles = 0
        self._progress = progress
        self._every = every

    def fold(
        self, key: str, spec: RunSpec, result: SimulationResult
    ) -> None:
        self.completed += 1
        self.total_requests += result.total_requests
        self.total_cycles += result.cycles
        if self._progress is not None and self.completed % self._every == 0:
            self._progress(f"  {self.completed} specs folded")

    def fold_failure(self, failure: RunFailure) -> None:
        self.failed += 1


def run_sweep_benchmark(
    count: int = 200,
    jobs: int = 1,
    transport: str = "auto",
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the sweep-scale benchmark; returns the ``BENCH_sweep.json``
    payload.

    No disk cache is attached, so every spec simulates — the measured
    throughput is execution-subsystem throughput, not cache luck.  Peak
    RSS is sampled after the wave drains and covers the whole process
    lifetime, which is exactly what a CI memory gate cares about.
    """
    specs = build_sweep_specs(count)
    reducer = _CountingReducer(progress)
    executor = Executor(jobs=jobs, transport=transport)
    started = time.perf_counter()
    executor.run_wave(specs, reducer=reducer)
    wall_seconds = time.perf_counter() - started
    rss = peak_rss_mb()
    return {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "kind": "sweep",
        "spec_count": count,
        "jobs": jobs,
        "transport": transport,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "completed": reducer.completed,
        "failed": reducer.failed,
        "total_requests": reducer.total_requests,
        "total_cycles": reducer.total_cycles,
        "wall_seconds": wall_seconds,
        "requests_per_sec": (
            reducer.total_requests / wall_seconds if wall_seconds > 0 else 0.0
        ),
        "specs_per_sec": (
            reducer.completed / wall_seconds if wall_seconds > 0 else 0.0
        ),
        "peak_rss_mb": rss,
    }


def write_sweep_json(payload: dict, path: Path) -> None:
    """Write the payload (stable formatting for diffs)."""
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def compare_sweep_to_baseline(
    payload: dict,
    baseline: dict,
    min_ratio: float = 0.7,
    max_rss_ratio: float = 1.4,
) -> list[str]:
    """The sweep-scale CI gate; returns failures (empty = pass).

    Two checks against the checked-in baseline:

    * throughput floor — requests/sec below ``min_ratio`` x baseline
      fails (the perf-smoke pattern: the baseline is recorded well under
      a quiet machine's rate, so shared-runner noise cannot trip it);
    * peak-RSS ceiling — parent peak RSS above ``max_rss_ratio`` x
      baseline fails (the regression this benchmark exists to catch:
      results re-materializing in the parent scales RSS with the wave).

    Runs of different spec counts are not comparable and fail fast; a
    baseline or run without RSS data (``peak_rss_mb`` <= 0, e.g. a
    platform without ``resource``) skips the RSS check only.
    """
    failures: list[str] = []
    if payload.get("spec_count") != baseline.get("spec_count"):
        failures.append(
            f"sweep size mismatch: current {payload.get('spec_count')} "
            f"specs vs baseline {baseline.get('spec_count')} — re-record "
            "the baseline"
        )
        return failures
    reference_rate = baseline.get("requests_per_sec") or 0.0
    current_rate = payload.get("requests_per_sec") or 0.0
    if reference_rate > 0:
        ratio = current_rate / reference_rate
        if ratio < min_ratio:
            failures.append(
                f"sweep throughput: {current_rate:,.0f} requests/sec is "
                f"{ratio:.2f}x the baseline {reference_rate:,.0f} "
                f"(floor {min_ratio:.2f}x)"
            )
    reference_rss = baseline.get("peak_rss_mb") or 0.0
    current_rss = payload.get("peak_rss_mb") or 0.0
    if reference_rss > 0 and current_rss > 0:
        rss_ratio = current_rss / reference_rss
        if rss_ratio > max_rss_ratio:
            failures.append(
                f"parent peak RSS: {current_rss:.1f} MiB is "
                f"{rss_ratio:.2f}x the baseline {reference_rss:.1f} MiB "
                f"(ceiling {max_rss_ratio:.2f}x) — is the wave "
                "materializing in the parent again?"
            )
    return failures


def sweep_markdown_summary(
    payload: dict, baseline: Optional[dict] = None
) -> str:
    """Delta-vs-baseline table for ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "## Sweep-scale benchmark "
        f"({payload.get('spec_count', '?')} specs, "
        f"jobs={payload.get('jobs', '?')}, "
        f"transport={payload.get('transport', '?')}, "
        f"Python {payload.get('python', '?')})",
        "",
        "| metric | current | baseline | delta |",
        "| --- | ---: | ---: | ---: |",
    ]
    baseline = baseline or {}

    def row(label: str, key: str, fmt: str) -> str:
        current = payload.get(key)
        reference = baseline.get(key)
        current_cell = format(current, fmt) if current is not None else "—"
        if reference:
            reference_cell = format(reference, fmt)
            delta_cell = f"{(current or 0.0) / reference:.2f}x"
        else:
            reference_cell = delta_cell = "—"
        return f"| {label} | {current_cell} | {reference_cell} | {delta_cell} |"

    lines.append(row("requests/sec", "requests_per_sec", ",.0f"))
    lines.append(row("specs/sec", "specs_per_sec", ",.2f"))
    lines.append(row("parent peak RSS (MiB)", "peak_rss_mb", ",.1f"))
    lines.append(row("wall seconds", "wall_seconds", ",.2f"))
    if payload.get("failed"):
        lines += ["", f"> :warning: {payload['failed']} spec(s) failed"]
    return "\n".join(lines) + "\n"
