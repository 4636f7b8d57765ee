"""The benchmark's workloads, each a paper artifact built through the API.

Every workload is prepared (imports, runner and cache construction, spec
building, and for the figures the synthesis of every trace they need)
and then run; the run is the timed part.  Nothing here imports
``repro.perf``, passes a memory backend or a transport, or uses the
deprecated policy factory: policies are spec strings and the runner's
defaults apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.exec.spec import build_traces
from repro.experiments.multi import normalized_figure
from repro.experiments.runner import ExperimentRunner
from repro.sim.golden import result_digest
from repro.workloads.table9 import FIG5_PROGRAMS
from repro.workloads.table10 import FAIRNESS_DETAIL_WORKLOADS, WORKLOAD_NAMES

#: Capacity divisor for every workload (the smallest that keeps the
#: single-core geometry valid).
SCALE = 128
#: Figure 14 subset: requests per program in each mix and reference run.
FIG14_REQUESTS = 5_000
#: Sweep waves: many short specs.
SWEEP_SINGLE_REQUESTS = 1_500
SWEEP_MULTI_REQUESTS = 600
SWEEP_POLICIES = ("pom", "mdm", "profess")
#: Worker processes for the pooled sweep (capped by the host's CPUs).
SWEEP_JOBS = 2


class WaveDigest:
    """The sweeps' reducer: per-spec digests, independent of fold order."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.failed: list[str] = []

    def fold(self, key, spec, result) -> None:
        self.digests[key] = result_digest(result)

    def fold_failure(self, failure) -> None:
        self.failed.append(failure.key)

    def digest(self) -> str:
        """One digest over every folded spec, in key order."""
        lines = "".join(
            f"{key} {value}\n" for key, value in sorted(self.digests.items())
        )
        return hashlib.sha256(lines.encode("ascii")).hexdigest()


class ResultLog:
    """Executor completion callback that keeps each delivered result."""

    def __init__(self) -> None:
        self.results: dict[str, object] = {}

    def __call__(self, event) -> None:
        self.results[event.spec.cache_key()] = event.result


@dataclass
class Outcome:
    """What one timed run produced, for the correctness gate."""

    #: Digest of the artifact (figure rows, or the wave digest).
    artifact: str
    #: cache key -> result digest of every spec the artifact consumed.
    specs: dict[str, str]
    #: Specs that raised (after the executor's retries), or whose result
    #: differed between replays.
    failures: int
    #: Spec results the run delivered (replays count every pass).
    attempted: int
    #: Simulated headline, when the artifact is a paper figure.
    headline: Optional[float] = None


@dataclass
class Prepared:
    """A workload ready to run: the timed callable and its finisher."""

    run: Callable[[], object]
    finish: Callable[[object], Outcome]
    #: Worker processes the timed run may use.
    jobs: int = 1


def rows_digest(rows) -> str:
    """Digest of a figure's rows (floats at full repr precision)."""
    text = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_wave(runner: ExperimentRunner) -> list:
    """Short specs: Figure 5 programs and every Table 10 mix, 3 policies."""
    wave = [
        runner.spec_single(program, policy)
        for program in FIG5_PROGRAMS
        for policy in SWEEP_POLICIES
    ]
    wave.extend(
        runner.spec_workload(name, policy)
        for name in WORKLOAD_NAMES
        for policy in SWEEP_POLICIES
    )
    return wave


def sweep_runner(seed: int, **options) -> ExperimentRunner:
    return ExperimentRunner(
        scale=SCALE,
        single_requests=SWEEP_SINGLE_REQUESTS,
        multi_requests=SWEEP_MULTI_REQUESTS,
        seed=seed,
        **options,
    )


def _figure_outcome(runner: ExperimentRunner, log: ResultLog, figure) -> Outcome:
    summary = figure.summary if isinstance(figure.summary, dict) else {}
    return Outcome(
        artifact=rows_digest(figure.rows),
        specs={key: result_digest(r) for key, r in log.results.items()},
        failures=len(runner.failures),
        attempted=len(log.results) + len(runner.failures),
        headline=summary.get("average_improvement"),
    )


def _presynthesize(specs) -> None:
    """Synthesize (and memoize) every trace the specs will consume."""
    for spec in specs:
        build_traces(spec)


def run_fig14(runner: ExperimentRunner):
    """Figure 14's comparison over the Figure 16 mixes."""
    return normalized_figure(
        runner,
        "fig14",
        "Performance (weighted speedup) of ProFess normalized to PoM",
        policy="profess",
        metric=lambda metrics: metrics.weighted_speedup,
        higher_is_better=True,
        workloads=FAIRNESS_DETAIL_WORKLOADS,
    )


def prepare_fig14(seed: int, workdir: Path) -> Prepared:
    runner = ExperimentRunner(
        scale=SCALE, multi_requests=FIG14_REQUESTS, seed=seed
    )
    _presynthesize(
        spec
        for name in FAIRNESS_DETAIL_WORKLOADS
        for policy in ("pom", "profess")
        for spec in runner.workload_metric_specs(name, policy)
    )
    log = ResultLog()
    runner.executor.on_run = log
    return Prepared(
        run=lambda: run_fig14(runner),
        finish=lambda figure: _figure_outcome(runner, log, figure),
    )


def _wave_outcome(runner: ExperimentRunner, reducer: WaveDigest) -> Outcome:
    return Outcome(
        artifact=reducer.digest(),
        specs=dict(reducer.digests),
        failures=len(runner.failures) + len(reducer.failed),
        attempted=len(reducer.digests) + len(reducer.failed),
    )


def prepare_pool(seed: int, workdir: Path) -> Prepared:
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    jobs = max(1, min(SWEEP_JOBS, os.cpu_count() or 1))
    runner = sweep_runner(seed, jobs=jobs, cache_dir=cache_dir)
    wave = sweep_wave(runner)
    reducer = WaveDigest()

    def run() -> WaveDigest:
        runner.run_streamed(wave, reducer)
        return reducer

    return Prepared(
        run=run,
        finish=lambda reducer: _wave_outcome(runner, reducer),
        jobs=jobs,
    )


#: name -> (preparer, why it exists)
WORKLOADS: dict[str, tuple[Callable[[int, Path], Prepared], str]] = {
    "fig14-quad": (
        prepare_fig14,
        "Figure 14 comparison on w09/w16/w19 plus PoM references, quad "
        "core, serial: channel contention, swaps, write drains and RSM",
    ),
    "sweep-pool": (
        prepare_pool,
        "84 short specs streamed through a 2-worker pool into a fresh disk "
        "cache: per-spec fixed costs, transport, cache writes, journal",
    ),
}
