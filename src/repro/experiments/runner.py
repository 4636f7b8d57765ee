"""Shared experiment infrastructure: configs, traces, and cached runs.

Every figure in Section 5 compares policies on identical workloads; the
expensive pieces — stand-alone reference runs for slowdown computation,
and the multiprogram runs themselves — are requested as content-addressed
:class:`~repro.exec.spec.RunSpec` objects and executed through the
:mod:`repro.exec` subsystem, so e.g. Figures 13-15 (ProFess) reuse the
PoM runs produced for Figures 10-12.

Two cache layers sit behind every request:

* an in-process memo (object identity preserved within one runner), and
* an optional disk :class:`~repro.exec.cache.ResultCache` (``cache_dir``)
  that survives process exit and is shared across CLI runs and CI.

Every figure submits its runs as one streamed wave
(:meth:`ExperimentRunner.run_specs` for single-program runs,
:meth:`ExperimentRunner.run_cells` for multiprogram cells); with
``jobs > 1`` it fans out over a process pool with results identical to
serial execution.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.common.config import (
    SystemConfig,
    paper_quad_core,
    paper_single_core,
)
from repro.cpu.trace import Trace
from repro.exec import (
    Executor,
    ResultCache,
    RetryPolicy,
    RunEvent,
    RunFailure,
    RunJournal,
    RunSpec,
)
from repro.exec.spec import workload_traces as _workload_traces
from repro.exec.streaming import ListReducer, WaveReducer
from repro.experiments.accumulators import (
    Cell,
    CellMetrics,
    StreamedMetricsSweep,
)
from repro.policies.registry import canonical_policy
from repro.sim.metrics import WorkloadMetrics
from repro.sim.results import SimulationResult
from repro.workloads.table10 import WORKLOADS

#: Default capacity divisor: 4-MB total M1 in the quad-core system,
#: 1-MB M1 in the single-core system (ratios preserved; DESIGN.md Sec. 6).
DEFAULT_SCALE = 64
#: Default trace length per program (requests).
DEFAULT_MULTI_REQUESTS = 50_000
DEFAULT_SINGLE_REQUESTS = 60_000
#: Policy whose stand-alone runs provide IPC_SP in Eq. (1) for every
#: cell.  Referencing every scheme's slowdowns to the PoM baseline's
#: uncontended IPCs is the only reading under which the paper's Figure 5
#: (+14% single-program) and Figure 11 (+7% multiprogram weighted
#: speedup) are mutually consistent.
SP_REFERENCE = "pom"


class ExperimentRunner:
    """Builds configs and RunSpecs; runs and caches simulations."""

    def __init__(
        self,
        scale: int = DEFAULT_SCALE,
        multi_requests: int = DEFAULT_MULTI_REQUESTS,
        single_requests: int = DEFAULT_SINGLE_REQUESTS,
        seed: int = 0,
        verbose: bool = False,
        jobs: int = 1,
        cache_dir: Optional[str | Path] = None,
        validate_every: int = 0,
        policies: Optional[Sequence[str]] = None,
        retries: int = 0,
        run_timeout: Optional[float] = None,
        fail_fast: bool = False,
        transport: str = "auto",
    ) -> None:
        self.scale = scale
        self._quad_config: Optional[SystemConfig] = None
        self._single_config: Optional[SystemConfig] = None
        self.multi_requests = multi_requests
        self.single_requests = single_requests
        self.seed = seed
        self.verbose = verbose
        self.jobs = jobs
        #: Forwarded to every spec this runner builds: audit controller
        #: invariants every N cycles during simulation (0 = off).
        self.validate_every = validate_every
        #: Optional policy restriction for sweep experiments (the CLI's
        #: repeatable ``--policy SPEC``): canonicalized composable spec
        #: strings, or None for each experiment's full default set.
        self.policy_specs: Optional[tuple[str, ...]] = (
            tuple(canonical_policy(policy) for policy in policies)
            if policies
            else None
        )
        self.cache = (
            ResultCache(cache_dir) if cache_dir is not None else None
        )
        #: The append-only run journal lives beside the cache entries; a
        #: cache-less runner keeps no journal (nothing to resume into).
        #: A rerun over the same cache dir is the resume: completed keys
        #: hit the content-addressed cache, and only failed and pending
        #: work re-simulates.
        self.journal = (
            RunJournal.beside(cache_dir) if cache_dir is not None else None
        )
        #: Result transport ("auto"/"pickle"/"shm"), forwarded to the
        #: executor.  An execution detail: excluded from cache keys,
        #: byte-identical by contract.
        self.transport = transport
        self.executor = Executor(
            jobs=jobs,
            cache=self.cache,
            on_run=self._on_run,
            retry=RetryPolicy(retries=retries, seed=seed),
            run_timeout=run_timeout,
            journal=self.journal,
            fail_fast=fail_fast,
            transport=transport,
        )
        self._memory: dict[str, SimulationResult] = {}
        #: Batch requests served from the in-process memo.
        self.memory_hits = 0
        #: Computed figure cells, keyed by their mix run's cache key.  A
        #: CellMetrics is a few floats, so this memo can hold an entire
        #: multi-figure session — it is what lets fig10 feed fig11..15
        #: without re-simulating (or re-reading the disk cache for) a
        #: single run, though :meth:`run_cells` never memoizes a mix
        #: result.
        self._metrics_memory: dict[str, CellMetrics] = {}
        #: Cells served from the metrics memo.
        self.metrics_memory_hits = 0

    # ------------------------------------------------------------------
    # Configurations
    # ------------------------------------------------------------------
    # Without overrides, each of these returns one shared instance per
    # runner, so every spec built on it reuses the config's memoized
    # cache token instead of digesting an equal copy.
    def quad_config(self, **overrides) -> SystemConfig:
        """The multi-program system (Table 8), at this runner's scale."""
        if overrides:
            return replace(self.quad_config(), **overrides)
        if self._quad_config is None:
            self._quad_config = paper_quad_core(scale=self.scale)
        return self._quad_config

    def single_config(self, **overrides) -> SystemConfig:
        """The single-program system (Section 4.1), at this runner's scale."""
        if overrides:
            return replace(self.single_config(), **overrides)
        if self._single_config is None:
            self._single_config = paper_single_core(scale=self.scale)
        return self._single_config

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def workload_traces(
        self, programs: Sequence[str], requests: Optional[int] = None
    ) -> list[tuple[str, Trace]]:
        """Traces for a program mix; duplicates get distinct seeds."""
        return _workload_traces(
            programs, requests or self.multi_requests, self.scale, self.seed
        )

    # ------------------------------------------------------------------
    # Spec builders
    # ------------------------------------------------------------------
    def spec_single(
        self,
        program: str,
        policy: str,
        config: Optional[SystemConfig] = None,
        requests: Optional[int] = None,
        track_rsm_regions: bool = False,
    ) -> RunSpec:
        """Spec for one program on the single-core system (Figures 5-9)."""
        return RunSpec(
            kind="single",
            programs=(program,),
            policy=policy,
            config=config or self.single_config(),
            requests=requests or self.single_requests,
            seed=self.seed,
            trace_scale=self.scale,
            track_rsm_regions=track_rsm_regions,
            validate_every=self.validate_every,
        )

    def spec_alone(
        self,
        program: str,
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> RunSpec:
        """Spec for a stand-alone reference run on the quad-core system."""
        return RunSpec(
            kind="alone",
            programs=(program,),
            policy=policy,
            config=config or self.quad_config(),
            requests=self.multi_requests,
            seed=self.seed,
            trace_scale=self.scale,
            validate_every=self.validate_every,
        )

    def spec_workload(
        self,
        workload_name: str,
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> RunSpec:
        """Spec for one Table 10 workload on the quad-core system."""
        return self.spec_mix(WORKLOADS[workload_name], policy, config)

    def spec_mix(
        self,
        programs: Sequence[str],
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> RunSpec:
        """Spec for an arbitrary program mix on the quad-core system."""
        return RunSpec(
            kind="multi",
            programs=tuple(programs),
            policy=policy,
            config=config or self.quad_config(),
            requests=self.multi_requests,
            seed=self.seed,
            trace_scale=self.scale,
            validate_every=self.validate_every,
        )

    def metric_specs(
        self,
        programs: Sequence[str],
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> list[RunSpec]:
        """Every spec one cell needs: the mix run, then the stand-alone
        reference run Eq. (1) divides by for each distinct program."""
        config = config or self.quad_config()
        specs = [self.spec_mix(programs, policy, config)]
        specs.extend(
            self.spec_alone(program, SP_REFERENCE, config)
            for program in dict.fromkeys(programs)
        )
        return specs

    def workload_metric_specs(
        self,
        workload_name: str,
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> list[RunSpec]:
        """Every spec :meth:`workload_metrics` needs for one workload."""
        return self.metric_specs(WORKLOADS[workload_name], policy, config)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_specs(self, specs: Iterable[RunSpec]) -> ListReducer:
        """Run specs as one memoizing wave; returns its reducer.

        ``by_key`` then maps each cache key to its result, ``failures``
        holds each failed run once, and ``raise_on_failure()`` is the
        strict view.  A failure never aborts the wave, and every spec is
        attempted once per retry budget.  Every result the wave folds is
        memoized, so a later wave re-simulates none of them (fig6, fig7
        and the sensitivities reuse fig5's runs) and the memo preserves
        object identity within this runner.
        """
        wave = ListReducer()
        self.run_streamed(specs, wave)
        self._memory.update(wave.by_key)
        return wave

    def execute(self, spec: RunSpec) -> SimulationResult:
        """Run (or fetch) one spec: a one-spec :meth:`run_specs` that
        raises :class:`SweepFailure` if the run failed."""
        return self.run_specs([spec]).raise_on_failure()[spec.cache_key()]

    def run_streamed(
        self, specs: Iterable[RunSpec], reducer: WaveReducer
    ) -> None:
        """Run a wave through a streaming reducer (DESIGN.md §17).

        Each unique spec's result is folded into ``reducer`` exactly once
        as it completes — from the in-process memo immediately, from the
        disk cache or a simulation as the executor delivers it — and is
        *not* memoized here, so parent memory scales with the reducer's
        frontier instead of the wave.  Terminal failures fold through
        ``reducer.fold_failure``; they never abort the wave.
        """
        fresh: dict[str, RunSpec] = {}
        folded: set[str] = set()
        for spec in specs:
            key = spec.cache_key()
            if key in fresh or key in folded:
                continue
            held = self._memory.get(key)
            if held is not None:
                self.memory_hits += 1
                folded.add(key)
                reducer.fold(key, spec, held)
            else:
                fresh[key] = spec
        if fresh:
            self.executor.run_wave(list(fresh.values()), reducer)

    def run_cells(self, cells: Iterable[Cell]) -> StreamedMetricsSweep:
        """Compute a figure's cells (see :meth:`metric_specs`) in one
        streamed wave; returns the reducer, whose ``cells`` hold each
        completed cell's :class:`CellMetrics` and ``failed`` the failure
        that sank each other cell (``raise_on_failure()`` is the strict
        view).  A failure never aborts the wave.

        The memo rule: computed cells are memoized, and so is every
        stand-alone reference result the wave folds — a few per config,
        shared by every cell and figure on it.  A mix result never is: it
        belongs to one cell, whose metrics stand for it, and holding it
        would grow parent memory with the sweep.
        """
        sweep = StreamedMetricsSweep()
        wave: list[RunSpec] = []
        declared: dict[str, str] = {}
        for cell_id, programs, policy, config in cells:
            if cell_id in declared:
                continue
            specs = self.metric_specs(programs, policy, config)
            held = self.cached_cell(specs[0])
            if held is not None:
                sweep.cells[cell_id] = held
                continue
            declared[cell_id] = specs[0].cache_key()
            sweep.add_cell(cell_id, specs)
            wave.extend(specs)
        self.run_streamed(wave, sweep)
        self._memory.update(sweep.references)
        for cell_id, memo_key in declared.items():
            if cell_id in sweep.cells:
                self._metrics_memory[memo_key] = sweep.cells[cell_id]
        return sweep

    def cached_cell(self, mix_spec: RunSpec) -> Optional[CellMetrics]:
        """The memoized cell of this mix run, if a figure computed it."""
        cell = self._metrics_memory.get(mix_spec.cache_key())
        if cell is not None:
            self.metrics_memory_hits += 1
        return cell

    def _on_run(self, event: RunEvent) -> None:
        if self.verbose:
            spec = event.spec
            origin = (
                "disk cache"
                if event.source == "cache"
                else f"{event.source}, {event.elapsed:.1f}s"
            )
            print(
                f"  {spec.kind} {'+'.join(spec.programs)}: "
                f"{event.result.summary_line()} ({origin})"
            )

    def run_stats(self) -> dict[str, int]:
        """Execution counters: simulations run vs cache traffic."""
        stats = {
            "executed": self.executor.executed,
            "memory_hits": self.memory_hits,
            "metrics_memory_hits": self.metrics_memory_hits,
            "disk_hits": self.cache.hits if self.cache else 0,
            "disk_misses": self.cache.misses if self.cache else 0,
            "disk_stores": self.cache.stores if self.cache else 0,
            "retried": self.executor.retried,
            "failures": len(self.executor.failures),
            "quarantined": self.cache.quarantined if self.cache else 0,
            "store_errors": self.cache.store_errors if self.cache else 0,
        }
        return stats

    @property
    def failures(self) -> list[RunFailure]:
        """Every spec that exhausted retries, across all waves so far."""
        return self.executor.failures

    def mix_metrics(
        self,
        programs: Sequence[str],
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> WorkloadMetrics:
        """Metrics for an arbitrary program mix (not from Table 10): a
        one-cell :meth:`run_cells` that raises :class:`SweepFailure` if a
        run failed."""
        cells = self.run_cells([Cell("mix", programs, policy, config)])
        return cells.raise_on_failure()["mix"].metrics

    def workload_metrics(
        self,
        workload_name: str,
        policy: str,
        config: Optional[SystemConfig] = None,
    ) -> WorkloadMetrics:
        """Slowdowns / weighted speedup / unfairness for one workload.

        Eq. (1)'s IPC_SP comes from stand-alone runs under
        :data:`SP_REFERENCE` for every scheme, so normalized comparisons
        reflect the multiprogram behaviour.
        """
        return self.mix_metrics(WORKLOADS[workload_name], policy, config)
