"""Execution subsystem: unified run specs, disk caching, parallelism.

Seven layers (see DESIGN.md §9 / §15 / §17):

* :class:`~repro.exec.spec.RunSpec` — a frozen, content-addressed
  description of one simulation.
* :class:`~repro.exec.cache.ResultCache` — results persisted to disk
  under :meth:`RunSpec.cache_key`, shared across processes and runs,
  integrity-checked on read with corrupt entries quarantined.
* :class:`~repro.exec.executor.Executor` — wave execution over a
  process pool with a deterministic schedule, per-spec fault isolation,
  retries, wall-clock timeouts, and worker replacement.
* :mod:`repro.exec.transport` — the shm result transport: workers write
  length-prefixed frames into mmap-backed segments and return small
  handles over the pool pipe instead of pickled result dicts.
* :mod:`repro.exec.streaming` — wave reducers: every
  ``run_wave(specs, reducer)`` folds its completions into one as they
  land, so the executor never materializes a wave in the parent.
* :mod:`repro.exec.resilience` — the failure taxonomy
  (:class:`RunFailure`, :class:`RetryPolicy`) and the append-only
  :class:`RunJournal` beside the result cache.
* :mod:`repro.exec.chaos` — deterministic fault injection for testing
  every degradation path, including frame-write faults.
"""

from repro.exec.cache import CACHE_VERSION, ResultCache
from repro.exec.chaos import ChaosError, ChaosPlan, TruncatingResultCache
from repro.exec.executor import Executor, RunEvent, execute_spec
from repro.exec.resilience import (
    RetryPolicy,
    RunFailure,
    RunJournal,
    SpecTimeoutError,
    SweepFailure,
    WorkerFailure,
    format_failure_table,
)
from repro.exec.spec import RunSpec, build_traces, workload_traces
from repro.exec.streaming import GroupReducer, ListReducer, WaveReducer
from repro.exec.transport import (
    TRANSPORTS,
    FrameCorruptionError,
    FrameHandle,
    FrameReader,
    FrameWriter,
    ShmSession,
    resolve_transport,
)

__all__ = [
    "CACHE_VERSION",
    "ChaosError",
    "ChaosPlan",
    "Executor",
    "FrameCorruptionError",
    "FrameHandle",
    "FrameReader",
    "FrameWriter",
    "GroupReducer",
    "ListReducer",
    "ResultCache",
    "RetryPolicy",
    "RunEvent",
    "RunFailure",
    "RunJournal",
    "RunSpec",
    "ShmSession",
    "SpecTimeoutError",
    "SweepFailure",
    "TRANSPORTS",
    "TruncatingResultCache",
    "WaveReducer",
    "WorkerFailure",
    "build_traces",
    "execute_spec",
    "format_failure_table",
    "resolve_transport",
    "workload_traces",
]
