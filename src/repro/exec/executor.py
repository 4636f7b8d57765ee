"""Execution engine: fan :class:`RunSpec`\\ s out over processes.

The :class:`Executor` is the single funnel through which simulations
run.  For every wave it:

1. deduplicates specs by content hash (a figure often requests the same
   stand-alone reference run many times),
2. serves what it can from the :class:`~repro.exec.cache.ResultCache`,
3. fans the remainder out over a ``ProcessPoolExecutor`` when
   ``jobs > 1`` (falling back to in-process serial execution when
   ``jobs == 1`` or when there is only one run),
4. persists fresh results to the cache and reports each completion
   through an optional callback, and
5. folds each unique spec's result into the wave's
   :class:`~repro.exec.streaming.WaveReducer` exactly once, in
   completion order; the executor itself retains no result.

Simulations are deterministic functions of their spec, so a parallel
wave is bit-identical to a serial one — only wall-clock time changes.

Fault isolation (DESIGN.md §15): one crashing worker, one hung spec, or
one raising simulation never takes the wave down.  Worker exceptions are
wrapped with spec provenance (:class:`~repro.exec.resilience.
WorkerFailure`), transient faults — worker death, per-spec wall-clock
timeouts, ``OSError`` — are re-attempted under a deterministic
:class:`~repro.exec.resilience.RetryPolicy`, deterministic failures are
captured as structured :class:`~repro.exec.resilience.RunFailure`
records, and every submit/complete/fail of a simulation (not a cache
hit) is journalled so an interrupted sweep resumes instead of
restarting.  :meth:`Executor.run_wave` folds each terminal failure into
the reducer too and returns them; only ``fail_fast`` turns one into a
:class:`~repro.exec.resilience.SweepFailure` that aborts the wave.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.common.errors import InvalidValueError
from repro.exec.cache import ResultCache
from repro.exec.chaos import (
    ACTION_FRAME_CORRUPT,
    ACTION_FRAME_KILL,
    ChaosKilledError,
    ChaosPlan,
    apply_chaos,
)
from repro.exec.resilience import (
    RetryPolicy,
    RunFailure,
    RunJournal,
    SpecTimeoutError,
    SweepFailure,
    WorkerFailure,
    failure_from_error,
)
from repro.exec.spec import RunSpec, build_traces
from repro.exec.streaming import WaveReducer
from repro.exec.transport import (
    HEADER_SIZE,
    TRANSPORT_SHM,
    FrameCorruptionError,
    FrameHandle,
    ShmSession,
    encode_result,
    resolve_transport,
    writer_for,
)
from repro.sim.results import SimulationResult

#: Result provenance labels reported via :class:`RunEvent`.
SOURCE_CACHE = "cache"
SOURCE_SERIAL = "serial"
SOURCE_POOL = "pool"

#: Seconds between deadline sweeps while draining a pool round.
_POLL_INTERVAL = 0.1


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one spec's simulation in the current process.

    Module-level (picklable) so process-pool workers can receive it; the
    spec is self-contained, so no other state crosses the boundary.
    """
    from repro.sim.engine import SimulationDriver

    driver = SimulationDriver(
        spec.config,
        spec.policy,
        build_traces(spec),
        seed=spec.seed,
        track_rsm_regions=spec.track_rsm_regions,
        validate_every=spec.validate_every,
    )
    return driver.run()


def _timed_execute(spec: RunSpec) -> tuple[SimulationResult, float]:
    started = time.perf_counter()
    result = execute_spec(spec)
    return result, time.perf_counter() - started


def _guarded_execute(
    spec: RunSpec,
    run_id: str,
    attempt: int,
    chaos: Optional[ChaosPlan] = None,
    in_worker: bool = True,
) -> tuple[SimulationResult, float]:
    """The pool task: chaos hook + provenance-preserving exception wrap.

    Any exception crossing the pool pipe is re-raised as a pickle-safe
    :class:`WorkerFailure` carrying the spec's cache key and the run id —
    a worker raise never arrives anonymous.  ``from None``: exception
    chains do not survive pickling, so the original is flattened into the
    wrapper's fields instead.
    """
    key = spec.cache_key()
    try:
        if chaos is not None:
            apply_chaos(chaos, key, attempt, in_worker=in_worker)
        return _timed_execute(spec)
    except Exception as error:
        raise WorkerFailure.wrap(key, run_id, spec.describe(), error) from None


def _guarded_execute_frame(
    spec: RunSpec,
    run_id: str,
    attempt: int,
    directory: str,
    chaos: Optional[ChaosPlan] = None,
    in_worker: bool = True,
) -> FrameHandle:
    """The shm-transport pool task: run, then *write* instead of return.

    The result is encoded into a frame in this process's segment file
    under ``directory`` and only the :class:`FrameHandle` crosses the
    pool pipe.  Frame-level chaos is injected here, after the simulation
    itself succeeded: a frame-kill writes half a frame and dies (the
    on-disk picture of a worker lost mid-write — the handle never
    arrives), a frame-corrupt returns an intact handle over truncated
    bytes (the parent's digest check must refuse them).
    """
    key = spec.cache_key()
    try:
        if chaos is not None:
            apply_chaos(chaos, key, attempt, in_worker=in_worker)
        result, elapsed = _timed_execute(spec)
        payload = encode_result(result)
        writer = writer_for(directory)
        action = (
            chaos.frame_action_for(key, attempt)
            if chaos is not None
            else None
        )
        if action == ACTION_FRAME_KILL:
            writer.write(
                key, payload, elapsed,
                keep=HEADER_SIZE + len(payload) // 2,
            )
            if in_worker:
                os._exit(3)
            raise ChaosKilledError(
                f"chaos: worker killed mid-frame-write for {key[:12]} "
                f"attempt {attempt}"
            )
        keep: Optional[int] = None
        if action == ACTION_FRAME_CORRUPT:
            # Commit the handle but lose the payload's tail bytes.
            keep = HEADER_SIZE + max(0, len(payload) - 7)
        return writer.write(key, payload, elapsed, keep=keep)
    except Exception as error:
        raise WorkerFailure.wrap(key, run_id, spec.describe(), error) from None


@dataclass(frozen=True)
class RunEvent:
    """One completed run, as reported to progress callbacks."""

    spec: RunSpec
    result: SimulationResult
    #: Simulation wall-clock seconds (0 for cache hits).
    elapsed: float
    #: Where the result came from: "cache", "serial", or "pool".
    source: str


@dataclass
class _Flight:
    """One in-flight pool attempt."""

    key: str
    spec: RunSpec
    attempt: int
    #: Wall-clock deadline (monotonic), stamped when the future is first
    #: observed running — queue time never counts against the budget.
    deadline: Optional[float] = None


class _WaveSink:
    """Where one wave's completions land: its reducer, exactly once.

    Each unique key is folded the moment it completes and *nothing is
    retained* — ``done`` (a set of keys) is the only per-spec state, so
    parent memory does not scale with result size.  A key is absorbed
    at most once, which is the exactly-once guarantee reducers rely on
    (a salvaged future and its re-queued twin cannot both fold).
    """

    def __init__(self, reducer: WaveReducer) -> None:
        self.reducer = reducer
        self.done: set[str] = set()

    def add(
        self, key: str, spec: RunSpec, result: SimulationResult
    ) -> None:
        if key in self.done:
            return
        self.done.add(key)
        self.reducer.fold(key, spec, result)

    def __contains__(self, key: object) -> bool:
        return key in self.done


class Executor:
    """Runs batches of specs with caching, parallelism, and isolation."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        on_run: Optional[Callable[[RunEvent], None]] = None,
        retry: Optional[RetryPolicy] = None,
        run_timeout: Optional[float] = None,
        journal: Optional[RunJournal] = None,
        fail_fast: bool = False,
        chaos: Optional[ChaosPlan] = None,
        run_id: Optional[str] = None,
        transport: str = "auto",
    ) -> None:
        if jobs < 1:
            raise InvalidValueError("jobs must be >= 1")
        if run_timeout is not None and run_timeout <= 0:
            raise InvalidValueError("run_timeout must be > 0 (or None)")
        # Validate the name eagerly; `auto` resolves per wave.  The
        # transport is an execution detail: it never enters cache keys
        # and never changes result bytes.
        resolve_transport(transport, jobs)
        self.jobs = jobs
        self.transport = transport
        self.cache = cache
        self.on_run = on_run
        self.retry = retry if retry is not None else RetryPolicy(retries=0)
        self.run_timeout = run_timeout
        self.journal = journal
        self.fail_fast = fail_fast
        self.chaos = chaos
        #: Identifies this executor's appends in a shared journal.
        self.run_id = run_id or f"run-{os.getpid()}-{int(time.time())}"
        #: Simulations actually executed (cache hits excluded).
        self.executed = 0
        #: Attempts that failed and were re-queued (retry traffic).
        self.retried = 0
        #: Every spec that ultimately failed, across this executor's life.
        self.failures: list[RunFailure] = []
        #: The active wave's shm session (None under the pickle path).
        self._session: Optional[ShmSession] = None

    # ------------------------------------------------------------------
    def run_wave(
        self, specs: Sequence[RunSpec], reducer: WaveReducer
    ) -> list[RunFailure]:
        """Run a wave with fault isolation; failures never propagate.

        Every spec either yields a result (cache, serial, or pool) or a
        structured :class:`RunFailure` after its attempt budget runs out;
        one bad spec cannot take down the others' work.  Each unique
        spec's result is folded into ``reducer`` exactly once as it
        completes (cache hits included), and every terminal failure is
        folded through ``fold_failure`` before returning.  Returns the
        wave's failures, one per failed key.
        """
        sink = _WaveSink(reducer)
        # Deduplicate while preserving first-appearance order so the
        # execution schedule (and therefore any progress output) is
        # deterministic.
        unique: dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.cache_key(), spec)
        pending: list[tuple[str, RunSpec]] = []
        for key, spec in unique.items():
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                # Not journalled: the run that stored the entry already
                # journalled its completion, so a warm rerun adds nothing.
                sink.add(key, spec, cached)
                self._notify(RunEvent(spec, cached, 0.0, SOURCE_CACHE))
            else:
                pending.append((key, spec))
        failures: list[RunFailure] = []
        if pending:
            use_shm = (
                resolve_transport(self.transport, self.jobs) == TRANSPORT_SHM
            )
            self._session = ShmSession.create() if use_shm else None
            try:
                if self.jobs > 1 and len(pending) > 1:
                    self._run_pool(pending, sink, failures)
                else:
                    self._run_serial(pending, sink, failures)
            finally:
                session, self._session = self._session, None
                if session is not None:
                    session.close()
        self.failures.extend(failures)
        for failure in failures:
            reducer.fold_failure(failure)
        return failures

    # ------------------------------------------------------------------
    # Completion / failure bookkeeping
    # ------------------------------------------------------------------
    def _complete(
        self,
        key: str,
        spec: RunSpec,
        result: SimulationResult,
        elapsed: float,
        source: str,
        sink: _WaveSink,
    ) -> None:
        sink.add(key, spec, result)
        self.executed += 1
        if self.cache is not None:
            self.cache.put(spec, result)
        self._journal_completed(key, source, elapsed)
        self._notify(RunEvent(spec, result, elapsed, source))

    def _decode(
        self, spec: RunSpec, handle: FrameHandle
    ) -> tuple[SimulationResult, float]:
        """Map and verify one frame; corruption becomes a retryable
        :class:`WorkerFailure` (the simulation is fine — only this copy
        of its result was lost in transport)."""
        assert self._session is not None
        try:
            return self._session.reader.read(handle)
        except FrameCorruptionError as error:
            raise WorkerFailure.wrap(
                handle.key, self.run_id, spec.describe(), error
            ) from None

    def _fail(
        self,
        key: str,
        spec: RunSpec,
        error: BaseException,
        attempt: int,
        failures: list[RunFailure],
    ) -> None:
        failure = failure_from_error(key, spec.describe(), error, attempt)
        failures.append(failure)
        if self.journal is not None:
            self.journal.failed(failure, self.run_id)
        if self.fail_fast:
            # The wave is aborted before run_wave can fold the local
            # failure list in, so record it here for run_stats/reports.
            self.failures.append(failure)
            raise SweepFailure([failure])

    def _notify(self, event: RunEvent) -> None:
        if self.on_run is not None:
            self.on_run(event)

    def _journal_submitted(self, key: str, spec: RunSpec, attempt: int) -> None:
        if self.journal is not None:
            self.journal.submitted(key, self.run_id, attempt, spec.describe())

    def _journal_completed(self, key: str, source: str, elapsed: float) -> None:
        if self.journal is not None:
            transport = TRANSPORT_SHM if self._session is not None else "pickle"
            self.journal.completed(
                key, self.run_id, source, elapsed, transport=transport
            )

    def _backoff(self, key: str, attempt: int) -> None:
        delay = self.retry.backoff(key, attempt)
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------------
    # Serial execution (with the same retry/failure contract)
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: Sequence[tuple[str, RunSpec]],
        sink: _WaveSink,
        failures: list[RunFailure],
    ) -> None:
        for key, spec in pending:
            attempt = 1
            while True:
                self._journal_submitted(key, spec, attempt)
                try:
                    if self._session is not None:
                        # Explicit shm with jobs == 1: round-trip the
                        # result through a real frame in-process, so the
                        # encode/decode path is exercised (and parity-
                        # testable) without a pool.
                        handle = _guarded_execute_frame(
                            spec, self.run_id, attempt,
                            self._session.directory, self.chaos,
                            in_worker=False,
                        )
                        result, elapsed = self._decode(spec, handle)
                    else:
                        result, elapsed = _guarded_execute(
                            spec, self.run_id, attempt, self.chaos,
                            in_worker=False,
                        )
                except WorkerFailure as error:
                    if self.retry.should_retry(error, attempt):
                        self.retried += 1
                        self._backoff(key, attempt)
                        attempt += 1
                        continue
                    self._fail(key, spec, error, attempt, failures)
                    break
                self._complete(
                    key, spec, result, elapsed, SOURCE_SERIAL, sink
                )
                break

    # ------------------------------------------------------------------
    # Pool execution: rounds of submit/drain with worker replacement
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        pending: Sequence[tuple[str, RunSpec]],
        sink: _WaveSink,
        failures: list[RunFailure],
    ) -> None:
        """Fault-isolated parallel execution.

        Work proceeds in *rounds*: each round owns one fresh
        ``ProcessPoolExecutor``, submits everything queued, and drains
        completions.  A broken pool (killed worker) or an expired
        per-spec deadline ends the round — completed-but-unharvested
        futures are salvaged first, transient casualties are re-queued
        under the retry policy, the pool's workers are replaced, and the
        next round continues.  Exhausted attempt budgets become
        :class:`RunFailure` records, never wave aborts.
        """
        queue: deque[tuple[str, RunSpec, int]] = deque(
            (key, spec, 1) for key, spec in pending
        )
        while queue:
            round_items = list(queue)
            queue.clear()
            try:
                self._pool_round(round_items, sink, failures, queue)
            except SweepFailure:
                raise  # fail-fast propagates out of the wave
            except BrokenProcessPool as error:
                # The pool broke outside the drain loop (e.g. at submit
                # time): everything still queued for this round is a
                # transient casualty of the same worker death.
                for key, spec, attempt in round_items:
                    if key in sink:
                        continue
                    self._requeue_or_fail(
                        key, spec, attempt, error, queue, failures
                    )

    def _pool_round(
        self,
        items: list[tuple[str, RunSpec, int]],
        sink: _WaveSink,
        failures: list[RunFailure],
        queue: deque[tuple[str, RunSpec, int]],
    ) -> None:
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        inflight: dict[Future, _Flight] = {}
        replaced_workers = False
        try:
            for key, spec, attempt in items:
                self._journal_submitted(key, spec, attempt)
                if self._session is not None:
                    future = pool.submit(
                        _guarded_execute_frame, spec, self.run_id, attempt,
                        self._session.directory, self.chaos,
                    )
                else:
                    future = pool.submit(
                        _guarded_execute, spec, self.run_id, attempt,
                        self.chaos,
                    )
                inflight[future] = _Flight(key, spec, attempt)
            while inflight:
                done, _ = wait(
                    set(inflight),
                    timeout=_POLL_INTERVAL if self.run_timeout else None,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    flight = inflight.pop(future)
                    broken |= self._harvest(future, flight, sink, queue,
                                            failures)
                if broken:
                    # A worker died: every remaining future is (or will
                    # be) poisoned with BrokenProcessPool.  Drain what
                    # already finished, classify the rest as transient
                    # casualties, and end the round for a fresh pool.
                    self._drain_broken(inflight, sink, queue, failures)
                    return
                if self._expire_deadlines(inflight, queue, failures):
                    # A spec blew its wall-clock budget.  The stuck
                    # worker cannot be cancelled individually, so the
                    # round's workers are terminated and replaced; other
                    # in-flight specs re-queue without burning attempts.
                    self._abandon_round(pool, inflight, sink, queue,
                                        failures)
                    replaced_workers = True
                    return
        finally:
            if replaced_workers:
                _terminate_workers(pool)
            pool.shutdown(wait=not replaced_workers, cancel_futures=True)

    def _harvest(
        self,
        future: Future,
        flight: _Flight,
        sink: _WaveSink,
        queue: deque[tuple[str, RunSpec, int]],
        failures: list[RunFailure],
    ) -> bool:
        """Absorb one finished future; True when the pool is broken."""
        if future.cancelled():
            queue.append((flight.key, flight.spec, flight.attempt))
            return False
        error = future.exception()
        if error is None:
            payload = future.result()
            if isinstance(payload, FrameHandle):
                try:
                    result, elapsed = self._decode(flight.spec, payload)
                except WorkerFailure as decode_error:
                    # The frame failed verification: a transport loss,
                    # re-attempted like any transient fault.
                    self._requeue_or_fail(
                        flight.key, flight.spec, flight.attempt,
                        decode_error, queue, failures,
                    )
                    return False
            else:
                result, elapsed = payload
            self._complete(
                flight.key, flight.spec, result, elapsed, SOURCE_POOL, sink
            )
            return False
        self._requeue_or_fail(
            flight.key, flight.spec, flight.attempt, error, queue, failures
        )
        return isinstance(error, BrokenProcessPool)

    def _requeue_or_fail(
        self,
        key: str,
        spec: RunSpec,
        attempt: int,
        error: BaseException,
        queue: deque[tuple[str, RunSpec, int]],
        failures: list[RunFailure],
    ) -> None:
        if self.retry.should_retry(error, attempt):
            self.retried += 1
            self._backoff(key, attempt)
            queue.append((key, spec, attempt + 1))
        else:
            self._fail(key, spec, error, attempt, failures)

    def _drain_broken(
        self,
        inflight: dict[Future, _Flight],
        sink: _WaveSink,
        queue: deque[tuple[str, RunSpec, int]],
        failures: list[RunFailure],
    ) -> None:
        """After a worker death: salvage completions, re-queue the rest.

        Completed-but-unharvested futures still hold real results — they
        are counted under ``SOURCE_POOL``, not re-run.  Unfinished
        futures carry (or will carry) ``BrokenProcessPool``; they re-
        enter the queue under the retry policy.
        """
        for future, flight in list(inflight.items()):
            if future.done():
                self._harvest(future, flight, sink, queue, failures)
            else:
                self._requeue_or_fail(
                    flight.key,
                    flight.spec,
                    flight.attempt,
                    BrokenProcessPool(
                        "worker process died before this spec finished"
                    ),
                    queue,
                    failures,
                )
        inflight.clear()

    def _expire_deadlines(
        self,
        inflight: dict[Future, _Flight],
        queue: deque[tuple[str, RunSpec, int]],
        failures: list[RunFailure],
    ) -> bool:
        """Stamp deadlines on newly running futures; expire overdue ones.

        Returns True when at least one spec timed out (the caller must
        then replace the round's workers).
        """
        if self.run_timeout is None:
            return False
        now = time.monotonic()
        expired = False
        for future, flight in list(inflight.items()):
            if flight.deadline is None:
                if future.running():
                    flight.deadline = now + self.run_timeout
                continue
            if now < flight.deadline:
                continue
            inflight.pop(future)
            future.cancel()
            expired = True
            self._requeue_or_fail(
                flight.key,
                flight.spec,
                flight.attempt,
                SpecTimeoutError(
                    f"spec {flight.key[:12]} exceeded the "
                    f"{self.run_timeout:.1f}s wall-clock budget "
                    f"(attempt {flight.attempt})"
                ),
                queue,
                failures,
            )
        return expired

    def _abandon_round(
        self,
        pool: ProcessPoolExecutor,
        inflight: dict[Future, _Flight],
        sink: _WaveSink,
        queue: deque[tuple[str, RunSpec, int]],
        failures: list[RunFailure],
    ) -> None:
        """Salvage and re-queue around a worker-replacing teardown."""
        for future, flight in list(inflight.items()):
            if future.done():
                self._harvest(future, flight, sink, queue, failures)
            else:
                # Not timed out itself: a casualty of the teardown, so
                # its attempt is not burned.
                future.cancel()
                queue.append((flight.key, flight.spec, flight.attempt))
        inflight.clear()


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes (the hung-spec escape hatch).

    ``ProcessPoolExecutor`` has no public per-worker cancellation; when a
    spec must be abandoned mid-run the only safe move is to terminate the
    round's workers and let the next round spawn fresh ones.  Touches the
    private ``_processes`` map — guarded so a stdlib layout change
    degrades to leaking the round's workers rather than crashing.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, AttributeError):
            pass  # already dead, or not a real process object
