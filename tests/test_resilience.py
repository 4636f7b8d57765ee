"""Resilient-execution tests: taxonomy, journal, retries, timeouts.

The deterministic chaos harness (repro.exec.chaos) drives the Executor's
degradation paths; the end-to-end acceptance scenario (parallel chaos
sweep + resume == clean serial run, byte for byte) lives in
``tests/test_chaos.py``.
"""

import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.config import paper_single_core
from repro.common.errors import InvalidValueError, SimulationError
from repro.exec import (
    Executor,
    ListReducer,
    ResultCache,
    RetryPolicy,
    RunJournal,
    RunSpec,
    SpecTimeoutError,
    SweepFailure,
    WorkerFailure,
    format_failure_table,
)
from repro.exec.chaos import ChaosError, ChaosKilledError, ChaosPlan
from repro.exec.resilience import (
    RunFailure,
    failure_from_error,
    is_retryable,
)

SCALE = 128
CONFIG = paper_single_core(scale=SCALE)


def spec(program="zeusmp", policy="pom", **overrides) -> RunSpec:
    base = dict(
        kind="single",
        programs=(program,),
        policy=policy,
        config=CONFIG,
        requests=500,
        seed=0,
        trace_scale=SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


def retry_free() -> RetryPolicy:
    """A no-wait policy so retry tests spend zero time sleeping."""
    return RetryPolicy(retries=1, backoff_base=0.0)


def run_strict(executor: Executor, specs: list[RunSpec]) -> list:
    """Fold one wave through the materializing reducer; results in
    submission order, or SweepFailure if any spec failed."""
    wave = ListReducer()
    executor.run_wave(specs, wave)
    results = wave.raise_on_failure()
    return [results[spec.cache_key()] for spec in specs]


class TestRetryTaxonomy:
    @pytest.mark.parametrize(
        "error,expected",
        [
            (BrokenProcessPool("worker died"), True),
            (SpecTimeoutError("over budget"), True),
            (OSError("flaky filesystem"), True),
            (ChaosKilledError("injected kill"), True),
            (SimulationError("deterministic bug"), False),
            (ChaosError("injected failure"), False),
            (ValueError("plain library error"), False),
        ],
    )
    def test_is_retryable(self, error, expected):
        assert is_retryable(error) is expected

    def test_worker_failure_defers_to_inner_classification(self):
        transient = WorkerFailure.wrap("k", "r", "label", OSError("io"))
        fatal = WorkerFailure.wrap("k", "r", "label", SimulationError("bug"))
        assert is_retryable(transient)
        assert not is_retryable(fatal)

    def test_should_retry_respects_attempt_budget(self):
        policy = RetryPolicy(retries=2)
        error = OSError("transient")
        assert policy.max_attempts == 3
        assert policy.should_retry(error, 1)
        assert policy.should_retry(error, 2)
        assert not policy.should_retry(error, 3)
        assert not policy.should_retry(SimulationError("fatal"), 1)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=3, backoff_base=0.05, backoff_cap=0.4)
        first = policy.backoff("somekey", 1)
        assert first == policy.backoff("somekey", 1)
        assert first != policy.backoff("otherkey", 1)
        for attempt in range(1, 6):
            delay = policy.backoff("somekey", attempt)
            assert 0.0 < delay <= 0.4
        assert RetryPolicy(backoff_base=0.0).backoff("somekey", 1) == 0.0

    def test_invalid_policy_rejected(self):
        with pytest.raises(InvalidValueError):
            RetryPolicy(retries=-1)


class TestWorkerFailure:
    def test_pickle_roundtrip_preserves_provenance(self):
        original = WorkerFailure.wrap(
            "a" * 64, "run-7", "single:zeusmp:pom", OSError("disk hiccup")
        )
        restored = pickle.loads(pickle.dumps(original))
        assert isinstance(restored, WorkerFailure)
        assert restored.key == original.key
        assert restored.run_id == "run-7"
        assert restored.label == "single:zeusmp:pom"
        assert restored.error_type == "OSError"
        assert restored.message == "disk hiccup"
        assert restored.traceback_digest == original.traceback_digest
        assert restored.retryable is True

    def test_str_carries_key_and_type(self):
        failure = WorkerFailure.wrap("b" * 64, "run-1", "lbl", ValueError("x"))
        text = str(failure)
        assert "ValueError" in text and "b" * 12 in text

    def test_failure_record_from_worker_failure(self):
        wrapped = WorkerFailure.wrap(
            "c" * 64, "run-2", "single:lbm:mdm", SimulationError("bad state")
        )
        record = failure_from_error("c" * 64, "fallback", wrapped, attempts=3)
        assert record.error_type == "SimulationError"
        assert record.label == "single:lbm:mdm"
        assert record.attempts == 3
        assert record.retryable is False
        as_dict = record.to_dict()
        assert as_dict["key"] == "c" * 64
        assert as_dict["traceback_digest"] == wrapped.traceback_digest
        assert "SimulationError" in record.summary()

    def test_failure_table_renders_every_row(self):
        records = [
            RunFailure("d" * 64, "single:mcf:pom", "ChaosError", "boom",
                       "abc123def456", 1, False),
            RunFailure("e" * 64, "x" * 50, "SpecTimeoutError", "slow",
                       "fedcba654321", 2, True),
        ]
        table = format_failure_table(records)
        assert "2 failed run(s)" in table
        assert "ChaosError" in table and "SpecTimeoutError" in table
        assert "..." in table  # long labels truncate, not overflow
        assert format_failure_table([]) == "no failures"


class TestRunJournal:
    def test_append_and_replay_roundtrip(self, tmp_path):
        journal = RunJournal.beside(tmp_path)
        journal.submitted("k1", "run-1", 1, "single:zeusmp:pom")
        journal.submitted("k2", "run-1", 1, "single:lbm:pom")
        journal.completed("k1", "run-1", "pool", 1.25)
        failure = RunFailure("k2", "single:lbm:pom", "ChaosError", "boom",
                             "abc123def456", 2, False)
        journal.failed(failure, "run-1")
        state = journal.replay()
        assert state.completed == {"k1"}
        assert set(state.failed) == {"k2"}
        assert state.failed["k2"]["error_type"] == "ChaosError"
        assert state.submitted == {"k1", "k2"}
        assert state.pending() == set()
        assert state.skipped_lines == 0

    def test_completion_clears_earlier_failure(self, tmp_path):
        journal = RunJournal.beside(tmp_path)
        failure = RunFailure("k1", "lbl", "OSError", "io", "0" * 12, 1, True)
        journal.failed(failure, "run-1")
        journal.completed("k1", "run-2", "serial", 0.5)
        state = journal.replay()
        assert state.completed == {"k1"}
        assert state.failed == {}

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        journal = RunJournal.beside(tmp_path)
        journal.submitted("k1", "run-1", 1, "lbl")
        journal.completed("k1", "run-1", "serial", 0.5)
        with journal.path.open("a") as handle:
            handle.write('{"v": 1, "event": "compl')  # crash mid-append
        state = journal.replay()
        assert state.completed == {"k1"}
        assert state.skipped_lines == 1

    def test_missing_journal_replays_empty(self, tmp_path):
        state = RunJournal.beside(tmp_path / "nowhere").replay()
        assert state.completed == set() and state.pending() == set()

    def test_unwritable_journal_never_raises(self, tmp_path):
        journal = RunJournal(tmp_path / "file.txt" / "journal.jsonl")
        (tmp_path / "file.txt").write_text("a file, not a directory\n")
        journal.submitted("k1", "run-1", 1, "lbl")
        assert journal.write_errors == 1


class TestExecutorRetries:
    def test_serial_kill_injection_recovers_on_retry(self):
        chaos = ChaosPlan(seed=0, kill_rate=1.0)
        [clean] = run_strict(Executor(jobs=1), [spec()])
        executor = Executor(jobs=1, retry=retry_free(), chaos=chaos)
        [result] = run_strict(executor, [spec()])
        assert result.to_dict() == clean.to_dict()
        assert executor.retried == 1
        assert executor.failures == []

    def test_serial_fatal_injection_is_isolated(self):
        # raise_rate=1.0 injects a (non-retryable) ChaosError into every
        # first attempt; the wave must finish with structured failures,
        # not propagate the exception.
        chaos = ChaosPlan(seed=0, raise_rate=1.0)
        executor = Executor(jobs=1, retry=retry_free(), chaos=chaos)
        wave = ListReducer()
        failures = executor.run_wave([spec(), spec("lbm")], wave)
        assert wave.by_key == {}
        assert failures
        assert [f.error_type for f in failures] == [
            "ChaosError", "ChaosError",
        ]
        assert all(f.attempts == 1 for f in failures)  # never retried
        assert executor.retried == 0

    def test_strict_view_raises_sweep_failure(self):
        chaos = ChaosPlan(seed=0, raise_rate=1.0)
        executor = Executor(jobs=1, chaos=chaos)
        with pytest.raises(SweepFailure) as excinfo:
            run_strict(executor, [spec()])
        assert excinfo.value.failures[0].error_type == "ChaosError"

    def test_fail_fast_aborts_the_wave(self):
        chaos = ChaosPlan(seed=0, raise_rate=1.0)
        executor = Executor(jobs=1, chaos=chaos, fail_fast=True)
        with pytest.raises(SweepFailure):
            executor.run_wave([spec(), spec("lbm")], ListReducer())
        assert len(executor.failures) == 1  # aborted before the second

    def test_retry_budget_exhaustion_records_attempts(self):
        # Kills injected on every attempt: even a retryable fault fails
        # once the budget runs out, and the record counts the attempts.
        chaos = ChaosPlan(seed=0, kill_rate=1.0, inject_attempts=99)
        executor = Executor(jobs=1, retry=retry_free(), chaos=chaos)
        wave = ListReducer()
        [failure] = executor.run_wave([spec()], wave)
        assert wave.by_key == {}
        assert failure.error_type == "ChaosKilledError"
        assert failure.attempts == 2
        assert failure.retryable is True

    def test_pool_worker_death_recovers_and_matches_serial(self):
        chaos = ChaosPlan(seed=0, kill_rate=1.0)
        specs = [spec(), spec("lbm"), spec("mcf")]
        clean = run_strict(Executor(jobs=1), specs)
        executor = Executor(
            jobs=2, retry=RetryPolicy(retries=3, backoff_base=0.0),
            chaos=chaos,
        )
        survived = run_strict(executor, specs)
        assert [r.to_dict() for r in survived] == [
            r.to_dict() for r in clean
        ]
        assert executor.retried >= 3  # every spec's first attempt died

    def test_pool_timeout_expires_and_fails_without_retries(self):
        chaos = ChaosPlan(seed=0, stall_rate=1.0, stall_seconds=30.0)
        executor = Executor(
            jobs=2, run_timeout=0.5, retry=RetryPolicy(retries=0),
            chaos=chaos,
        )
        wave = ListReducer()
        failures = executor.run_wave([spec(), spec("lbm")], wave)
        assert wave.by_key == {}
        assert {f.error_type for f in failures} == {"SpecTimeoutError"}
        assert all(f.retryable for f in failures)

    def test_pool_timeout_recovers_on_retry(self):
        chaos = ChaosPlan(seed=0, stall_rate=1.0, stall_seconds=30.0)
        [clean] = run_strict(Executor(jobs=1), [spec()])
        executor = Executor(
            jobs=2, run_timeout=0.5, retry=retry_free(), chaos=chaos
        )
        results = run_strict(executor, [spec(), spec("lbm")])
        assert results[0].to_dict() == clean.to_dict()
        assert executor.retried >= 2

    def test_wave_journals_submissions_and_outcomes(self, tmp_path):
        chaos = ChaosPlan(seed=0, raise_rate=1.0)
        journal = RunJournal.beside(tmp_path)
        cache = ResultCache(tmp_path)
        executor = Executor(
            jobs=1, cache=cache, journal=journal, chaos=chaos,
            retry=retry_free(),
        )
        good = spec()
        executor.chaos = None
        run_strict(executor, [good])
        bad = spec("lbm")
        executor.chaos = chaos
        assert executor.run_wave([bad], ListReducer())
        state = journal.replay()
        assert state.completed == {good.cache_key()}
        assert set(state.failed) == {bad.cache_key()}
        # A resumed executor sees the completed key as a cache hit and
        # re-attempts the failed one (no chaos now): the journal's failed
        # set drains to empty.
        resumed = Executor(jobs=1, cache=cache, journal=journal)
        results = run_strict(resumed, [good, bad])
        assert resumed.executed == 1  # only the failed key re-simulated
        [again] = run_strict(executor, [good])
        assert results[0].to_dict() == again.to_dict()
        assert journal.replay().failed == {}
