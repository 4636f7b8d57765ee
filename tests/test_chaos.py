"""Chaos acceptance suite: injected faults never corrupt a sweep.

Two end-to-end scenarios against a parallel (``jobs=4``) sweep of eight
single-core specs, both asserting byte-identity (via
:func:`repro.sim.golden.result_digest`) against a clean serial run:

* **fatal + resume** — seeded mid-simulation raises plus truncated cache
  writes: the wave reports exactly the injected failures, a resumed run
  quarantines each corrupt entry exactly once, re-attempts only the
  failures, and converges to the clean results.
* **transient recovery** — seeded worker kills and stalls: retries and
  worker replacement absorb every fault and the wave completes with
  results identical to serial.

The fault schedules are discovered by seed search over the plan space,
so the suite keeps its coverage even when spec keys change.
"""

import pytest

from repro.common.config import paper_single_core
from repro.exec import (
    Executor,
    ListReducer,
    ResultCache,
    RetryPolicy,
    RunJournal,
    RunSpec,
    TruncatingResultCache,
)
from repro.exec.chaos import ACTION_RAISE, ChaosPlan
from repro.sim.golden import result_digest

SCALE = 128
CONFIG = paper_single_core(scale=SCALE)
PROGRAMS = ("zeusmp", "lbm", "mcf", "libquantum")
POLICIES = ("pom", "mdm")


def all_specs() -> list[RunSpec]:
    return [
        RunSpec(
            kind="single",
            programs=(program,),
            policy=policy,
            config=CONFIG,
            requests=500,
            seed=0,
            trace_scale=SCALE,
        )
        for program in PROGRAMS
        for policy in POLICIES
    ]


def find_raise_plan(keys: list[str]) -> ChaosPlan:
    """A seeded plan injecting fatal raises into some (not all) keys."""
    for seed in range(500):
        plan = ChaosPlan(seed=seed, raise_rate=0.25)
        victims = plan.victims(keys)
        if victims and len(victims) < len(keys):
            return plan
    raise AssertionError("no seed yields a proper subset of raise victims")


def find_transient_plan(keys: list[str]) -> ChaosPlan:
    """A seeded plan with at least one kill and one stall victim."""
    for seed in range(500):
        plan = ChaosPlan(
            seed=seed, kill_rate=0.25, stall_rate=0.25, stall_seconds=30.0
        )
        kinds = set(plan.victims(keys).values())
        if {"kill", "stall"} <= kinds:
            return plan
    raise AssertionError("no seed yields both kill and stall victims")


def find_truncating_cache(
    directory, keys: list[str], completing: set[str]
) -> TruncatingResultCache:
    """A cache whose corrupted first writes hit >= 1 completing key."""
    for seed in range(500):
        cache = TruncatingResultCache(directory, seed=seed, truncate_rate=0.3)
        victims = set(cache.truncate_victims(keys))
        if victims & completing and len(victims) < len(keys):
            return cache
    raise AssertionError("no seed truncates a completing key")


def strict_digests(executor: Executor, specs: list[RunSpec]) -> dict:
    """cache key -> result digest of one wave folded through the
    materializing reducer; raises SweepFailure if any spec failed."""
    wave = ListReducer()
    executor.run_wave(specs, wave)
    return {
        key: result_digest(result)
        for key, result in wave.raise_on_failure().items()
    }


@pytest.fixture(scope="module")
def clean_digests():
    """Digest of every spec's result from an uninjected serial run."""
    return strict_digests(Executor(jobs=1), all_specs())


class TestFatalInjectionAndResume:
    def test_failures_resume_and_quarantine(self, tmp_path, clean_digests):
        specs = all_specs()
        keys = [spec.cache_key() for spec in specs]
        plan = find_raise_plan(keys)
        raise_keys = set(plan.victims(keys))
        assert all(
            action == ACTION_RAISE for action in plan.victims(keys).values()
        )
        cache_dir = tmp_path / "cache"
        cache = find_truncating_cache(
            cache_dir, keys, set(keys) - raise_keys
        )
        truncated = set(cache.truncate_victims(keys)) - raise_keys
        journal = RunJournal.beside(cache_dir)

        # --- the injected sweep: fatal raises + corrupted cache writes.
        # No kills are injected, so every first attempt really executes:
        # the failure set is exactly the plan's raise victims.
        executor = Executor(
            jobs=4,
            cache=cache,
            retry=RetryPolicy(retries=1, backoff_base=0.0),
            journal=journal,
            chaos=plan,
        )
        wave = ListReducer()
        failures = executor.run_wave(specs, wave)
        assert wave.failures == failures
        assert {f.key for f in failures} == raise_keys
        assert all(f.error_type == "ChaosError" for f in failures)
        assert all(not f.retryable for f in failures)
        assert all(f.attempts == 1 for f in failures)  # never retried
        for spec in specs:
            result = wave.by_key.get(spec.cache_key())
            if spec.cache_key() in raise_keys:
                assert result is None
            else:
                assert result_digest(result) == clean_digests[spec.cache_key()]

        # --- the journal knows what is done and what failed.
        state = journal.replay()
        assert state.completed == set(keys) - raise_keys
        assert set(state.failed) == raise_keys
        assert state.pending() == set()

        # --- resume: a fresh executor over the same cache directory.
        # Completed keys come from disk — except the truncated entries,
        # which quarantine (exactly once) and re-simulate; failed keys
        # re-attempt cleanly (chaos injected attempt 1 only, and the
        # resume is a fresh run without chaos).
        resume_cache = ResultCache(cache_dir)
        resumed = Executor(jobs=4, cache=resume_cache, journal=journal)
        assert strict_digests(resumed, specs) == clean_digests
        assert resume_cache.quarantined == len(truncated)
        assert resume_cache.quarantine_count() == len(truncated)
        assert resumed.executed == len(raise_keys) + len(truncated)
        assert journal.replay().failed == {}

        # --- a warm rerun is pure cache traffic: nothing re-simulates,
        # nothing new quarantines (corrupt entries cost one quarantine).
        warm_cache = ResultCache(cache_dir)
        warm = Executor(jobs=4, cache=warm_cache, journal=journal)
        again = strict_digests(warm, specs)
        assert warm.executed == 0
        assert warm_cache.quarantined == 0
        assert warm_cache.quarantine_count() == len(truncated)
        assert again == clean_digests


class TestTransientRecovery:
    def test_kills_and_stalls_recover_byte_identically(
        self, clean_digests
    ):
        specs = all_specs()
        keys = [spec.cache_key() for spec in specs]
        plan = find_transient_plan(keys)
        executor = Executor(
            jobs=4,
            retry=RetryPolicy(retries=3, backoff_base=0.0),
            run_timeout=1.0,
            chaos=plan,
        )
        digests = strict_digests(executor, specs)  # raises on failure
        assert executor.failures == []
        assert executor.retried >= 1  # at least one fault was absorbed
        assert digests == clean_digests
