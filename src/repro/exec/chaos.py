"""Deterministic fault injection for the execution subsystem.

The chaos harness makes the Executor's degradation paths *testable*: a
seeded :class:`ChaosPlan` decides — purely from SHA-256 of (seed, spec
key, attempt) — whether a given attempt is killed (worker ``os._exit``),
raised out of (a :class:`ChaosError` mid-"simulation"), or stalled past
its wall-clock budget.  The decisions are identical in every process and
on every rerun, so the chaos suite (``tests/test_chaos.py``) can assert
exact recovery behaviour: which specs fail, how many attempts each took,
and that the salvaged sweep is byte-identical to a clean serial run.

Cache-write faults are injected separately by
:class:`TruncatingResultCache`, which truncates the serialized payload
of selected keys exactly once — simulating a process killed mid-write —
so the quarantine path of :class:`~repro.exec.cache.ResultCache` can be
exercised deterministically.

Injection defaults to the *first* attempt of each spec only, so a
retried attempt deterministically succeeds; raise the
``inject_attempts`` bound to model persistent faults instead.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.common.errors import InvalidValueError, ReproError
from repro.exec.cache import ResultCache
from repro.exec.spec import RunSpec
from repro.sim.results import SimulationResult

#: Injection kinds, in the priority order ties are broken in.
ACTION_KILL = "kill"
ACTION_RAISE = "raise"
ACTION_STALL = "stall"

#: Frame-transport injection kinds (shm transport only): applied at
#: frame-*write* time, after the simulation itself succeeded.
ACTION_FRAME_KILL = "frame-kill"
ACTION_FRAME_CORRUPT = "frame-corrupt"


class ChaosError(ReproError):
    """The injected mid-simulation failure.

    Deliberately *not* retryable (it models a deterministic simulation
    bug), so it exercises the fatal-failure path: the spec must land in
    the wave's :class:`~repro.exec.resilience.RunFailure` list and be
    re-attempted only by a rerun over the same cache directory.
    """


class ChaosKilledError(ReproError, OSError):
    """Stand-in for a worker kill on the in-process serial path.

    ``os._exit`` in serial mode would take the driving process down with
    it, so serial execution degrades a kill injection to this exception;
    deriving from :class:`OSError` keeps it in the retryable class, like
    the real :class:`BrokenProcessPool` it models.
    """


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """Seeded, stateless fault-injection schedule.

    Rates are independent probabilities evaluated per (key, attempt) from
    a hash — no RNG state, no ordering sensitivity.  A spec draws one
    action at most, with kills taking precedence over raises over stalls.
    """

    seed: int = 0
    #: Probability a worker is killed outright (``os._exit``).
    kill_rate: float = 0.0
    #: Probability a :class:`ChaosError` is raised mid-simulation.
    raise_rate: float = 0.0
    #: Probability the spec stalls (sleeps) past its wall-clock budget.
    stall_rate: float = 0.0
    #: How long a stalled spec sleeps before giving up on being killed.
    stall_seconds: float = 30.0
    #: Probability a worker dies *mid-frame-write* (shm transport): the
    #: simulation succeeds, a partial frame lands on disk, and the
    #: process exits before its handle crosses the pipe.
    frame_kill_rate: float = 0.0
    #: Probability a frame's payload is silently truncated on write (shm
    #: transport): the handle arrives intact but the parent's digest
    #: check must reject the bytes it points at.
    frame_corrupt_rate: float = 0.0
    #: Attempts eligible for injection (1 = first attempt only, so every
    #: retry deterministically succeeds).
    inject_attempts: int = 1

    def __post_init__(self) -> None:
        rates = (
            self.kill_rate,
            self.raise_rate,
            self.stall_rate,
            self.frame_kill_rate,
            self.frame_corrupt_rate,
        )
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise InvalidValueError("chaos rates must be in [0, 1]")
        if self.inject_attempts < 0:
            raise InvalidValueError("inject_attempts must be >= 0")

    # ------------------------------------------------------------------
    def _fraction(self, key: str, attempt: int, kind: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}:{kind}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def action_for(self, key: str, attempt: int) -> Optional[str]:
        """The injected action for one attempt, or None (run clean)."""
        if attempt > self.inject_attempts:
            return None
        if self._fraction(key, attempt, ACTION_KILL) < self.kill_rate:
            return ACTION_KILL
        if self._fraction(key, attempt, ACTION_RAISE) < self.raise_rate:
            return ACTION_RAISE
        if self._fraction(key, attempt, ACTION_STALL) < self.stall_rate:
            return ACTION_STALL
        return None

    def frame_action_for(self, key: str, attempt: int) -> Optional[str]:
        """The frame-write fault for one attempt, or None (clean write).

        Evaluated by the shm transport after the simulation itself ran
        clean; kill takes precedence over corruption, mirroring
        :meth:`action_for`.
        """
        if attempt > self.inject_attempts:
            return None
        if (
            self._fraction(key, attempt, ACTION_FRAME_KILL)
            < self.frame_kill_rate
        ):
            return ACTION_FRAME_KILL
        if (
            self._fraction(key, attempt, ACTION_FRAME_CORRUPT)
            < self.frame_corrupt_rate
        ):
            return ACTION_FRAME_CORRUPT
        return None

    def victims(self, keys: list[str], attempt: int = 1) -> dict[str, str]:
        """key -> action for every key the plan will touch (test oracle)."""
        actions = {}
        for key in keys:
            action = self.action_for(key, attempt)
            if action is not None:
                actions[key] = action
        return actions

    def frame_victims(
        self, keys: list[str], attempt: int = 1
    ) -> dict[str, str]:
        """key -> frame fault the plan will inject (test oracle)."""
        actions = {}
        for key in keys:
            action = self.frame_action_for(key, attempt)
            if action is not None:
                actions[key] = action
        return actions


def apply_chaos(
    plan: ChaosPlan, key: str, attempt: int, in_worker: bool
) -> None:
    """Execute the plan's action for one attempt (no-op when clean).

    Called by the executor's task wrapper at the top of every attempt.
    ``in_worker`` distinguishes a pool worker (where a kill really is
    ``os._exit``) from the in-process serial path (where it degrades to
    :class:`ChaosKilledError` so the driver survives).
    """
    action = plan.action_for(key, attempt)
    if action is None:
        return
    if action == ACTION_KILL:
        if in_worker:
            os._exit(3)
        raise ChaosKilledError(
            f"chaos: injected worker kill for {key[:12]} attempt {attempt}"
        )
    if action == ACTION_RAISE:
        raise ChaosError(
            f"chaos: injected failure for {key[:12]} attempt {attempt}"
        )
    if action == ACTION_STALL:
        time.sleep(plan.stall_seconds)


class TruncatingResultCache(ResultCache):
    """A :class:`ResultCache` that corrupts selected writes exactly once.

    Keys for which ``sha256(seed:key:truncate)`` falls under
    ``truncate_rate`` have their *first* stored payload cut in half —
    the on-disk picture of a process killed between write and flush.
    Later stores of the same key write cleanly, so a resumed sweep can
    repopulate the entry after the corrupt one is quarantined.
    """

    def __init__(
        self,
        directory: str | Path,
        seed: int = 0,
        truncate_rate: float = 0.0,
    ) -> None:
        super().__init__(directory)
        self.seed = seed
        self.truncate_rate = truncate_rate
        self._truncated: set[str] = set()

    def _should_truncate(self, key: str) -> bool:
        digest = hashlib.sha256(
            f"{self.seed}:{key}:truncate".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < self.truncate_rate

    def truncate_victims(self, keys: list[str]) -> list[str]:
        """The keys whose first write this cache will corrupt."""
        return [key for key in keys if self._should_truncate(key)]

    def put(self, spec: RunSpec, result: SimulationResult) -> Path:
        key = spec.cache_key()
        path = super().put(spec, result)
        if self._should_truncate(key) and key not in self._truncated:
            self._truncated.add(key)
            try:
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
            except OSError:
                pass  # injection is best-effort; a clean write is fine too
        return path
