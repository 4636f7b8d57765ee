"""Streaming wave aggregation: fold results as completions land.

Every ``Executor.run_wave(specs, reducer)`` streams: the reducer sees
each unique spec's result exactly once — in *completion* order, which
parallel execution does not control — and holds whatever the wave keeps;
the executor retains nothing.  The contract every reducer must
honour (and the property suite enforces for the figure accumulators) is
**order independence**: folding any permutation of the same completions,
with any interleaving of failures, must produce the same final state as
materializing the wave and reducing it afterwards.

Two building blocks live here:

* :class:`ListReducer` — the materializing reference: collects results
  into a dict keyed by cache key.  ``ExperimentRunner.run_specs`` runs
  the single-program figures' memoizing waves through it, and tests
  compare any streaming accumulator against it.
* :class:`GroupReducer` — refcounted grouping for figure drivers.  A
  figure cell (one workload × policy) needs a small *set* of results
  (the mix run plus each program's stand-alone reference) before it can
  compute metrics; the reducer holds a completed result only while some
  unfinished group still needs it, releases it with the last group, and
  fires ``group_completed``/``group_failed`` hooks the moment a group
  resolves.  Peak parent memory is bounded by the widest in-progress
  group frontier, not the wave.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.common.errors import InvalidValueError
from repro.exec.resilience import RunFailure, SweepFailure
from repro.exec.spec import RunSpec
from repro.sim.results import SimulationResult


class WaveReducer(Protocol):
    """What :meth:`Executor.run_wave` needs from a reducer."""

    def fold(
        self, key: str, spec: RunSpec, result: SimulationResult
    ) -> None:
        """Absorb one unique spec's result (called exactly once per key,
        in completion order — cache hits included)."""

    def fold_failure(self, failure: RunFailure) -> None:
        """Absorb one spec's terminal failure (attempts exhausted)."""


class ListReducer:
    """The materializing reference reducer: keeps everything.

    ``by_key`` holds each folded result under its cache key and
    ``failures`` each failed run once; tests state the streaming
    contract as ``stream(X) == reduce(materialize(X))`` with it.
    """

    def __init__(self) -> None:
        self.by_key: dict[str, SimulationResult] = {}
        self.failures: list[RunFailure] = []

    def fold(
        self, key: str, spec: RunSpec, result: SimulationResult
    ) -> None:
        self.by_key[key] = result

    def fold_failure(self, failure: RunFailure) -> None:
        self.failures.append(failure)

    def raise_on_failure(self) -> dict[str, SimulationResult]:
        """The strict view: every result by cache key, or
        :class:`SweepFailure` naming each failed run once."""
        if self.failures:
            raise SweepFailure(self.failures)
        return self.by_key


class GroupReducer:
    """Folds a wave into named groups, releasing results eagerly.

    Usage: declare each group's required keys up front with
    :meth:`add_group` (a key may belong to many groups — stand-alone
    reference runs usually do), then hand the reducer to ``run_wave``.
    When the last key of a group lands, :meth:`group_completed` fires
    with that group's results and every result no other unfinished group
    needs is dropped.  When any key of a group *fails*,
    :meth:`group_failed` fires once and the group's remaining interest
    is released immediately.

    Subclasses override the two hooks; both must be order-independent
    (the group id and its results dict fully determine the outcome).
    """

    def __init__(self) -> None:
        #: group id -> keys still missing.
        self._waiting: dict[str, set[str]] = {}
        #: group id -> all keys the group declared.
        self._members: dict[str, tuple[str, ...]] = {}
        #: key -> ids of unfinished groups that still need it.
        self._interest: dict[str, set[str]] = {}
        #: completed results currently held for unfinished groups.
        self._held: dict[str, SimulationResult] = {}
        #: keys that already failed terminally (poison future groups).
        self._failed_keys: dict[str, RunFailure] = {}
        self.completed_groups: list[str] = []
        self.failed_groups: dict[str, RunFailure] = {}

    # ------------------------------------------------------------------
    def add_group(self, group_id: str, keys: list[str]) -> None:
        """Declare one group and the result keys it needs.

        Safe to call before or during the wave (a figure driver declares
        everything up front).  Keys that already landed count as present
        immediately; keys that already failed poison the group at once.
        """
        if group_id in self._members:
            raise InvalidValueError(f"group {group_id!r} declared twice")
        unique = tuple(dict.fromkeys(keys))
        self._members[group_id] = unique
        poisoned: Optional[RunFailure] = None
        for key in unique:
            if key in self._failed_keys and poisoned is None:
                poisoned = self._failed_keys[key]
        if poisoned is not None:
            self.failed_groups[group_id] = poisoned
            self.group_failed(group_id, poisoned)
            return
        missing = {key for key in unique if key not in self._held}
        for key in unique:
            self._interest.setdefault(key, set()).add(group_id)
        if missing:
            self._waiting[group_id] = missing
        else:
            self._resolve(group_id)

    @property
    def held_count(self) -> int:
        """Results currently retained (the memory frontier; tests pin
        that this stays far below the wave size)."""
        return len(self._held)

    # ------------------------------------------------------------------
    # WaveReducer interface
    # ------------------------------------------------------------------
    def fold(
        self, key: str, spec: RunSpec, result: SimulationResult
    ) -> None:
        if key not in self._interest:
            return  # no declared group needs this key
        self._held[key] = result
        for group_id in list(self._interest.get(key, ())):
            missing = self._waiting.get(group_id)
            if missing is None:
                continue
            missing.discard(key)
            if not missing:
                del self._waiting[group_id]
                self._resolve(group_id)

    def fold_failure(self, failure: RunFailure) -> None:
        key = failure.key
        self._failed_keys[key] = failure
        for group_id in list(self._interest.get(key, ())):
            if group_id in self.failed_groups:
                continue
            self._waiting.pop(group_id, None)
            self.failed_groups[group_id] = failure
            self._release(group_id)
            self.group_failed(group_id, failure)

    # ------------------------------------------------------------------
    def _resolve(self, group_id: str) -> None:
        results = {key: self._held[key] for key in self._members[group_id]}
        self.completed_groups.append(group_id)
        self._release(group_id)
        self.group_completed(group_id, results)

    def _release(self, group_id: str) -> None:
        """Drop this group's interest; free results nobody else needs."""
        for key in self._members[group_id]:
            owners = self._interest.get(key)
            if owners is None:
                continue
            owners.discard(group_id)
            if not owners:
                del self._interest[key]
                self._held.pop(key, None)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def group_completed(
        self, group_id: str, results: dict[str, SimulationResult]
    ) -> None:
        """All of ``group_id``'s keys landed; ``results`` maps each
        declared key to its result.  Override to compute metrics."""

    def group_failed(self, group_id: str, failure: RunFailure) -> None:
        """Some key the group needs failed terminally; fires once per
        group.  Override to record FAILED rows."""
