"""PoM migration algorithm: competing counters with an epoch-adaptive
global threshold (Table 2, Section 4.1) — the paper's baseline.

Mechanism
---------
Each swap group has one *competing counter* tracking the most active M2
block (a single-entry majority-element automaton): accesses to the
candidate increase the counter, accesses to other M2 blocks decrease it
(replacing the candidate when it reaches zero), and accesses to the M1
resident decrease it.  When the counter reaches the current global
threshold, the candidate is promoted.

Adaptation
----------
Each epoch, PoM estimates the benefit of every candidate threshold
{1, 6, 18, 48} on a sampled subset of swap groups: per sampled group and
threshold, a shadow automaton replays the accesses and accrues
``+weight`` for every access that would have been served from M1 after a
shadow promotion and ``-K`` for every shadow swap.  At the epoch boundary
the best-estimated threshold wins; if none is positive, swaps are
prohibited for the next epoch (Section 2.5).  Writes count as
``write_access_weight`` accesses (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.config import SystemConfig
from repro.policies.base import AccessContext, MigrationPolicy
from repro.policies.registry import register_policy

#: One in this many groups feeds the shadow threshold estimators.
SAMPLE_STRIDE = 16


@dataclass(slots=True)
class CompetingCounter:
    """Per-group majority-element automaton over M2 slots."""

    candidate: int = -1
    value: int = 0

    def observe_m2(self, slot: int, weight: int, maximum: int) -> None:
        """Account an access to an M2 block."""
        if self.candidate == slot:
            self.value = min(self.value + weight, maximum)
        else:
            self.value -= weight
            if self.value <= 0:
                self.candidate = slot
                self.value = min(weight, maximum)

    def observe_m1(self, weight: int) -> None:
        """Account an access to the group's M1 resident."""
        self.value = max(self.value - weight, 0)

    def reset(self) -> None:
        """Clear after a swap."""
        self.candidate = -1
        self.value = 0


@dataclass
class ShadowState:
    """Shadow automaton state for one (sampled group, threshold) pair."""

    counter: CompetingCounter = field(default_factory=CompetingCounter)
    #: Slot currently in shadow M1; -1 means "the real M1 resident".
    promoted_slot: int = -1


@register_policy("pom")
class PoMPolicy(MigrationPolicy):
    """Competing counters + epoch-adaptive global threshold."""

    name = "pom"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self.write_weight = config.write_access_weight
        self._pom = config.pom
        # Read once per request; attributes of their own spare the
        # ``_pom`` hop.
        self._counter_max = self._pom.counter_max
        self._epoch_requests = self._pom.epoch_requests
        self._counters: dict[int, CompetingCounter] = {}
        self._shadows: dict[int, list[ShadowState]] = {}
        self._benefits = [0.0] * len(self._pom.thresholds)
        # Smoothed per-threshold benefit: one epoch of shadow sampling is
        # noisy (it observes ~1/SAMPLE_STRIDE of the groups), so the
        # epoch decision uses an exponentially weighted average, which
        # keeps the global threshold from oscillating between "prohibit"
        # and "promote everything" on phase noise.
        self._smoothed_benefits = [0.0] * len(self._pom.thresholds)
        self.threshold: Optional[int] = self._pom.thresholds[0]
        self._requests_in_epoch = 0
        self.epochs = 0
        self.prohibited_epochs = 0
        self.threshold_history: list[Optional[int]] = []

    # ------------------------------------------------------------------
    def _shadows_for(self, group: int) -> list[ShadowState]:
        shadows = self._shadows.get(group)
        if shadows is None:
            shadows = [ShadowState() for _ in self._pom.thresholds]
            self._shadows[group] = shadows
        return shadows

    # ------------------------------------------------------------------
    def on_access(self, ctx: AccessContext) -> Optional[int]:
        weight = self.write_weight if ctx.is_write else 1
        group = ctx.group
        counter = self._counters.get(group)
        if counter is None:
            counter = self._counters[group] = CompetingCounter()
        decision: Optional[int] = None
        # The group's counter moves in place: the saturating arithmetic
        # of CompetingCounter.observe_m1/observe_m2, inlined.
        if ctx.location == 0:  # ctx.in_m1, sans the property call
            value = counter.value - weight
            counter.value = value if value > 0 else 0
        else:
            slot = ctx.slot
            if counter.candidate == slot:
                value = counter.value + weight
            else:
                value = counter.value - weight
                if value <= 0:
                    counter.candidate = slot
                    value = weight
            maximum = self._counter_max
            counter.value = value = value if value < maximum else maximum
            threshold = self.threshold
            if (
                threshold is not None
                and counter.candidate == slot
                and value >= threshold
            ):
                decision = slot
        if group % SAMPLE_STRIDE == 0:
            self._update_shadows(ctx, weight)
        self._requests_in_epoch += 1
        if self._requests_in_epoch >= self._epoch_requests:
            self._end_epoch()
        return decision

    def on_swap(self, group: int, promoted_slot: int, demoted_slot: int) -> None:
        # A group with no counter yet is already in the reset state.
        counter = self._counters.get(group)
        if counter is not None:
            counter.reset()

    # ------------------------------------------------------------------
    def _update_shadows(self, ctx: AccessContext, weight: int) -> None:
        """Replay the access in each threshold's shadow automaton."""
        k = self._pom.k
        slot = ctx.slot
        in_m1 = ctx.location == 0
        shadows = self._shadows_for(ctx.group)
        for index, threshold in enumerate(self._pom.thresholds):
            shadow = shadows[index]
            if slot == shadow.promoted_slot:
                # Would have been an M1 hit after the shadow promotion;
                # the real access was served from wherever it really is.
                if not in_m1:
                    self._benefits[index] += weight
                shadow.counter.observe_m1(weight)
                continue
            if in_m1 and shadow.promoted_slot == -1:
                shadow.counter.observe_m1(weight)
                continue
            # Either a real M2 access, or an access to the real M1
            # resident after a shadow promotion displaced it: both are M2
            # accesses in the shadow organization.
            if in_m1 and shadow.promoted_slot != -1:
                self._benefits[index] -= weight
            shadow.counter.observe_m2(slot, weight, self._pom.counter_max)
            if (
                shadow.counter.candidate == slot
                and shadow.counter.value >= threshold
            ):
                shadow.promoted_slot = slot
                shadow.counter.reset()
                self._benefits[index] -= k

    #: EWMA weight of the newest epoch's shadow benefit estimate.
    BENEFIT_ALPHA = 0.5

    def _end_epoch(self) -> None:
        """Pick next epoch's threshold (or prohibit) from shadow benefits."""
        self.epochs += 1
        self._requests_in_epoch = 0
        for index, benefit in enumerate(self._benefits):
            self._smoothed_benefits[index] += self.BENEFIT_ALPHA * (
                benefit - self._smoothed_benefits[index]
            )
        best_index = max(
            range(len(self._smoothed_benefits)),
            key=lambda i: self._smoothed_benefits[i],
        )
        if self._smoothed_benefits[best_index] > 0:
            self.threshold = self._pom.thresholds[best_index]
        else:
            self.threshold = None
            self.prohibited_epochs += 1
        self.threshold_history.append(self.threshold)
        self._benefits = [0.0] * len(self._pom.thresholds)
        self._shadows.clear()
