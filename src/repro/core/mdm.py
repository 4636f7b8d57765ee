"""The probabilistic Migration-Decision Mechanism (Section 3.2.3).

Upon an access to a block in M2, MDM predicts the block's *remaining*
accesses::

    rem_cnt = exp_cnt(q_I) - curr_cnt                         (8)

and promotes only when the predicted benefit clears ``min_benefit`` (the
swap cost in accesses, = PoM's K = 8 for this technology pair):

a) the M1 location is vacant and ``rem_cnt_M2 >= min_benefit``; or
b) the M1 resident has not been accessed this STC residency while some
   other block in the group has; or
c) the M1 resident has been accessed and either (c.i) its own predicted
   remaining count is <= 0, or (c.ii) ``rem_cnt_M2 - rem_cnt_M1 >=
   min_benefit``.

Statistics updates happen at ST-entry evictions from the STC, per block
with a non-zero access count (see :mod:`repro.core.mdm_stats`); the new
quantized count is written back to the ST entry as the block's next q_I.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SystemConfig
from repro.common.errors import InvalidValueError
from repro.cache.stc import STCEntry
from repro.core.mdm_stats import MDMProgramStats
from repro.core.qac import quantize_access_count
from repro.hybrid.st_entry import STEntry
from repro.policies.base import AccessContext, MigrationPolicy
from repro.policies.registry import register_policy


@register_policy("mdm")
class MDMPolicy(MigrationPolicy):
    """Individual cost-benefit migration decisions via predicted accesses."""

    name = "mdm"

    #: Cap on retained (predicted, actual) pairs when recording.
    PREDICTION_LOG_LIMIT = 200_000

    def __init__(
        self, config: SystemConfig, record_predictions: bool = False
    ) -> None:
        super().__init__(config)
        self.write_weight = config.write_access_weight
        self._mdm = config.mdm
        self._stats: dict[int, MDMProgramStats] = {}
        # QAC value (Table 5) of every count up to the counter ceiling
        # and the top boundary, so an eviction indexes instead of
        # searching the boundaries; larger counts share the top bucket.
        top = max(self._mdm.access_counter_max, self._mdm.qac_boundaries[-1])
        self._qac_of = [
            quantize_access_count(count, self._mdm.qac_boundaries)
            for count in range(top + 1)
        ]
        self.decisions = 0
        self.promotions = 0
        #: Optional predictor-calibration instrumentation: at the first
        #: decision of each block residency, remember the predicted
        #: remaining (weighted) accesses; at ST-entry eviction pair it
        #: with what actually arrived.  Fuel for the
        #: ``ext-prediction-accuracy`` analysis.
        self.record_predictions = record_predictions
        #: (group, slot) -> (predicted_remaining, count_at_decision)
        self._open_predictions: dict[tuple[int, int], tuple[float, int]] = {}
        #: Completed (predicted, actual) pairs.
        self.prediction_log: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    def stats_for(self, program: int) -> MDMProgramStats:
        """Per-program statistics (created on first touch)."""
        stats = self._stats.get(program)
        if stats is None:
            stats = MDMProgramStats(self._mdm)
            self._stats[program] = stats
        return stats

    def remaining_count(
        self, program: int, q_at_insert: int, current_count: int
    ) -> float:
        """Eq. (8): predicted remaining accesses for one block."""
        return self.stats_for(program).expected(q_at_insert) - current_count

    # ------------------------------------------------------------------
    def on_access(self, ctx: AccessContext) -> Optional[int]:
        if ctx.location == 0:  # ctx.in_m1, sans the property call
            return None
        self.decisions += 1
        if self._decide_m2(ctx, m1_vacant=ctx.m1_owner is None):
            self.promotions += 1
            return ctx.slot
        return None

    def _decide_m2(self, ctx: AccessContext, m1_vacant: bool) -> bool:
        """The Section 3.2.3 decision tree for an M2 access."""
        q_i2 = ctx.stc_entry.qac_at_insert[ctx.slot]
        count_now = ctx.stc_entry.count(ctx.slot)
        rem_m2 = self.remaining_count(ctx.owner, q_i2, count_now)
        if self.record_predictions:
            key = (ctx.group, ctx.slot)
            if key not in self._open_predictions:
                self._open_predictions[key] = (rem_m2, count_now)
        min_benefit = self._mdm.min_benefit
        if rem_m2 < min_benefit:
            return False  # top-level condition: no benefit to promote
        if m1_vacant:
            return True  # case (a)
        m1_slot = ctx.m1_slot
        m1_count = ctx.stc_entry.count(m1_slot)
        if m1_count == 0:
            # Case (b): the resident is idle while the group is active.
            return ctx.stc_entry.any_other_accessed(m1_slot)
        q_i1 = ctx.stc_entry.qac_at_insert[m1_slot]
        rem_m1 = self.remaining_count(ctx.m1_owner, q_i1, m1_count)
        if rem_m1 <= 0:
            return True  # case (c.i)
        return rem_m2 - rem_m1 >= min_benefit  # case (c.ii)

    # ------------------------------------------------------------------
    def on_st_eviction(self, stc_entry: STCEntry, st_entry: STEntry) -> None:
        """Update Table 6 statistics and write back QAC values (Sec. 3.2.1)."""
        controller = self._controller
        group = stc_entry.group
        qac_of = self._qac_of
        top = len(qac_of) - 1
        if self.record_predictions:
            self._close_predictions(stc_entry)
        for slot, count in enumerate(stc_entry.counters):
            if not count:
                continue  # QAC not updated for untouched blocks
            if count < 0:
                raise InvalidValueError(f"negative access count {count}")
            q_e = qac_of[count] if count <= top else qac_of[top]
            if q_e == 0:
                # Possible only with ablated boundaries whose first bucket
                # starts above 1: a barely-touched block stays "unseen".
                continue
            owner = None
            if controller is not None:
                owner = controller.owner_of_slot(group, slot)
            if owner is not None:
                self.stats_for(owner).record_transition(
                    stc_entry.qac_at_insert[slot], q_e, count
                )
            st_entry.qac[slot] = q_e

    def _close_predictions(self, stc_entry: STCEntry) -> None:
        """Resolve open prediction records for an evicted entry's blocks."""
        group = stc_entry.group
        for slot in range(len(stc_entry.counters)):
            record = self._open_predictions.pop((group, slot), None)
            if record is None:
                continue
            predicted, count_at_decision = record
            actual = stc_entry.counters[slot] - count_at_decision
            if len(self.prediction_log) < self.PREDICTION_LOG_LIMIT:
                self.prediction_log.append((predicted, float(actual)))
