"""RSM guidance wrapped around a non-MDM migration algorithm.

Section 6 of the paper notes that "the proposed RSM can be integrated
with other migration algorithms instead of MDM, since it merely guides
migration decisions."  This module implements that claim for the PoM
baseline: the Table 7 cases are applied on top of PoM's competing-counter
decision —

* **Case 1** (help the M2 block's program): decide as if the competing
  counter had already reached the lowest candidate threshold, i.e.
  promote on this access provided swaps are not globally prohibited;
* **Case 2 / Case 3** (protect the M1 resident): veto the swap;
* otherwise PoM decides unmodified.

This is an *extension experiment*, not a paper artifact: it quantifies
how much of ProFess's fairness gain comes from RSM guidance alone versus
from MDM's cost-benefit analysis (``profess run ext-rsm-pom``).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SystemConfig
from repro.core.rsm import TABLE7_CASES, table7_classifier
from repro.policies.base import AccessContext
from repro.policies.pom import PoMPolicy
from repro.policies.registry import register_policy


@register_policy("rsm-pom", base="pom", guidance=True)
class RSMGuidedPoMPolicy(PoMPolicy):
    """PoM with Table 7 fairness guidance."""

    name = "rsm-pom"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self._table7 = table7_classifier(config.profess)
        self.case_counts = dict.fromkeys(TABLE7_CASES, 0)

    def on_access(self, ctx: AccessContext) -> Optional[int]:
        decision = super().on_access(ctx)
        if ctx.in_m1:
            return decision
        controller = self._controller
        case = self._table7(
            controller.rsm if controller is not None else None,
            ctx.m1_owner,
            ctx.owner,
        )
        self.case_counts[case] += 1
        if case == 1:
            # Aggressive help: promote now unless swaps are prohibited.
            return ctx.slot if self.threshold is not None else decision
        if case == 2 or case == 3:
            return None  # protect the M1 resident
        return decision
