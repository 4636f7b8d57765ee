"""ProFess: MDM guided by RSM (Section 3.3, Table 7).

When the block in M1 and the accessed block in M2 belong to different
programs, the relative slowdown factors steer the decision; the case is
named by :func:`repro.core.rsm.table7_classifier`:

* **Case 1** — c_M2 suffers more by both factors: aggressive help — treat
  M1 as vacant and let MDM judge only the benefit of the promotion.
* **Case 2** — c_M1 suffers more by both factors: prohibit the swap.
* **Case 3** — SF_A says c_M2 suffers more but SF_B says c_M1 does, and
  the SF_A*SF_B products still favour c_M1: prohibit the swap.
* Otherwise plain MDM decides.

Until RSM has produced slowdown factors for both programs, plain MDM
applies.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SystemConfig
from repro.core.mdm import MDMPolicy
from repro.core.rsm import TABLE7_CASES, table7_classifier
from repro.policies.base import AccessContext
from repro.policies.registry import register_policy


@register_policy("profess", base="mdm", guidance=True)
class ProFessPolicy(MDMPolicy):
    """The integrated framework: probabilistic MDM + RSM fairness guidance."""

    name = "profess"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self._table7 = table7_classifier(config.profess)
        self.case_counts = dict.fromkeys(TABLE7_CASES, 0)

    def on_access(self, ctx: AccessContext) -> Optional[int]:
        if ctx.location == 0:  # ctx.in_m1, sans the property call
            return None
        self.decisions += 1
        controller = self._controller
        c_m1 = ctx.m1_owner
        case = self._table7(
            controller.rsm if controller is not None else None,
            c_m1,
            ctx.owner,
        )
        self.case_counts[case] += 1
        if case == 2 or case == 3:
            return None  # protect c_M1's block
        # Case 1 helps c_M2 as if it ran alone (M1 considered vacant);
        # MDM still judges whether the swap benefits at all.
        if self._decide_m2(ctx, m1_vacant=case == 1 or c_m1 is None):
            self.promotions += 1
            return ctx.slot
        return None
