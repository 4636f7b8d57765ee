"""Per-program MDM statistics: Table 6 counters and Eqs. (5)-(7).

For every ST-entry eviction from the STC, each block with a non-zero access
count contributes one *transition* from its QAC value at insertion (q_I) to
the quantized value of its new count (q_E).  From these the predictor
maintains::

    avg_cnt(q_E)  = accum_cnt(q_E) / num_q_sum_I(q_E)                  (6)
    P(q_E | q_I)  = (num_q(q_I, q_E) + 1) / (num_q_sum_E(q_I) + |q_E|) (7)
    exp_cnt(q_I)  = sum over q_E of avg_cnt(q_E) * P(q_E | q_I)        (5)

Updates happen in phases (Section 4.1): an *observation* phase (counters
accumulate, no recomputation) of ``phase_updates`` updates is followed by
an *estimation* phase of the same length during which exp_cnt is
recomputed every ``recompute_updates`` updates.  Counters reset at the
start of each observation phase; the registered exp_cnt values persist
between recomputations, so predictions are always available.

Before any data exists, exp_cnt falls back to a uniform prior over the
bucket midpoints — a cold-start choice documented in DESIGN.md (the paper
does not specify initial register values).
"""

from __future__ import annotations

from enum import Enum

from repro.common.config import MDMConfig
from repro.core.qac import bucket_midpoint
from repro.common.errors import InvalidValueError


class Phase(Enum):
    """MDM statistics phase (Section 3.2.2)."""

    OBSERVATION = "observation"
    ESTIMATION = "estimation"


_OBSERVATION = Phase.OBSERVATION


class MDMProgramStats:
    """One program's transition statistics and expected-count registers."""

    __slots__ = (
        "_phase_updates",
        "_recompute_updates",
        "num_qi",
        "num_qe",
        "accum_cnt",
        "num_q_sum_i",
        "num_q",
        "num_q_sum_e",
        "exp_cnt",
        "phase",
        "_updates_in_phase",
        "_updates_since_recompute",
        "total_updates",
        "recomputations",
    )

    def __init__(self, config: MDMConfig) -> None:
        # Read on every update, so kept as plain attributes.
        self._phase_updates = config.phase_updates
        self._recompute_updates = config.recompute_updates
        num_qi = config.num_qac_values  # 4: q_I in {0, 1, 2, 3}
        num_qe = num_qi - 1  # 3: q_E in {1, 2, 3}; q_E = 0 is invalid
        self.num_qi = num_qi
        self.num_qe = num_qe
        # Table 6 counters.
        self.accum_cnt = [0.0] * (num_qe + 1)  # index by q_E (1..)
        self.num_q_sum_i = [0] * (num_qe + 1)
        self.num_q = [[0] * (num_qe + 1) for _ in range(num_qi)]
        self.num_q_sum_e = [0] * num_qi
        # Registered predictions (persist between recomputations).
        prior = sum(
            bucket_midpoint(q, config.qac_boundaries)
            for q in range(1, num_qe + 1)
        ) / num_qe
        self.exp_cnt = [prior] * num_qi
        # Phase machinery.
        self.phase = Phase.OBSERVATION
        self._updates_in_phase = 0
        self._updates_since_recompute = 0
        self.total_updates = 0
        self.recomputations = 0

    # ------------------------------------------------------------------
    def record_transition(self, q_i: int, q_e: int, count: int) -> None:
        """Absorb one block's (q_I -> q_E, count) at ST-entry eviction.

        ``q_e`` must be >= 1 (blocks with a zero count do not update their
        QAC value and generate no transition).
        """
        if not 1 <= q_e <= self.num_qe:
            raise InvalidValueError(f"invalid q_E {q_e}")
        if not 0 <= q_i < self.num_qi:
            raise InvalidValueError(f"invalid q_I {q_i}")
        self.accum_cnt[q_e] += count
        self.num_q_sum_i[q_e] += 1
        self.num_q[q_i][q_e] += 1
        self.num_q_sum_e[q_i] += 1
        self.total_updates += 1
        # Advance the phase machine (Section 4.1).
        in_phase = self._updates_in_phase + 1
        if self.phase is _OBSERVATION:
            if in_phase >= self._phase_updates:
                self.phase = Phase.ESTIMATION
                in_phase = 0
                self._updates_since_recompute = 0
                self.recompute()
        else:
            since = self._updates_since_recompute + 1
            if since >= self._recompute_updates:
                since = 0
                self.recompute()
            self._updates_since_recompute = since
            if in_phase >= self._phase_updates:
                self._reset_counters()
                self.phase = _OBSERVATION
                in_phase = 0
        self._updates_in_phase = in_phase

    def _reset_counters(self) -> None:
        """Reset Table 6 counters (start of each observation phase)."""
        for q_e in range(self.num_qe + 1):
            self.accum_cnt[q_e] = 0.0
            self.num_q_sum_i[q_e] = 0
        for q_i in range(self.num_qi):
            self.num_q_sum_e[q_i] = 0
            for q_e in range(self.num_qe + 1):
                self.num_q[q_i][q_e] = 0

    # ------------------------------------------------------------------
    def avg_cnt(self, q_e: int) -> float:
        """Eq. (6); 0 when no transition into q_E has been seen."""
        seen = self.num_q_sum_i[q_e]
        if seen == 0:
            return 0.0
        return self.accum_cnt[q_e] / seen

    def transition_probability(self, q_i: int, q_e: int) -> float:
        """Eq. (7) with Laplace smoothing."""
        return (self.num_q[q_i][q_e] + 1) / (
            self.num_q_sum_e[q_i] + self.num_qe
        )

    def recompute(self) -> None:
        """Eq. (5): refresh the exp_cnt registers from current counters.

        Registers only change for q_I values with data-bearing predictions:
        if no transition at all has been recorded since the last counter
        reset, the previous registers (or the cold-start prior) persist.
        """
        self.recomputations += 1
        if sum(self.num_q_sum_i[1:]) == 0:
            return
        for q_i in range(self.num_qi):
            expected = 0.0
            for q_e in range(1, self.num_qe + 1):
                expected += self.avg_cnt(q_e) * self.transition_probability(
                    q_i, q_e
                )
            self.exp_cnt[q_i] = expected

    def expected(self, q_i: int) -> float:
        """Registered expected access count for a block inserted with q_I."""
        return self.exp_cnt[q_i]
