"""Relative-Slowdown Monitor (Section 3.1).

Per program, RSM maintains the six counters of Table 3, updated on every
served request (private vs shared region, served from M1 or not) and every
swap in the shared regions.  At the end of each sampling period (``m_samp``
served requests for that program) the counters are exponentially smoothed
(alpha = 0.125, +1 bias to avoid zeros), the slowdown factors are
recomputed::

    SF_A = (M1_P / Total_P) / (M1_S / Total_S)      (2)
    SF_B = num_Swap_Total / num_Swap_Self           (3)

and the raw counters reset.  SF_A and SF_B only *rank* programs by how
much they suffer from M1 competition — they are not absolute slowdown
estimates (Section 3.1.2).  :func:`table7_classifier` turns that ranking
into Table 7's guidance case (Section 3.3); it is the one place the
cases are decided, for every RSM-guided policy.

For Table 4, RSM can optionally track per-region request counts, yielding
the sampling-accuracy estimates (sigma_req, sigma of raw and averaged
SF_A) the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.common.config import ProFessConfig, RSMConfig
from repro.common.smoothing import ExponentialSmoother
from repro.common.stats import stddev


@dataclass(slots=True)
class RSMCounters:
    """The per-program counter set of Table 3 (one sampling period)."""

    num_req_m1_p: int = 0
    num_req_total_p: int = 0
    num_req_m1_s: int = 0
    num_req_total_s: int = 0
    num_swap_self: int = 0
    num_swap_total: int = 0

    def as_tuple(self) -> tuple[int, ...]:
        """Counter values in Table 3 order."""
        return (
            self.num_req_m1_p,
            self.num_req_total_p,
            self.num_req_m1_s,
            self.num_req_total_s,
            self.num_swap_self,
            self.num_swap_total,
        )

    def reset(self) -> None:
        """Zero all counters (start of a sampling period)."""
        self.num_req_m1_p = 0
        self.num_req_total_p = 0
        self.num_req_m1_s = 0
        self.num_req_total_s = 0
        self.num_swap_self = 0
        self.num_swap_total = 0


@dataclass(frozen=True)
class RSMSample:
    """One sampling period's outputs (kept for analysis/Table 4)."""

    program: int
    period_index: int
    raw_sf_a: Optional[float]
    raw_sf_b: Optional[float]
    smoothed_sf_a: float
    smoothed_sf_b: float
    #: Std dev of per-region request counts as a fraction of the mean
    #: (sigma_req of Table 4); None unless region tracking is enabled.
    sigma_req: Optional[float] = None


def _ratio_sf_a(m1_p: float, total_p: float, m1_s: float, total_s: float) -> Optional[float]:
    """Eq. (2); None when a denominator is zero (raw counters only)."""
    if total_p <= 0 or total_s <= 0 or m1_s <= 0:
        return None
    return (m1_p / total_p) / (m1_s / total_s)


def _ratio_sf_b(swap_self: float, swap_total: float) -> Optional[float]:
    """Eq. (3); None when no self swaps were seen (raw counters only)."""
    if swap_self <= 0:
        return None
    return swap_total / swap_self


#: One Table 7 verdict: case 1, 2 or 3, or a no-case label.
Table7Case = Union[int, str]
#: Every verdict, in ``case_counts`` order: the three cases, then
#: "default" (no case applies, or RSM has no factors yet for one of the
#: two programs) and "same" (one program on both sides, or M1 vacant).
TABLE7_CASES: tuple[Table7Case, ...] = (1, 2, 3, "default", "same")


def table7_classifier(
    config: ProFessConfig,
) -> Callable[[Optional[RSM], Optional[int], int], Table7Case]:
    """Table 7 (Section 3.3): which case one guided decision takes.

    The returned ``classify(rsm, c_m1, c_m2)`` reads the slowdown factors
    of the programs owning the block in M1 (``c_m1``, None when vacant)
    and the accessed block in M2 (``c_m2``); ``rsm`` is None on a system
    without a monitor.  It returns one of :data:`TABLE7_CASES`:

    * ``1`` — c_M2 suffers more by both factors: help it;
    * ``2`` — c_M1 suffers more by both factors: protect its block;
    * ``3`` — SF_A says c_M2 suffers more but SF_B says c_M1 does, and
      the SF_A*SF_B products still favour c_M1: protect its block
      (never taken when ``config.case3_enabled`` is off).

    What a case does to the decision is the guided policy's part.  Each
    comparison uses ``config``'s ~3 % hysteresis factor and the product
    comparison twice that; both are computed here, once per classifier.
    """
    factor = config.sf_factor
    product_factor = config.product_factor
    case3_enabled = config.case3_enabled

    def classify(
        rsm: Optional[RSM], c_m1: Optional[int], c_m2: int
    ) -> Table7Case:
        if c_m1 is None or c_m1 == c_m2:
            return "same"
        if rsm is None:
            return "default"
        sf_a1, sf_a2 = rsm.sf_a[c_m1], rsm.sf_a[c_m2]
        if sf_a1 is None or sf_a2 is None:
            return "default"
        sf_b1, sf_b2 = rsm.sf_b[c_m1], rsm.sf_b[c_m2]
        a_says_m2 = sf_a1 * factor < sf_a2
        a_says_m1 = sf_a1 > sf_a2 * factor
        b_says_m2 = sf_b1 * factor < sf_b2
        b_says_m1 = sf_b1 > sf_b2 * factor
        if a_says_m2 and b_says_m2:
            return 1
        if a_says_m1 and b_says_m1:
            return 2
        if (
            case3_enabled
            and a_says_m2
            and b_says_m1
            and sf_a1 * sf_b1 > sf_a2 * sf_b2 * product_factor
        ):
            return 3
        return "default"

    return classify


class RSM:
    """The monitor: counters, sampling, smoothing, and SF outputs."""

    def __init__(
        self,
        config: RSMConfig,
        num_programs: int,
        num_regions: int,
        track_regions: bool = False,
    ) -> None:
        self._config = config
        self._m_samp = config.m_samp
        self.num_programs = num_programs
        self.num_regions = num_regions
        self.counters = [RSMCounters() for _ in range(num_programs)]
        self._period = [0] * num_programs
        # One smoother per counter per program (Section 3.1.3 smooths the
        # counters, then computes the SFs from the smoothed values).
        self._smoothers = [
            [
                ExponentialSmoother(alpha=config.alpha, bias=1.0)
                for _ in range(6)
            ]
            for _ in range(num_programs)
        ]
        self.sf_a: list[Optional[float]] = [None] * num_programs
        self.sf_b: list[Optional[float]] = [None] * num_programs
        self.history: list[RSMSample] = []
        self._track_regions = track_regions
        self._region_counts = (
            [[0] * num_regions for _ in range(num_programs)]
            if track_regions
            else None
        )

    @property
    def ready(self) -> bool:
        """True once every program has produced at least one sample."""
        return all(sf is not None for sf in self.sf_a)

    # ------------------------------------------------------------------
    def on_request(
        self,
        program: int,
        region: int,
        region_is_private_own: bool,
        served_from_m1: bool,
    ) -> None:
        """Account one served request (Table 3 request counters).

        The program's period ends after ``m_samp`` served requests: its
        two request totals count every one of them since the last
        sample, so their sum is the period's length.
        """
        counters = self.counters[program]
        if region_is_private_own:
            counters.num_req_total_p += 1
            if served_from_m1:
                counters.num_req_m1_p += 1
        else:
            counters.num_req_total_s += 1
            if served_from_m1:
                counters.num_req_m1_s += 1
        if self._track_regions:
            self._region_counts[program][region] += 1
        if counters.num_req_total_p + counters.num_req_total_s >= self._m_samp:
            self._sample(program)

    def on_swap(
        self, owner_promoted: Optional[int], owner_demoted: Optional[int]
    ) -> None:
        """Account one shared-region swap (Table 3 swap counters).

        A program's total counts every swap touching one of its blocks,
        regardless of who triggered it; self counts swaps where both blocks
        are its own.  The caller must filter out private-region swaps (the
        paper does not count swaps there).
        """
        # Explicit pair, as in HybridMemoryController.request_promotion:
        # no set, so neither dedup nor order rests on hashing (D104).
        if owner_promoted is not None:
            self.counters[owner_promoted].num_swap_total += 1
        if owner_demoted is not None and owner_demoted != owner_promoted:
            self.counters[owner_demoted].num_swap_total += 1
        if (
            owner_promoted is not None
            and owner_promoted == owner_demoted
        ):
            self.counters[owner_promoted].num_swap_self += 1

    # ------------------------------------------------------------------
    def _sample(self, program: int) -> None:
        counters = self.counters[program]
        raw = counters.as_tuple()
        smoothed = [
            smoother.update(value)
            for smoother, value in zip(self._smoothers[program], raw)
        ]
        raw_sf_a = _ratio_sf_a(raw[0], raw[1], raw[2], raw[3])
        raw_sf_b = _ratio_sf_b(raw[4], raw[5])
        sf_a = _ratio_sf_a(*smoothed[:4])
        sf_b = _ratio_sf_b(smoothed[4], smoothed[5])
        # Smoothed counters carry the +1 bias, so the ratios are always
        # defined; guard anyway to keep the invariant explicit.
        self.sf_a[program] = sf_a if sf_a is not None else 1.0
        self.sf_b[program] = sf_b if sf_b is not None else 1.0
        sigma_req = None
        if self._region_counts is not None:
            region_counts = self._region_counts[program]
            mu = sum(region_counts) / len(region_counts)
            sigma_req = stddev(region_counts) / mu if mu > 0 else None
            self._region_counts[program] = [0] * self.num_regions
        self.history.append(
            RSMSample(
                program=program,
                period_index=self._period[program],
                raw_sf_a=raw_sf_a,
                raw_sf_b=raw_sf_b,
                smoothed_sf_a=self.sf_a[program],
                smoothed_sf_b=self.sf_b[program],
                sigma_req=sigma_req,
            )
        )
        self._period[program] += 1
        counters.reset()

    # ------------------------------------------------------------------
    def samples_for(self, program: int) -> list[RSMSample]:
        """All samples recorded for one program (analysis helper)."""
        return [s for s in self.history if s.program == program]
