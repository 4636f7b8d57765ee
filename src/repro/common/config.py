"""System configuration containers and paper presets (Table 8).

All structural parameters of the reproduction live here: memory timings,
hybrid-memory geometry, cache and STC sizes, core model parameters, and the
per-policy tunables (PoM, MemPod, MDM, RSM, ProFess).  Two presets mirror the
paper's systems:

* :func:`paper_quad_core` — 4 cores, 2 channels, 256 MB M1 / 2 GB M2
  (Section 4.1, multi-program evaluation).
* :func:`paper_single_core` — 1 core, 1 channel, 64 MB M1 / 512 MB M2
  (single-program evaluation).

Both accept a ``scale`` divisor that shrinks M1 capacity (and, by convention,
program footprints — see :mod:`repro.traces.spec`) by the same factor so that
the pure-Python simulator finishes in minutes instead of days while keeping
the M1:M2 ratio, swap-group structure, region count, and footprint-to-M1
pressure identical to the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.common.serialize import canonical_digest
from repro.common.units import (
    KB,
    MB,
    cpu_cycles_from_ns,
    is_power_of_two,
)

#: Data-bus time for one 64-B line: 8 DDR beats at 1.6 GT/s on a 64-bit bus.
LINE_BURST_NS = 5.0
#: Lines per 2-KB swap block.
LINES_PER_BLOCK = 32


@dataclass(frozen=True)
class MemTimings:
    """Timing parameters of one memory module type, in nanoseconds.

    Defaults are the paper's M1 (DDR4) values from Table 8.  Use
    :meth:`nvm_from_dram` for the paper's M2 derivation: ``tRCD`` is 10x,
    ``tWR = 2 x tRCD_M2``, other timings identical, no refresh.
    """

    t_rcd_ns: float = 13.75
    t_rp_ns: float = 13.75
    cl_ns: float = 13.75
    t_wr_ns: float = 15.0
    #: Average refresh interval; 0 disables refresh (Section 4.1: "M2 has
    #: no refresh").  Defaults are DDR4 4Gb-class values.
    t_refi_ns: float = 7_800.0
    #: Refresh cycle time (all banks of the rank busy).
    t_rfc_ns: float = 350.0

    @staticmethod
    def dram() -> "MemTimings":
        """Paper M1 timings (Micron DDR4, Table 8)."""
        return MemTimings()

    @staticmethod
    def nvm_from_dram(
        dram: "MemTimings" = None,
        read_latency_factor: float = 10.0,
        t_wr_factor_of_rcd: float = 2.0,
    ) -> "MemTimings":
        """Paper M2 derivation: tRCD_M2 = 10 x tRCD_M1, tWR_M2 = 2 x tRCD_M2."""
        base = dram if dram is not None else MemTimings.dram()
        t_rcd = base.t_rcd_ns * read_latency_factor
        return MemTimings(
            t_rcd_ns=t_rcd,
            t_rp_ns=base.t_rp_ns,
            cl_ns=base.cl_ns,
            t_wr_ns=t_wr_factor_of_rcd * t_rcd,
            t_refi_ns=0.0,  # non-volatile: no refresh
            t_rfc_ns=0.0,
        )

    # -- cycle-converted views -------------------------------------------
    @property
    def t_rcd(self) -> int:
        """tRCD in CPU cycles."""
        return cpu_cycles_from_ns(self.t_rcd_ns)

    @property
    def t_rp(self) -> int:
        """tRP in CPU cycles."""
        return cpu_cycles_from_ns(self.t_rp_ns)

    @property
    def cl(self) -> int:
        """CAS latency in CPU cycles."""
        return cpu_cycles_from_ns(self.cl_ns)

    @property
    def t_wr(self) -> int:
        """Write-recovery time in CPU cycles."""
        return cpu_cycles_from_ns(self.t_wr_ns)

    @property
    def t_refi(self) -> int:
        """Refresh interval in CPU cycles (0 = no refresh)."""
        return cpu_cycles_from_ns(self.t_refi_ns)

    @property
    def t_rfc(self) -> int:
        """Refresh cycle time in CPU cycles."""
        return cpu_cycles_from_ns(self.t_rfc_ns)

    @property
    def line_burst(self) -> int:
        """Data-bus occupancy of one 64-B line transfer, in CPU cycles."""
        return cpu_cycles_from_ns(LINE_BURST_NS)

    def read_miss_latency(self) -> int:
        """Row-miss read latency for one line (precharge+activate+CAS+burst)."""
        return self.t_rp + self.t_rcd + self.cl + self.line_burst

    def read_hit_latency(self) -> int:
        """Row-hit read latency for one line (CAS + burst)."""
        return self.cl + self.line_burst


@dataclass(frozen=True)
class HybridMemoryConfig:
    """Geometry of the flat migrating organization (PoM baseline, Sec. 2.3).

    A swap group holds ``group_size`` 2-KB locations: one in M1 and
    ``group_size - 1`` in M2 (paper: nine locations, ratio 1:8).
    """

    m1_capacity_per_channel: int = 128 * MB
    m2_to_m1_ratio: int = 8
    block_size: int = 2 * KB
    line_size: int = 64
    page_size: int = 4 * KB
    num_regions: int = 128
    banks_per_rank: int = 16
    row_buffer_size: int = 8 * KB

    def __post_init__(self) -> None:
        if self.m1_capacity_per_channel % self.block_size:
            raise ConfigError("M1 capacity must be a multiple of block size")
        # The address split is masks and shifts (repro.hybrid.address).
        if not is_power_of_two(self.groups_per_channel):
            raise ConfigError(
                "groups per channel (M1 capacity / block size) must be a "
                "power of two"
            )
        if not is_power_of_two(self.lines_per_block):
            raise ConfigError(
                "lines per block (block size / line size) must be a power "
                "of two"
            )
        if not is_power_of_two(self.num_regions):
            raise ConfigError("num_regions must be a power of two")
        if self.page_size != 2 * self.block_size:
            raise ConfigError(
                "the paper's region interleaving assumes 4-KB pages made of "
                "two 2-KB swap blocks"
            )
        if self.m2_to_m1_ratio < 1:
            raise ConfigError("m2_to_m1_ratio must be >= 1")
        if self.groups_per_channel < 2 * self.num_regions:
            raise ConfigError(
                "fewer than two swap-group pairs per region; increase M1 "
                "capacity or lower num_regions"
            )

    @property
    def group_size(self) -> int:
        """Locations per swap group (1 M1 + ratio M2); paper value: 9."""
        return self.m2_to_m1_ratio + 1

    @property
    def groups_per_channel(self) -> int:
        """Number of swap groups per channel (= M1 blocks per channel)."""
        return self.m1_capacity_per_channel // self.block_size

    @property
    def blocks_per_row(self) -> int:
        """2-KB blocks that share one row buffer."""
        return self.row_buffer_size // self.block_size

    @property
    def lines_per_block(self) -> int:
        """64-B lines per swap block."""
        return self.block_size // self.line_size

    @property
    def translation_bits_per_location(self) -> int:
        """Bits to name one location inside a swap group (paper: 4)."""
        return max(1, math.ceil(math.log2(self.group_size)))


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the on-chip cache hierarchy."""

    capacity: int
    associativity: int
    latency_cycles: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.capacity % (self.associativity * self.line_size):
            raise ConfigError("capacity must divide into assoc x line_size")

    @property
    def num_sets(self) -> int:
        """Number of sets in this level."""
        return self.capacity // (self.associativity * self.line_size)


@dataclass(frozen=True)
class STCConfig:
    """Swap-group Table Cache (Figure 1 / Figure 4).

    The paper's multi-program system uses a 64-KB, 8-way STC holding 8 K
    eight-byte ST entries; the single-core system scales it to 32 KB.
    """

    capacity: int = 64 * KB
    associativity: int = 8
    entry_size: int = 8
    latency_cycles: int = 2

    def __post_init__(self) -> None:
        # The serve hop after an STC hit lands a strictly later cycle.
        if self.latency_cycles < 1:
            raise ConfigError("STC latency_cycles must be >= 1")

    @property
    def num_entries(self) -> int:
        """ST entries the STC can hold."""
        return self.capacity // self.entry_size

    @property
    def num_sets(self) -> int:
        """Sets in the STC."""
        return self.capacity // (self.associativity * self.entry_size)


@dataclass(frozen=True)
class CoreConfig:
    """Trace-driven core timing model.

    The paper simulates a 4-wide, 256-entry-ROB out-of-order core.  Our
    substitute executes the non-memory instruction gap at ``issue_ipc`` and
    allows ``mlp`` outstanding main-memory reads to overlap, which captures
    the first-order memory-level-parallelism behaviour the migration
    policies are sensitive to.  Writes retire asynchronously (write buffer).
    """

    issue_ipc: float = 2.0
    mlp: int = 4
    write_buffer: int = 8

    def __post_init__(self) -> None:
        if self.issue_ipc <= 0:
            raise ConfigError("issue_ipc must be positive")
        if self.mlp < 1:
            raise ConfigError("mlp must be >= 1")


@dataclass(frozen=True)
class PoMConfig:
    """PoM migration algorithm parameters (Table 2, Section 4.1).

    ``thresholds`` are the candidate global thresholds; each epoch PoM picks
    the one with the best estimated benefit, or prohibits swaps if none is
    positive.  ``k`` is the swap-cost constant in accesses (paper: 8 for
    this technology pair).
    """

    thresholds: tuple[int, ...] = (1, 6, 18, 48)
    k: int = 8
    epoch_requests: int = 2_000
    counter_max: int = 63


@dataclass(frozen=True)
class MemPodConfig:
    """MemPod MEA parameters as tuned in Section 4.1."""

    interval_us: float = 50.0
    mea_counters: int = 128
    max_migrations_per_interval: int = 64


@dataclass(frozen=True)
class CameoConfig:
    """CAMEO: promote on first access (global threshold of 1)."""

    threshold: int = 1


@dataclass(frozen=True)
class SilcFMConfig:
    """SILC-FM (simplified to the PoM organization, Table 2 row 3).

    Promote on first access; a block whose aging access counter exceeds
    ``lock_threshold`` is locked in M1 and protected from demotion.
    """

    threshold: int = 1
    lock_threshold: int = 50
    aging_interval_requests: int = 10_000


@dataclass(frozen=True)
class MDMConfig:
    """Migration-Decision Mechanism parameters (Sections 3.2 and 4.1)."""

    #: Quantization bucket lower bounds for QAC values 1..3 (Table 5):
    #: 1-7 accesses -> 1, 8-31 -> 2, >= 32 -> 3.
    qac_boundaries: tuple[int, int, int] = (1, 8, 32)
    #: Saturating per-block access-counter width in the STC (Section 4.1).
    access_counter_bits: int = 6
    #: Least predicted remaining-access advantage that justifies a swap
    #: (same meaning as PoM's K; paper uses 8).
    min_benefit: float = 8.0
    #: Observation/estimation phase length, in MDM-counter updates/program.
    phase_updates: int = 1_000
    #: exp_cnt recomputation interval during estimation phases.
    recompute_updates: int = 100

    @property
    def num_qac_values(self) -> int:
        """Valid q_I values (paper: 4, including the default 0)."""
        return len(self.qac_boundaries) + 1

    @property
    def access_counter_max(self) -> int:
        """Saturation value of the per-block access counter."""
        return (1 << self.access_counter_bits) - 1


@dataclass(frozen=True)
class RSMConfig:
    """Relative-Slowdown Monitor parameters (Sections 3.1 and 4.1)."""

    #: Sampling-period duration in served requests per program.
    m_samp: int = 128 * 1024
    #: Simple-exponential-smoothing parameter for the RSM counters.
    alpha: float = 0.125


@dataclass(frozen=True)
class ProFessConfig:
    """RSM-guided MDM integration (Section 3.3 / Table 7).

    ``sf_threshold`` is the ~3 % (1/32) hysteresis used in the SF_A and SF_B
    comparisons; the product comparison in Case 3 uses twice that (~6 %).
    """

    sf_threshold: float = 1.0 / 32.0
    #: Ablation switch: disable Table 7's Case 3 (the SF_A*SF_B product
    #: rule) while keeping Cases 1 and 2.
    case3_enabled: bool = True

    @property
    def sf_factor(self) -> float:
        """Multiplier form of the single-factor threshold (1.03125)."""
        return 1.0 + self.sf_threshold

    @property
    def product_factor(self) -> float:
        """Multiplier form of the Case-3 product threshold (1.0625)."""
        return 1.0 + 2.0 * self.sf_threshold


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event energy model for the off-chip memory system (Fig. 12/15).

    Values are representative of DDR4 and PCM-class NVM: NVM reads cost
    about 2x a DRAM read (longer sensing) and NVM writes are an order of
    magnitude more expensive; NVM has no refresh and negligible standby
    power, while DRAM pays background power.
    """

    m1_activate_nj: float = 2.0
    #: Energy of one all-bank refresh cycle on an M1 rank.
    m1_refresh_nj: float = 60.0
    m1_read_line_nj: float = 4.0
    m1_write_line_nj: float = 4.5
    m1_background_mw: float = 150.0
    m2_activate_nj: float = 4.0
    m2_read_line_nj: float = 8.0
    m2_write_line_nj: float = 40.0
    m2_background_mw: float = 30.0


@dataclass(frozen=True)
class SystemConfig:
    """Complete system configuration.

    Build one with :func:`paper_quad_core` or :func:`paper_single_core`
    (optionally scaled) rather than by hand; :func:`dataclasses.replace`
    customizes individual fields.
    """

    num_cores: int = 4
    num_channels: int = 2
    m1_timings: MemTimings = field(default_factory=MemTimings.dram)
    m2_timings: MemTimings = field(default_factory=MemTimings.nvm_from_dram)
    hybrid: HybridMemoryConfig = field(default_factory=HybridMemoryConfig)
    l3: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(8 * MB, 16, 20)
    )
    stc: STCConfig = field(default_factory=STCConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    pom: PoMConfig = field(default_factory=PoMConfig)
    mempod: MemPodConfig = field(default_factory=MemPodConfig)
    cameo: CameoConfig = field(default_factory=CameoConfig)
    silcfm: SilcFMConfig = field(default_factory=SilcFMConfig)
    mdm: MDMConfig = field(default_factory=MDMConfig)
    rsm: RSMConfig = field(default_factory=RSMConfig)
    profess: ProFessConfig = field(default_factory=ProFessConfig)
    #: Writes count as this many accesses in policy statistics (Sec. 4.1:
    #: "we count each write request as eight accesses" for PoM and ProFess).
    write_access_weight: int = 8
    #: FR-FCFS-Cap row-hit cap (Section 4.1).
    frfcfs_cap: int = 4
    #: Adaptive page policy: the controller precharges a row left idle for
    #: this long (0 disables).  This keeps per-access M2 latency near the
    #: tRCD_M2 penalty that the paper's own K derivation assumes
    #: (Section 4.1) while still rewarding genuinely back-to-back locality.
    row_idle_close_ns: float = 150.0
    #: Capacity divisor relative to the paper system (bookkeeping only;
    #: presets apply it to M1 capacity, trace modules apply it to footprints).
    scale: int = 1

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        if self.frfcfs_cap < 1:
            raise ConfigError("frfcfs_cap must be >= 1")
        if not is_power_of_two(self.num_channels):
            raise ConfigError("num_channels must be a power of two >= 1")
        if self.hybrid.num_regions <= self.num_cores:
            raise ConfigError(
                "need more regions than cores so private regions stay a "
                "small fraction of capacity"
            )

    # -- derived geometry -------------------------------------------------
    @property
    def total_groups(self) -> int:
        """Swap groups across all channels."""
        return self.hybrid.groups_per_channel * self.num_channels

    @property
    def total_m1_capacity(self) -> int:
        """Bytes of M1 across all channels."""
        return self.hybrid.m1_capacity_per_channel * self.num_channels

    @property
    def total_capacity(self) -> int:
        """OS-visible capacity: M1 + M2 (migrating organization)."""
        return self.total_m1_capacity * self.hybrid.group_size

    @property
    def total_blocks(self) -> int:
        """Original 2-KB block addresses available to the OS."""
        return self.total_capacity // self.hybrid.block_size

    @property
    def total_pages(self) -> int:
        """4-KB OS page frames available."""
        return self.total_capacity // self.hybrid.page_size

    def swap_latency_cycles(self) -> int:
        """Analytic latency of one 2-KB/2-KB swap, in CPU cycles.

        Follows the Section 4.1 account: the two block reads overlap
        (tRCD_M2 hides the M1 read), the write to M1 overlaps tWR_M2, and
        the channel is blocked for the whole duration.  With Table 8
        timings this evaluates to ~796 ns, matching the paper's analytic
        value (the paper observes ~820 ns dynamically, within 3%).
        """
        t1, t2 = self.m1_timings, self.m2_timings
        burst = LINES_PER_BLOCK * t1.line_burst
        # M1 block read completes at tRP + tRCD_M1 + CL + 32 bursts
        # (tRCD_M2 hides underneath); then the M2 read bursts, then the M2
        # write bursts occupy the bus; tWR_M2 closes the swap, and the M1
        # write bursts plus tWR_M1 fit inside it.  With Table 8 timings:
        # 13.75 + 13.75 + 13.75 + 3*160 + 275 = 796.25 ns.
        m1_read_done = t1.t_rp + t1.t_rcd + t1.cl + burst
        return m1_read_done + 2 * burst + t2.t_wr

    def cache_token(self) -> str:
        """Stable content hash of everything that affects simulation.

        Unlike ``repr(config)``, the token walks the dataclass tree with
        field names *sorted* and floats rendered in exact hex form, so it
        is invariant under dataclass field reordering and float
        formatting changes.  Two configs share a token iff every field
        value is equal; any semantic change yields a new token.

        The token is computed once per instance and memoized on it, as
        :meth:`repro.exec.spec.RunSpec.cache_key` memoizes its key (the
        config tree is frozen, so the memo cannot go stale).  The memo is
        not a field: equality, hashing and ``replace()`` never see it,
        and it travels with a pickled config.
        """
        memo: str | None = self.__dict__.get("_cache_token")
        if memo is not None:
            return memo
        token = canonical_digest(self)
        object.__setattr__(self, "_cache_token", token)
        return token

    def derived_k(self) -> int:
        """PoM's K derived per Section 4.1 from the configured timings.

        K = ceil(swap latency / difference in 64-B read latencies); the
        paper then rounds up to 8.
        """
        diff = self.m2_timings.t_rcd - self.m1_timings.t_rcd
        if diff <= 0:
            return 1
        return math.ceil(self.swap_latency_cycles() / diff)


def _scaled_hybrid(
    m1_per_channel: int, scale: int, num_regions: int = 128
) -> HybridMemoryConfig:
    if scale < 1 or not is_power_of_two(scale):
        raise ConfigError("scale must be a power of two >= 1")
    scaled = m1_per_channel // scale
    return HybridMemoryConfig(
        m1_capacity_per_channel=scaled, num_regions=num_regions
    )


def _scaled_stc(capacity: int, scale: int) -> STCConfig:
    """Scale the STC with M1 so its reach (fraction of swap groups whose
    ST entries fit on chip) matches the paper's; floor at 64 entries."""
    return STCConfig(capacity=max(capacity // scale, 512))


def _scaled_l3(capacity: int, scale: int) -> CacheLevelConfig:
    """Scale the L3 with M1.

    Simulations read main-memory traces, so nothing reads the L3; it
    stays in the config because every cache key hashes it.
    """
    return CacheLevelConfig(max(capacity // scale, 64 * KB), 16, 20)


def paper_quad_core(
    scale: int = 1,
    m_samp: int | None = None,
    m2_to_m1_ratio: int = 8,
    num_regions: int = 128,
) -> SystemConfig:
    """The paper's multi-program system (Table 8): 4 cores, 2 channels.

    ``scale`` divides the 256-MB M1; ``m_samp`` overrides the RSM sampling
    period (the paper's 128 K requests assumes paper-scale traces — scaled
    runs shrink it proportionally by default).
    """
    hybrid = replace(
        _scaled_hybrid(128 * MB, scale, num_regions),
        m2_to_m1_ratio=m2_to_m1_ratio,
    )
    if m_samp is None:
        m_samp = max(2_048, (128 * 1024) // scale)
    return SystemConfig(
        num_cores=4,
        num_channels=2,
        hybrid=hybrid,
        l3=_scaled_l3(8 * MB, scale),
        stc=_scaled_stc(64 * KB, scale),
        rsm=RSMConfig(m_samp=m_samp),
        scale=scale,
    )


def paper_single_core(
    scale: int = 1,
    m2_to_m1_ratio: int = 8,
    num_regions: int = 128,
) -> SystemConfig:
    """The paper's single-program system: 1 core, 1 channel, 64-MB M1.

    The L3 and STC are scaled to a quarter of the quad-core system, as in
    Section 4.1.
    """
    hybrid = replace(
        _scaled_hybrid(64 * MB, scale, num_regions),
        m2_to_m1_ratio=m2_to_m1_ratio,
    )
    return SystemConfig(
        num_cores=1,
        num_channels=1,
        hybrid=hybrid,
        l3=_scaled_l3(2 * MB, scale),
        stc=_scaled_stc(32 * KB, scale),
        rsm=RSMConfig(m_samp=max(2_048, (128 * 1024) // scale)),
        scale=scale,
    )
