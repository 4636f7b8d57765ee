"""The hardware memory controller of the flat migrating hybrid memory.

Per request (Figure 1): look up the swap group's ST entry in the STC
(fetching it from M1 on a miss — real channel traffic), translate the
original block address to its actual location, account RSM and per-block
access counters, issue the 64-B data request to the channel, and consult
the migration policy.  A decided promotion commits when the triggering
request completes (fast-swap semantics: the demand access is served from
M2 first, then the blocks exchange while the channel is blocked).

The controller is policy-agnostic: every scheme from
:mod:`repro.policies` and :mod:`repro.core` runs on this identical
organization, which is the paper's comparison methodology (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappush as _heappush
from typing import Callable, Optional

import numpy as np

from repro.cache.stc import STC, STCEntry
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.events import EventQueue
from repro.common.rng import make_rng
from repro.common.units import cpu_cycles_from_ns
from repro.core.rsm import RSM
from repro.hybrid.address import AddressMap
from repro.hybrid.regions import OSAllocator, RegionMap
from repro.hybrid.st import SwapGroupTable
from repro.mem.channel import Channel
from repro.mem.power import EnergyMeter
from repro.policies.base import AccessContext, MigrationPolicy

CompletionCallback = Callable[[int], None]

# Integer request kinds as the channel's queue tuples and counter slots
# spell them (== RequestKind.DATA/ST_READ/ST_WRITE, kept as plain ints so
# the per-request path pushes literals instead of enum attributes).
_KIND_DATA = 0
_KIND_ST_READ = 1
_KIND_ST_WRITE = 2


@dataclass(slots=True)
class CoreMemStats:
    """Per-core demand-traffic statistics (Figures 6, 16)."""

    served_from_m1: int = 0
    reads: int = 0
    writes: int = 0
    swaps_involving: int = 0

    @property
    def requests(self) -> int:
        """Demand requests served for this core."""
        return self.reads + self.writes

    @property
    def m1_fraction(self) -> float:
        """Fraction of this core's requests served from M1 (Figure 6)."""
        return self.served_from_m1 / self.requests if self.requests else 0.0


class HybridMemoryController:
    """Ties channels, ST/STC, regions, RSM, and a migration policy together."""

    __slots__ = (
        "config",
        "events",
        "policy",
        "program_of_core",
        "num_programs",
        "address_map",
        "energy",
        "channels",
        "st",
        "stc",
        "region_map",
        "allocator",
        "rsm",
        "core_stats",
        "total_swaps",
        "_pending_fetches",
        "_swap_pending",
        "_swap_style",
        "_swaps_enabled",
        "_bypass_rate",
        "_bypass_rng",
        "_stc_latency",
        "_access_weights",
        "_counter_max",
        "_total_groups",
        "_stc_lookup",
        "_stc_peek",
        "_group_and_slot_of_line",
        "_fast_addr",
        "_lines_shift",
        "_groups_mask",
        "_groups_shift",
        "_region_of",
        "_data_locs",
        "_fill_data_loc",
        "_st_locs",
        "_fill_st_loc",
        "_group_size",
        "_enqueue_soa",
        "_frame_owners",
        "_private_region",
        "_private_of",
        "_rsm_on_request",
        "_policy_on_access",
        "_ctx",
        "__weakref__",
    )

    def __init__(
        self,
        config: SystemConfig,
        events: EventQueue,
        policy: MigrationPolicy,
        seed: int = 0,
        track_rsm_regions: bool = False,
        rng: Optional[np.random.Generator] = None,
        program_of_core: Optional[list[int]] = None,
    ) -> None:
        self.config = config
        self.events = events
        self.policy = policy
        # Section 3.1.1: all threads of a multi-threaded program appear to
        # RSM and MDM as a single program; the mapping below is the
        # hardware lookup table that routes a core's requests to its
        # program's counter sets.  Default: one single-threaded program
        # per core.
        if program_of_core is None:
            program_of_core = list(range(config.num_cores))
        if len(program_of_core) != config.num_cores:
            raise ConfigError("program_of_core must name every core")
        self.program_of_core = list(program_of_core)
        self.num_programs = max(self.program_of_core) + 1
        if set(self.program_of_core) != set(range(self.num_programs)):
            raise ConfigError("program ids must be dense starting at 0")
        self.address_map = AddressMap(config)
        swap_latency = config.swap_latency_cycles()
        self.channels = [
            Channel(
                events=events,
                m1_timings=config.m1_timings,
                m2_timings=config.m2_timings,
                banks_per_rank=config.hybrid.banks_per_rank,
                frfcfs_cap=config.frfcfs_cap,
                swap_latency=swap_latency,
                lines_per_block=config.hybrid.lines_per_block,
                row_idle_close=cpu_cycles_from_ns(config.row_idle_close_ns),
            )
            for _ in range(config.num_channels)
        ]
        self.energy = EnergyMeter(
            config.energy, [channel.stats for channel in self.channels]
        )
        # Bound enqueue methods, one per channel: the request path
        # indexes this list by a location's channel instead of re-binding
        # ``enqueue_soa`` per request.
        self._enqueue_soa = [channel.enqueue_soa for channel in self.channels]
        self.st = SwapGroupTable(config.total_groups, config.hybrid.group_size)
        # Composable policy axes (repro.policies.registry): the policy
        # instance carries its resolved swap style / bypass rate / STC
        # replacement; class defaults cover directly constructed policies.
        self._swap_style = policy.swap_style
        self._swaps_enabled = policy.swap_style != "noswap"
        self._bypass_rate = policy.bypass_rate
        # The bypass substream exists only when the axis is active, so
        # default-axes runs draw nothing and stay byte-identical to the
        # pre-axis golden blobs.
        self._bypass_rng: Optional[np.random.Generator] = (
            make_rng(seed, "migration-bypass")
            if policy.bypass_rate > 0.0
            else None
        )
        self.stc = STC(
            num_sets=config.stc.num_sets,
            associativity=config.stc.associativity,
            group_size=config.hybrid.group_size,
            counter_max=config.mdm.access_counter_max,
            replacement=policy.stc_replacement,
            seed=seed,
        )
        self.stc.on_eviction(self._on_stc_eviction)
        self.region_map = RegionMap(self.address_map, self.num_programs)
        self.allocator = OSAllocator(
            self.address_map,
            self.region_map,
            rng if rng is not None else make_rng(seed, "os-allocator"),
        )
        self.rsm = RSM(
            config.rsm,
            num_programs=self.num_programs,
            num_regions=config.hybrid.num_regions,
            track_regions=track_rsm_regions,
        )
        self.core_stats = [CoreMemStats() for _ in range(config.num_cores)]
        self.total_swaps = 0
        #: group -> continuations waiting on its in-flight ST fetch.
        self._pending_fetches: dict[int, list[Callable[[int], None]]] = {}
        self._swap_pending: set[int] = set()
        policy.bind(self)
        # Hot-path constants, resolved once.  ``access_weight`` depends
        # only on the request direction (the policy's write weight is
        # fixed at construction), so both values are precomputed.
        self._stc_latency = config.stc.latency_cycles
        self._access_weights = (
            policy.access_weight(False),
            policy.access_weight(True),
        )
        self._counter_max = config.mdm.access_counter_max
        self._total_groups = self.address_map.total_groups
        # Bound methods and stable collaborator references, resolved once
        # so ``access``/``_serve`` pay no repeated attribute chains on the
        # per-request path.
        self._stc_lookup = self.stc.lookup
        self._stc_peek = self.stc.peek
        self._group_and_slot_of_line = self.address_map.group_and_slot_of_line
        # Power-of-two address split, inlined into ``access`` (always
        # taken for the paper geometry); non-power-of-two configurations
        # fall back to the fused AddressMap method.
        lines_ms = self.address_map._lines_ms
        groups_ms = self.address_map._groups_ms
        self._fast_addr = lines_ms is not None and groups_ms is not None
        if self._fast_addr:
            self._lines_shift = lines_ms[1]
            self._groups_mask, self._groups_shift = groups_ms
        else:
            self._lines_shift = self._groups_mask = self._groups_shift = 0
        # Region of every group, tabulated once: ``_serve`` replaces the
        # per-request arithmetic call with one list index.
        self._region_of = self.address_map.region_of_groups(
            np.arange(config.total_groups, dtype=np.int64)
        ).tolist()
        # The location memos themselves, so every request after the first
        # touch of a location is one dict probe; a miss fills the memo.
        self._data_locs = self.address_map.data_locs
        self._fill_data_loc = self.address_map.fill_data_loc
        self._st_locs = self.address_map.st_locs
        self._fill_st_loc = self.address_map.fill_st_loc
        self._group_size = config.hybrid.group_size
        self._frame_owners = self.allocator.frame_owners
        self._private_region = self.region_map.private_region
        # Per-program private-region ids as a list: the region map never
        # reassigns private regions after construction, and the request
        # path compares one per served request.
        self._private_of = [
            self._private_region.get(program, -1)
            for program in range(self.num_programs)
        ]
        self._rsm_on_request = self.rsm.on_request
        self._policy_on_access = policy.on_access
        # One reusable AccessContext, mutated per request.  Safe because
        # the policy contract (see AccessContext) forbids retaining the
        # context beyond ``on_access``; reusing the instance removes the
        # second-largest allocation on the request path.
        self._ctx = AccessContext(
            core_id=0,
            group=0,
            slot=0,
            location=0,
            is_write=False,
            owner=None,
            m1_owner=None,
            st_entry=None,  # type: ignore[arg-type]
            stc_entry=None,  # type: ignore[arg-type]
            now=0,
        )

    # ------------------------------------------------------------------
    # Public helpers used by policies and monitors
    # ------------------------------------------------------------------
    def owner_of_slot(self, group: int, slot: int) -> Optional[int]:
        """Program owning the block with original home (group, slot).

        Inlines ``allocator.owner_of_block(address_map.block_of(...))``:
        the MDM eviction sweep asks this for every touched slot.
        """
        return self._frame_owners.get((slot * self._total_groups + group) >> 1)

    @property
    def lines_per_block(self) -> int:
        """64-B lines per 2-KB swap block."""
        return self.address_map.lines_per_block

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def access(
        self,
        core_id: int,
        line: int,
        is_write: bool,
        on_complete: Optional[CompletionCallback] = None,
    ) -> None:
        """Serve one 64-B demand request at an original physical ``line``."""
        if self._fast_addr:
            block = line >> self._lines_shift
            group = block & self._groups_mask
            slot = block >> self._groups_shift
        else:
            _block, group, slot = self._group_and_slot_of_line(line)
        events = self.events
        stc_entry = self._stc_lookup(group)
        # One reusable bound method under a partial instead of a fresh
        # closure per request: same callback shape, far less allocation.
        # The serve hop carries the probed entry (None on a miss), so it
        # need not probe again.
        proceed = partial(
            self._serve, core_id, group, slot, is_write, on_complete, stc_entry
        )
        if stc_entry is not None:
            # Inline-push contract (events.py): the STC hit lands a
            # strictly-future cycle (latency_cycles > 0), so it goes
            # straight onto the heap.  ``events._now`` directly: the
            # ``now`` property costs a descriptor call per request here.
            latency = self._stc_latency
            if latency:
                seq = events._seq
                _heappush(events._heap, (events._now + latency, seq, proceed))
                events._seq = seq + 1
            else:
                events._fifo.append(proceed)
        else:
            self._fetch_st_entry(core_id, group, proceed)

    def _fetch_st_entry(
        self, core_id: int, group: int, continuation: Callable[[int], None]
    ) -> None:
        """Fetch a missing ST entry from M1; coalesce concurrent misses."""
        waiting = self._pending_fetches.get(group)
        if waiting is not None:
            waiting.append(continuation)
            return
        self._pending_fetches[group] = [continuation]
        channel, bank_key, row = (
            self._st_locs.get(group) or self._fill_st_loc(group)
        )
        self._enqueue_soa[channel](
            bank_key,
            row,
            False,
            self.events._now,
            _KIND_ST_READ,
            partial(self._fill_st_entry, group),
        )

    def _fill_st_entry(self, group: int, cycle: int) -> None:
        """ST-entry fetch completion: fill the STC, release waiters."""
        st_entry = self.st.entry(group)
        self.stc.insert(group, tuple(st_entry.qac), st_entry)
        for waiting in self._pending_fetches.pop(group):
            waiting(cycle)

    def _serve(
        self,
        core_id: int,
        group: int,
        slot: int,
        is_write: bool,
        on_complete: Optional[CompletionCallback],
        stc_entry: Optional[STCEntry],
        now: int,
    ) -> None:
        if stc_entry is None or not stc_entry.resident:
            # After an ST fetch (nothing carried), or the carried hit was
            # evicted since: probe again.  A resident carried entry is the
            # group's only resident one, i.e. what this probe returns.
            stc_entry = self._stc_peek(group)
            if stc_entry is None:
                # Evicted between fill and serve by a competing access
                # burst; re-fetch (rare, only under extreme STC pressure).
                self._fetch_st_entry(
                    core_id,
                    group,
                    partial(
                        self._serve, core_id, group, slot, is_write, on_complete, None
                    ),
                )
                return
        # The resident entry's back-reference is the group's (unique,
        # lazily created once) ST entry: one probe resolves both.
        st_entry = stc_entry.st_entry
        location = st_entry.loc_of_slot[slot]
        served_from_m1 = location == 0

        # Per-block access counter (Figure 4), weighted per Section 4.1
        # (STCEntry.bump, inlined: saturating add on a resident counter).
        counters = stc_entry.counters
        counter_max = self._counter_max
        bumped = counters[slot] + self._access_weights[is_write]
        counters[slot] = bumped if bumped < counter_max else counter_max

        # RSM request counters (Table 3): one count per request, routed
        # to the requesting core's *program* (Section 3.1.1).
        program = self.program_of_core[core_id]
        region = self._region_of[group]
        self._rsm_on_request(
            program,
            region,
            self._private_of[program] == region,
            served_from_m1,
        )

        stats = self.core_stats[core_id]
        if served_from_m1:
            stats.served_from_m1 += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        # Migration decision (off the critical path, Section 3.2.3).
        # ``owner`` inlines owner_of_slot: frame = block_of(...) // 2.
        owner = self._frame_owners.get((slot * self._total_groups + group) >> 1)
        ctx = self._ctx
        ctx.core_id = core_id
        ctx.group = group
        ctx.slot = slot
        ctx.location = location
        ctx.is_write = is_write
        ctx.owner = owner
        ctx.m1_owner = st_entry.m1_owner
        ctx.st_entry = st_entry
        ctx.stc_entry = stc_entry
        ctx.now = now
        promote_slot = self._policy_on_access(ctx)

        key = group * self._group_size + location
        channel, bank_key, row = (
            self._data_locs.get(key) or self._fill_data_loc(group, location)
        )

        if (
            promote_slot is None
            or not self._swaps_enabled
            or (
                self._bypass_rng is not None
                and self._bypass_rng.random() < self._bypass_rate
            )
        ):
            # Common case: nothing to do at completion beyond notifying
            # the issuer, so its callback is passed through unwrapped.
            # (The noswap and probabilistic-bypass axes drop the decided
            # promotion here, before any completion hook is wrapped.)
            on_data_complete = on_complete
        else:
            on_data_complete = partial(
                self._complete_and_promote, group, promote_slot, on_complete
            )

        self._enqueue_soa[channel](
            bank_key, row, is_write, now, _KIND_DATA, on_data_complete
        )

    def _complete_and_promote(
        self,
        group: int,
        promote_slot: int,
        on_complete: Optional[CompletionCallback],
        cycle: int,
    ) -> None:
        """Completion hook for accesses whose policy decided a promotion."""
        self.request_promotion(group, promote_slot)
        if on_complete is not None:
            on_complete(cycle)

    # ------------------------------------------------------------------
    # Swaps
    # ------------------------------------------------------------------
    def request_promotion(self, group: int, slot: int) -> bool:
        """Promote ``slot``'s block into its group's M1 location.

        Returns False when the promotion is moot (block already in M1) or
        a swap for this group is still in flight.
        """
        if not self._swaps_enabled or group in self._swap_pending:
            return False
        st_entry = self.st.entry(group)
        if st_entry.location_of(slot) == 0:
            return False
        self._swap_pending.add(group)
        demote_slot = st_entry.m1_slot
        m2_location = st_entry.location_of(slot)
        key = group * self._group_size
        channel, m1_key, m1_row = (
            self._data_locs.get(key) or self._fill_data_loc(group, 0)
        )
        _, m2_key, m2_row = (
            self._data_locs.get(key + m2_location)
            or self._fill_data_loc(group, m2_location)
        )
        m2_bank = m2_key - self.address_map.banks

        owner_promoted = self.owner_of_slot(group, slot)
        owner_demoted = st_entry.m1_owner
        # Slow swap type (Table 1): the group's original mapping must be
        # restored before the new blocks exchange, costing an extra
        # block-move pass on the channel.  The smart style pays the
        # restore only when the exchange does not already re-home the
        # demoted block (i.e. the demoted block's new M2 location is not
        # its original slot).  Only these styles ask whether the group is
        # still unmapped, and they must ask before the swap below.
        style = self._swap_style
        restore = (
            style == "slow"
            or (style == "smart" and m2_location != demote_slot)
        ) and not st_entry.is_identity()
        st_entry.swap(slot, demote_slot)
        st_entry.m1_owner = owner_promoted

        region = self.address_map.region_of_group(group)
        if not self.region_map.is_private(region):
            # Swaps in private regions are not counted (Section 3.1.2).
            self.rsm.on_swap(owner_promoted, owner_demoted)
        # Explicit pair instead of iterating a {a, b} set literal: with a
        # None member, set order is address-dependent (D104), and dedup
        # must not rely on hashing.
        if owner_promoted is not None:
            self.core_stats[owner_promoted].swaps_involving += 1
        if owner_demoted is not None and owner_demoted != owner_promoted:
            self.core_stats[owner_demoted].swaps_involving += 1
        self.total_swaps += 1

        on_swap_done = partial(self._finish_swap, group)

        schedule_swap = self.channels[channel].schedule_swap
        if restore:
            schedule_swap(m1_key, m1_row, m2_bank, m2_row)
        schedule_swap(m1_key, m1_row, m2_bank, m2_row, on_swap_done)
        self.policy.on_swap(group, slot, demote_slot)
        return True

    def _finish_swap(self, group: int, cycle: int) -> None:
        self._swap_pending.discard(group)

    # ------------------------------------------------------------------
    # STC eviction handling
    # ------------------------------------------------------------------
    def _on_stc_eviction(self, stc_entry: STCEntry) -> None:
        st_entry = stc_entry.st_entry or self.st.entry(stc_entry.group)
        self.policy.on_st_eviction(stc_entry, st_entry)
        # max() over the 9 resident counters instead of a generator-any:
        # counters are non-negative, and evictions are frequent enough
        # under STC pressure for the generator frame to show up.
        if max(stc_entry.counters) > 0:
            # QAC values changed: write the ST entry back to M1 (the paper
            # notes this read-modify-write is typical regardless, Sec. 3.2.1).
            group = stc_entry.group
            channel, bank_key, row = (
                self._st_locs.get(group) or self._fill_st_loc(group)
            )
            self._enqueue_soa[channel](
                bank_key, row, True, self.events._now, _KIND_ST_WRITE
            )

    # ------------------------------------------------------------------
    # End-of-run bookkeeping and aggregate statistics
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Flush the STC so final MDM statistics and QAC values land.

        The flush runs after the event loop has stopped, so the ST
        write-backs it enqueues (one per evicted entry with a non-zero
        counter) never issue: they count in neither the channel
        statistics nor the energy.
        """
        self.stc.flush()
        # The requests/J numerator equals the per-core served counts, so
        # it is settled once here instead of incremented per request.
        self.energy.requests_served = self.total_requests()

    def release(self) -> None:
        """Break the controller's reference cycles; its run is over.

        The policy (``policy.bind``) and the STC (the eviction hook) each
        hold a way back to the controller, in-flight ST fetches hold
        continuations into it, and each channel holds callbacks into
        itself and the controller.  Statistics (``st``, ``rsm``,
        ``energy``, ``core_stats``, channel stats) stay readable.
        """
        self.policy.bind(None)
        self.stc.release()
        self._pending_fetches.clear()
        for channel in self.channels:
            channel.release()

    def total_requests(self) -> int:
        """Demand requests served across all cores."""
        return sum(stats.requests for stats in self.core_stats)

    def swap_fraction(self) -> float:
        """Swaps among all served requests (Section 5.4 reports this)."""
        total = self.total_requests()
        return self.total_swaps / total if total else 0.0

    def average_read_latency(self) -> float:
        """Mean demand-read latency in CPU cycles across channels."""
        latency_sum = sum(c.stats.read_latency_sum for c in self.channels)
        count = sum(c.stats.read_count for c in self.channels)
        return latency_sum / count if count else 0.0

    def stc_hit_rate(self) -> float:
        """STC hit rate (Figure 7)."""
        return self.stc.hit_rate

    def m1_utilization(self) -> float:
        """Fraction of M1 locations holding an allocated program's block.

        Section 4.2 observes M1 reaching 80% utilization within the first
        2% of execution; this is the corresponding measurement.
        """
        total = self.config.total_groups
        occupied = 0
        touched = set(self.st.touched_groups())
        for group in range(total):
            if group in touched:
                m1_slot = self.st.entry(group).m1_slot
            else:
                m1_slot = 0  # identity mapping
            if self.owner_of_slot(group, m1_slot) is not None:
                occupied += 1
        return occupied / total if total else 0.0
