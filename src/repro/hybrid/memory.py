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

# Queue tags of the request kinds, as ``Channel.enqueue_soa`` takes them:
# ``RequestKind.DATA/ST_READ/ST_WRITE << 3``, kept as plain ints so the
# per-request path pushes precomputed values instead of enum arithmetic.
_TAG_DATA = 0
_TAG_ST_READ = 1 << 3
_TAG_ST_WRITE = 2 << 3


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
        "_slow_swaps",
        "_stc_latency",
        "_access_weights",
        "_counter_max",
        "_total_groups",
        "_stc_lookup",
        "_stc_peek",
        "_stc_insert",
        "_serve_cb",
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
        "_private_of",
        "_rsm_on_request",
        "_policy_on_access",
        "_policy_on_st_eviction",
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
        num_programs: Optional[int] = None,
    ) -> None:
        self.config = config
        self.events = events
        self.policy = policy
        # One single-threaded program per core: cores 0..num_programs-1
        # run programs 0..num_programs-1 (program id = core id), and the
        # rest stay idle, owning no private region and no RSM counter
        # set.  Default: every core runs a program.
        if num_programs is None:
            num_programs = config.num_cores
        if not 1 <= num_programs <= config.num_cores:
            raise ConfigError(
                f"num_programs must be 1..{config.num_cores}, "
                f"got {num_programs}"
            )
        self.num_programs = num_programs
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
        # The policy fixes its swap type (Table 1) and carries the STC
        # replacement its spec resolved (repro.policies.registry).
        self._slow_swaps = policy.swap_style == "slow"
        self.stc = STC(
            num_sets=config.stc.num_sets,
            associativity=config.stc.associativity,
            group_size=config.hybrid.group_size,
            counter_max=config.mdm.access_counter_max,
            replacement=policy.stc_replacement,
        )
        self.stc.on_eviction(self._on_stc_eviction)
        self.region_map = RegionMap(self.address_map, self.num_programs)
        self.allocator = OSAllocator(
            self.address_map, self.region_map, make_rng(seed, "os-allocator")
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
        # per-request path.  ``_serve_cb`` is the one bound ``_serve``
        # every continuation partial wraps (dropped by ``release``).
        self._stc_lookup = self.stc.lookup
        self._stc_peek = self.stc.peek
        self._stc_insert = self.stc.insert
        self._serve_cb = self._serve
        # The address split ``access`` inlines (AddressMap's shifts).
        self._lines_shift = self.address_map.lines_shift
        self._groups_mask = self.address_map.groups_mask
        self._groups_shift = self.address_map.groups_shift
        # Region of every group, tabulated once: ``_serve`` replaces the
        # per-request arithmetic call with one list index.
        self._region_of = self.address_map.region_of_groups(
            np.arange(config.total_groups, dtype=np.int64)
        ).tolist()
        # The location lists themselves, so every request after the
        # first touch of a location is one list index; None there means
        # not yet filled.
        self._data_locs = self.address_map.data_locs
        self._fill_data_loc = self.address_map.fill_data_loc
        self._st_locs = self.address_map.st_locs
        self._fill_st_loc = self.address_map.fill_st_loc
        self._group_size = config.hybrid.group_size
        # The allocator's own owner list (read only), indexed by frame.
        self._frame_owners = self.allocator.frame_owners
        # Per-program private-region ids as a list: the region map never
        # reassigns private regions after construction, and the request
        # path compares one per served request.
        private_region = self.region_map.private_region
        self._private_of = [
            private_region[program] for program in range(self.num_programs)
        ]
        self._rsm_on_request = self.rsm.on_request
        self._policy_on_access = policy.on_access
        self._policy_on_st_eviction = policy.on_st_eviction
        # One reusable AccessContext, mutated per request.  Safe because
        # the policy contract (see AccessContext) forbids retaining the
        # context beyond ``on_access``; reusing the instance removes the
        # second-largest allocation on the request path.
        self._ctx = AccessContext(
            group=0,
            slot=0,
            location=0,
            is_write=False,
            owner=0,
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

        Inlines ``allocator.owner_of_block(address_map.block_of(...))``.
        """
        return self._frame_owners[(slot * self._total_groups + group) >> 1]

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
        block = line >> self._lines_shift
        group = block & self._groups_mask
        slot = block >> self._groups_shift
        stc_entry = self._stc_lookup(group)
        # One bound ``_serve`` under a partial instead of a fresh closure
        # per request: same callback shape, far less allocation.
        if stc_entry is not None:
            # The serve hop carries the probed entry, so it need not
            # probe again.  Inline-push contract (events.py): the STC hit
            # lands a strictly-future cycle (STCConfig makes
            # latency_cycles >= 1), so it goes straight onto the heap.
            # ``events._now`` directly: the ``now`` property costs a
            # descriptor call per request here.
            proceed = partial(
                self._serve_cb,
                core_id,
                group,
                slot,
                is_write,
                on_complete,
                stc_entry,
            )
            events = self.events
            seq = events._seq
            _heappush(
                events._heap, (events._now + self._stc_latency, seq, proceed)
            )
            events._seq = seq + 1
        else:
            # The fill hands the entry it inserts to the serve hop.
            self._fetch_st_entry(
                group,
                partial(self._serve_cb, core_id, group, slot, is_write, on_complete),
            )

    def _fetch_st_entry(
        self, group: int, continuation: Callable[[STCEntry, int], None]
    ) -> None:
        """Fetch a missing ST entry from M1; coalesce concurrent misses.

        Every ``continuation`` waiting on the fetch is called with the
        filled STC entry and the fill cycle.
        """
        waiting = self._pending_fetches.get(group)
        if waiting is not None:
            waiting.append(continuation)
            return
        self._pending_fetches[group] = [continuation]
        channel, bank_key, row = self._st_locs[group] or self._fill_st_loc(group)
        self._enqueue_soa[channel](
            bank_key,
            row,
            False,
            self.events._now,
            _TAG_ST_READ,
            partial(self._fill_st_entry, group),
        )

    def _fill_st_entry(self, group: int, cycle: int) -> None:
        """ST-entry fetch completion: fill the STC, release waiters.

        Each waiter gets the entry just inserted.  Nothing a waiter's
        serve does inserts into the STC, so the entry stays resident
        while the waiters run: it is what a fresh probe would return.
        """
        st_entry = self.st.entry(group)
        stc_entry = self._stc_insert(group, tuple(st_entry.qac), st_entry)
        for waiting in self._pending_fetches.pop(group):
            waiting(stc_entry, cycle)

    def _serve(
        self,
        core_id: int,
        group: int,
        slot: int,
        is_write: bool,
        on_complete: Optional[CompletionCallback],
        stc_entry: STCEntry,
        now: int,
    ) -> None:
        if not stc_entry.resident:
            # The entry carried from the hit was evicted since (a fill's
            # stays resident while its waiters run): probe again.  A
            # resident carried entry is the group's only resident one,
            # i.e. what this probe returns.
            stc_entry = self._stc_peek(group)
            if stc_entry is None:
                # Evicted between hit and serve by a competing access
                # burst; re-fetch (rare, only under extreme STC pressure).
                self._fetch_st_entry(
                    group,
                    partial(
                        self._serve_cb, core_id, group, slot, is_write, on_complete
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
        # to the requesting core's program (program id = core id).
        region = self._region_of[group]
        self._rsm_on_request(
            core_id,
            region,
            self._private_of[core_id] == region,
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
        # The block's owner is the requesting core's program: its lines
        # are translated by that program's own page table, so
        # ``owner_of_slot(group, slot)`` is ``core_id`` here.
        ctx = self._ctx
        ctx.group = group
        ctx.slot = slot
        ctx.location = location
        ctx.is_write = is_write
        ctx.owner = core_id
        ctx.m1_owner = st_entry.m1_owner
        ctx.st_entry = st_entry
        ctx.stc_entry = stc_entry
        ctx.now = now
        promote_slot = self._policy_on_access(ctx)

        channel, bank_key, row = self._data_locs[
            group * self._group_size + location
        ] or self._fill_data_loc(group, location)

        if promote_slot is None:
            # Common case: nothing to do at completion beyond notifying
            # the issuer, so its callback is passed through unwrapped.
            on_data_complete = on_complete
        else:
            on_data_complete = partial(
                self._complete_and_promote, group, promote_slot, on_complete
            )

        self._enqueue_soa[channel](
            bank_key, row, is_write, now, _TAG_DATA, on_data_complete
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
        if group in self._swap_pending:
            return False
        st_entry = self.st.entry(group)
        m2_location = st_entry.loc_of_slot[slot]
        if m2_location == 0:
            return False
        self._swap_pending.add(group)
        demote_slot = st_entry.slot_of_loc[0]
        key = group * self._group_size
        data_locs = self._data_locs
        channel, m1_key, m1_row = data_locs[key] or self._fill_data_loc(group, 0)
        _, m2_key, m2_row = data_locs[key + m2_location] or self._fill_data_loc(
            group, m2_location
        )
        m2_bank = m2_key - self.address_map.banks

        owner_promoted = self._frame_owners[(slot * self._total_groups + group) >> 1]
        owner_demoted = st_entry.m1_owner
        # Slow swap type (Table 1): the group's original mapping must be
        # restored before the new blocks exchange, costing an extra
        # block-move pass on the channel.  Only slow swaps ask whether the
        # group is still unmapped, and they must ask before the swap below.
        restore = self._slow_swaps and not st_entry.is_identity()
        st_entry.swap(slot, demote_slot)
        st_entry.m1_owner = owner_promoted

        if not self.region_map.is_private(self._region_of[group]):
            # Swaps in private regions are not counted (Section 3.1.2).
            self.rsm.on_swap(owner_promoted, owner_demoted)
        # A program id is its core id, so the owners index the per-core
        # stats.  Explicit pair instead of iterating a {a, b} set literal:
        # with a None member, set order is address-dependent (D104), and
        # dedup must not rely on hashing.
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
        group = stc_entry.group
        self._policy_on_st_eviction(
            stc_entry, stc_entry.st_entry or self.st.entry(group)
        )
        # any() over the 9 resident (non-negative) counters: true when
        # one was accessed, found in C without a generator frame.
        if any(stc_entry.counters):
            # QAC values changed: write the ST entry back to M1 (the paper
            # notes this read-modify-write is typical regardless, Sec. 3.2.1).
            channel, bank_key, row = self._st_locs[group] or self._fill_st_loc(
                group
            )
            self._enqueue_soa[channel](
                bank_key, row, True, self.events._now, _TAG_ST_WRITE
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
        continuations into it, the controller holds its own bound
        ``_serve``, and each channel holds callbacks into itself and the
        controller.  Statistics (``st``, ``rsm``,
        ``energy``, ``core_stats``, channel stats) stay readable.
        """
        self.policy.bind(None)
        self.stc.release()
        self._pending_fetches.clear()
        del self._serve_cb
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
