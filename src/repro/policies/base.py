"""Migration-policy interface shared by baselines and the paper's schemes.

The memory controller calls :meth:`MigrationPolicy.on_access` for every
served data request, after updating the per-block access counters in the
STC.  For a request served from M2, the policy may return the slot of a
block to promote (almost always the accessed one); the controller then
commits the swap, blocks the channel for the swap latency, and notifies
the policy via :meth:`MigrationPolicy.on_swap`.  Migration decisions are
off the critical path (Section 3.2.3), so policy state may be read at
access time without a latency charge.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.common.config import SystemConfig
from repro.cache.stc import STCEntry
from repro.hybrid.st_entry import STEntry


@dataclass(slots=True)
class AccessContext:
    """Everything a policy may inspect about one served request.

    The controller keeps ONE mutable instance and rewrites its fields for
    every served request (a fresh context per request used to be one of
    the most-constructed objects in the simulator).  The contract for
    policies: read fields synchronously inside
    :meth:`MigrationPolicy.on_access`, never retain the object or
    schedule deferred work that dereferences it.
    """

    group: int
    #: Original slot of the accessed block.
    slot: int
    #: Current physical location of the accessed block (0 = M1).
    location: int
    is_write: bool
    #: Program owning the accessed block: the requesting core's program
    #: (program id = core id), whose page table mapped the line (so also
    #: its frame owner).
    owner: int
    #: Program owning the block currently in M1 of this group (c_M1).
    m1_owner: Optional[int]
    st_entry: STEntry
    stc_entry: STCEntry
    #: Decision cycle.
    now: int

    @property
    def in_m1(self) -> bool:
        """True when the accessed block was served from M1."""
        return self.location == 0

    @property
    def m1_slot(self) -> int:
        """Slot of the block currently occupying this group's M1 location."""
        return self.st_entry.m1_slot


class MigrationPolicy(ABC):
    """Base class for migration algorithms.

    Subclasses set :attr:`write_weight` — how many accesses one write
    counts as in the policy's statistics (Section 4.1: 8 for PoM, MDM, and
    ProFess in this technology setting; 1 for MemPod).
    """

    #: Canonical lowercase name used in experiment output.  Instances
    #: built through :func:`repro.policies.registry.build_policy` carry
    #: the spec's canonical string here (e.g. ``"profess+stc:lfu"``).
    name: str = "base"
    write_weight: int = 1
    #: Swap type per Table 1, fixed by the algorithm: *fast* swaps
    #: exchange any two blocks directly; *slow* swaps (SILC-FM) must
    #: first restore the group's original mapping, costing an extra
    #: block move when the group is already remapped.
    swap_style: str = "fast"
    #: Replacement policy of the STC array serving this policy's run
    #: (the registry's ``stc:`` axis sets it per instance).
    stc_replacement: str = "lru"

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self._controller = None

    def bind(self, controller) -> None:
        """Attach the memory controller (owner lookups, RSM, clock).

        Called once by :class:`~repro.hybrid.memory.HybridMemoryController`
        before the simulation starts, and with ``None`` by its
        ``release()`` once the simulation is over.
        """
        self._controller = controller

    @abstractmethod
    def on_access(self, ctx: AccessContext) -> Optional[int]:
        """Inspect one served request; return a slot to promote, or None.

        Returning ``ctx.slot`` promotes the accessed block into this
        group's M1 location (demoting the current resident).  Only blocks
        currently in M2 may be promoted.
        """

    def on_swap(
        self, group: int, promoted_slot: int, demoted_slot: int
    ) -> None:
        """Notification that a swap committed (override as needed)."""

    def on_st_eviction(self, stc_entry: STCEntry, st_entry: STEntry) -> None:
        """ST-entry eviction from the STC (MDM's statistics hook)."""

    def access_weight(self, is_write: bool) -> int:
        """Weight of one request in this policy's access statistics."""
        return self.write_weight if is_write else 1
