"""Address arithmetic of the flat migrating organization.

Original (OS-visible) physical addresses are numbered in 2-KB blocks over
the full M1+M2 capacity.  With G total swap groups and group size S = 9:

* ``group(b) = b mod G`` — consecutive blocks land in consecutive groups,
  so a 4-KB page (two blocks) maps to two consecutive swap groups, matching
  Figure 3.
* ``slot(b) = b div G`` — the block's home location inside its group
  (slot 0's home is the M1 location; slots 1..8 are M2 locations).

Channels interleave at swap-group granularity (``channel = g mod C``), and
regions follow Figure 3's pattern: group pair (2k, 2k+1) belongs to region
``k mod num_regions``.

Every quantity here is a pure function of the configuration, so the
per-request work is precomputed where it pays: the configuration makes
groups, lines per block and regions powers of two, so the splits are
masks and shifts fixed at construction time, and the simulator reads
device locations as plain ``(channel, bank_key, row)`` tuples from two
flat lists (data blocks and ST entries) that integer arithmetic fills
on first touch.  The lists have a slot per location (9,216 data slots at
quad-core scale 128, 1.18M at scale 1), so a request indexes one instead
of probing a dict.  :meth:`AddressMap.data_location` and
:meth:`AddressMap.st_location` spell the same mapping out as
:class:`BlockLocation` objects; they are the reference the lists are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.config import SystemConfig
from repro.common.units import log2_exact
from repro.mem.request import DeviceAddress, Module


@dataclass(frozen=True)
class BlockLocation:
    """Where a block currently lives: channel + device address.

    ``bank_key`` and ``row`` are the flat spellings
    ``Channel.enqueue_soa`` consumes (``bank_key = module *
    banks_per_rank + bank``), as in the simulator's location tuples.
    """

    channel: int
    address: DeviceAddress
    #: Global bank key within the channel (module * banks_per_rank + bank).
    bank_key: int = 0
    #: Device row (negative namespace for ST entries), duplicated from
    #: ``address.row`` for flat access.
    row: int = 0


class AddressMap:
    """Pure-arithmetic mapping between blocks, groups, pages, and devices."""

    def __init__(self, config: SystemConfig) -> None:
        hybrid = config.hybrid
        self.num_channels = config.num_channels
        self.group_size = hybrid.group_size
        self.groups_per_channel = hybrid.groups_per_channel
        self.total_groups = config.total_groups
        self.total_blocks = config.total_blocks
        self.total_pages = config.total_pages
        self.num_regions = hybrid.num_regions
        self.blocks_per_row = hybrid.blocks_per_row
        self.banks = hybrid.banks_per_rank
        self.lines_per_block = hybrid.lines_per_block
        #: 8-B ST entries per 64-B line, and 64-B lines per 8-KB row.
        self.st_entries_per_line = 64 // 8
        self.st_lines_per_row = hybrid.row_buffer_size // hybrid.line_size
        # Powers of two by construction (HybridMemoryConfig and
        # SystemConfig check them), so each split is a mask or a shift.
        self.groups_mask = self.total_groups - 1
        self.groups_shift = log2_exact(self.total_groups)
        self.lines_shift = log2_exact(self.lines_per_block)
        self._regions_mask = self.num_regions - 1
        #: Lazily filled ``(channel, bank_key, row)`` tuples, indexed by
        #: ``group * group_size + location`` (data) and by group (ST);
        #: None until first touch.  The controller indexes them directly
        #: and calls :meth:`fill_data_loc` / :meth:`fill_st_loc` on None.
        self.data_locs: list[Optional[tuple[int, int, int]]] = [None] * (
            self.total_groups * self.group_size
        )
        self.st_locs: list[Optional[tuple[int, int, int]]] = [
            None
        ] * self.total_groups
        self._st_entries_per_row = (
            self.st_entries_per_line * self.st_lines_per_row
        )

    # -- block/group arithmetic -----------------------------------------
    def group_of_block(self, block: int) -> int:
        """Swap group of an original block address."""
        return block & self.groups_mask

    def slot_of_block(self, block: int) -> int:
        """Home slot (0..group_size-1) of an original block address."""
        return block >> self.groups_shift

    def block_of(self, group: int, slot: int) -> int:
        """Original block address for (group, slot)."""
        return slot * self.total_groups + group

    def channel_of_group(self, group: int) -> int:
        """Channel serving a swap group."""
        return group % self.num_channels

    def channel_group_index(self, group: int) -> int:
        """Group index local to its channel."""
        return group // self.num_channels

    # -- regions and pages (Figure 3) ------------------------------------
    def region_of_group(self, group: int) -> int:
        """Interleaved region of a swap group: pair (2k, 2k+1) -> k mod R."""
        return (group >> 1) & self._regions_mask

    def region_of_groups(self, groups: np.ndarray) -> np.ndarray:
        """:meth:`region_of_group` over an array of (non-negative) groups."""
        return (groups >> 1) & self._regions_mask

    def region_of_pages(self, pages: np.ndarray) -> np.ndarray:
        """:meth:`region_of_page` over an array of (non-negative) frames."""
        return self.region_of_groups((2 * pages) % self.total_groups)

    def page_of_block(self, block: int) -> int:
        """4-KB OS page frame containing an original block."""
        return block // 2

    def blocks_of_page(self, page: int) -> tuple[int, int]:
        """The two 2-KB blocks of a page frame."""
        return 2 * page, 2 * page + 1

    def region_of_page(self, page: int) -> int:
        """Region of a page frame; both of its blocks share this region."""
        return self.region_of_group(self.group_of_block(2 * page))

    def segment_of_page(self, page: int) -> int:
        """Home slot shared by both blocks of the page (0 = M1-home)."""
        return self.slot_of_block(2 * page)

    # -- device addresses --------------------------------------------------
    def fill_data_loc(self, group: int, location: int) -> tuple[int, int, int]:
        """Memoize and return :meth:`data_location` as a flat tuple."""
        local, channel = divmod(group, self.num_channels)
        if location:
            block_index = local * (self.group_size - 1) + location - 1
            base = self.banks  # M2's bank keys follow M1's
        else:
            block_index = local
            base = 0
        row, bank = divmod(block_index // self.blocks_per_row, self.banks)
        loc = (channel, base + bank, row)
        self.data_locs[group * self.group_size + location] = loc
        return loc

    def fill_st_loc(self, group: int) -> tuple[int, int, int]:
        """Memoize and return :meth:`st_location` as a flat tuple."""
        local, channel = divmod(group, self.num_channels)
        row, bank = divmod(local // self._st_entries_per_row, self.banks)
        loc = (channel, bank, -1 - row)
        self.st_locs[group] = loc
        return loc

    def data_location(self, group: int, location: int) -> BlockLocation:
        """Device address of a swap-group location's 2-KB block.

        ``location`` 0 is the group's M1 block; 1..group_size-1 are its M2
        blocks.  Consecutive blocks within a module share rows
        (``blocks_per_row`` per row) and rows interleave across banks.
        """
        channel = self.channel_of_group(group)
        local = self.channel_group_index(group)
        if location == 0:
            module = Module.M1
            block_index = local
        else:
            module = Module.M2
            block_index = local * (self.group_size - 1) + (location - 1)
        row_global = block_index // self.blocks_per_row
        bank = row_global % self.banks
        row = row_global // self.banks
        return BlockLocation(
            channel,
            DeviceAddress(module, bank, row),
            module * self.banks + bank,
            row,
        )

    def st_location(self, group: int) -> BlockLocation:
        """Device address of a group's ST entry (stored in M1, Sec. 2.2).

        ST rows use a disjoint negative row namespace so table traffic
        contends for M1 banks without aliasing data rows.
        """
        channel = self.channel_of_group(group)
        local = self.channel_group_index(group)
        line = local // self.st_entries_per_line
        row_global = line // self.st_lines_per_row
        bank = row_global % self.banks
        row = -1 - (row_global // self.banks)
        return BlockLocation(
            channel, DeviceAddress(Module.M1, bank, row), bank, row
        )
