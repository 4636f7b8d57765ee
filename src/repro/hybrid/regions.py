"""Interleaved regions and OS page-frame allocation (Section 3.1.1).

Memory is divided into ``num_regions`` interleaved regions along the swap
groups (Figure 3).  One region per program is *private*: the OS allocates
its page frames only to that program.  All other regions are *shared*.
The OS keeps per-region free-frame lists; the memory controller decodes a
request's region from the group number and the region map.

The allocator hands frames to a program by rotating round-robin over its
allowed regions, drawing from a per-region shuffled free list that mixes
M1-home and M2-home segments.  This spreads every program's footprint
nearly uniformly across regions and segments — the property RSM's
private-region sampling relies on (Section 3.1.3) — while remaining a
plausible first-touch OS policy.
"""

from __future__ import annotations

from itertools import cycle
from typing import Optional

import numpy as np

from repro.common.errors import ConfigError, SimulationError
from repro.hybrid.address import AddressMap


class RegionMap:
    """Region typing: which region is private to which program."""

    def __init__(self, address_map: AddressMap, num_programs: int) -> None:
        if num_programs >= address_map.num_regions:
            raise ConfigError("more programs than regions")
        self.num_programs = num_programs
        #: Program -> its private region.  Regions 0..num_programs-1 are
        #: dedicated; the remainder are shared.
        self.private_region = {pid: pid for pid in range(num_programs)}
        shared = tuple(range(num_programs, address_map.num_regions))
        self._allowed = {
            pid: (region,) + shared
            for pid, region in self.private_region.items()
        }

    def is_private_to(self, region: int, program: int) -> bool:
        """True if ``region`` is ``program``'s own private region."""
        return self.private_region.get(program) == region

    def is_private(self, region: int) -> bool:
        """True if ``region`` is private to any program."""
        return region < self.num_programs

    def allowed_regions(self, program: int) -> tuple[int, ...]:
        """Regions whose frames ``program`` may receive: its private
        region, then every shared region in ascending order."""
        return self._allowed[program]


class OSAllocator:
    """Per-region free-frame accounting and program page allocation."""

    def __init__(
        self,
        address_map: AddressMap,
        region_map: RegionMap,
        rng: np.random.Generator,
    ) -> None:
        self._map = address_map
        self._regions = region_map
        #: region -> stack of free frame numbers (pre-shuffled).  Each
        #: list starts in ascending frame order and is shuffled in region
        #: order, so frame placement is a function of the seed alone.
        #: A stable sort by region lists every region's frames in
        #: ascending order, one region after another.
        regions = address_map.region_of_pages(
            np.arange(address_map.total_pages, dtype=np.int64)
        )
        by_region: list[int] = np.argsort(regions, kind="stable").tolist()
        counts = np.bincount(regions, minlength=address_map.num_regions)
        self._free: dict[int, list[int]] = {}
        start = 0
        for region, count in enumerate(counts.tolist()):
            frames = by_region[start:start + count]
            start += count
            # Shuffling a list draws exactly what shuffling an ndarray
            # of the same length would, and is faster at region sizes.
            rng.shuffle(frames)
            self._free[region] = frames
        #: Owning program of every frame, indexed by frame (None = free).
        #: One slot per page any block maps to: with an odd block count
        #: the last block's half page is never allocated, yet indexable.
        self._owner: list[Optional[int]] = [None] * (
            (address_map.total_blocks + 1) // 2
        )

    def allocate(self, program: int, num_pages: int) -> list[int]:
        """Allocate ``num_pages`` frames to ``program``.

        Frames rotate round-robin over the program's allowed regions
        (private region included on equal footing), skipping exhausted
        regions.  Raises SimulationError when memory is exhausted.
        """
        free_lists = [
            self._free[region]
            for region in self._regions.allowed_regions(program)
        ]
        owner = self._owner
        frames: list[int] = []
        misses = 0
        for free in cycle(free_lists):
            if len(frames) >= num_pages:
                break
            if free:
                frame = free.pop()
                owner[frame] = program
                frames.append(frame)
                misses = 0
            else:
                misses += 1
                if misses >= len(free_lists):
                    raise SimulationError(
                        f"out of memory allocating page {len(frames)} of "
                        f"{num_pages} for program {program}"
                    )
        return frames

    @property
    def frame_owners(self) -> list[Optional[int]]:
        """Live owning program of every frame, indexed by frame (None =
        free).

        The list object is stable for the allocator's lifetime (allocate
        writes its slots in place), so hot paths may hold a direct
        reference and index it instead of paying two method calls per
        request.  Callers must treat it as read-only.
        """
        return self._owner

    def owner_of_frame(self, frame: int) -> Optional[int]:
        """Program owning a frame, or None if free."""
        return self._owner[frame]

    def owner_of_block(self, block: int) -> Optional[int]:
        """Program owning an original block address, or None."""
        return self._owner[self._map.page_of_block(block)]


class PageTable:
    """One program's virtual-to-physical page mapping.

    Programs address their footprint with virtual page numbers 0..N-1;
    the constructor pre-allocates all frames (the traces' working sets
    are touched quickly, so first-touch and pre-allocation coincide).
    """

    def __init__(
        self, program: int, allocator: OSAllocator, num_pages: int
    ) -> None:
        self.program = program
        self._frames = allocator.allocate(program, num_pages)
        self._num_pages = len(self._frames)

    @property
    def num_pages(self) -> int:
        """Pages in this program's footprint."""
        return self._num_pages

    def translate_line(self, virtual_line: int, lines_per_page: int) -> int:
        """Virtual 64-B line number -> physical (original) line number.

        Pages past the footprint wrap around it.  The scalar reference
        for :meth:`translate_lines`.
        """
        vpage, offset = divmod(virtual_line, lines_per_page)
        return self._frames[vpage % self._num_pages] * lines_per_page + offset

    def translate_lines(
        self, virtual_lines: np.ndarray, lines_per_page: int
    ) -> np.ndarray:
        """:meth:`translate_line` over a whole trace's line stream.

        Every frame is allocated at construction, so the simulation
        driver translates each trace once per run instead of once per
        request.
        """
        vpages, offsets = np.divmod(
            np.asarray(virtual_lines, dtype=np.int64), lines_per_page
        )
        frames = np.asarray(self._frames, dtype=np.int64)
        return frames[vpages % self._num_pages] * lines_per_page + offsets
