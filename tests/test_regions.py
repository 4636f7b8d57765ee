"""Region map and OS page-frame allocator tests (Section 3.1.1)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import paper_quad_core, paper_single_core
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import make_rng
from repro.hybrid.address import AddressMap
from repro.hybrid.regions import OSAllocator, PageTable, RegionMap


@pytest.fixture()
def setup():
    amap = AddressMap(paper_quad_core(scale=64))
    regions = RegionMap(amap, num_programs=4)
    allocator = OSAllocator(amap, regions, make_rng(0, "test-alloc"))
    return amap, regions, allocator


class TestRegionMap:
    def test_private_regions_are_first(self, setup):
        _amap, regions, _alloc = setup
        assert regions.private_region == {0: 0, 1: 1, 2: 2, 3: 3}
        assert regions.is_private(0)
        assert not regions.is_private(4)

    def test_is_private_to(self, setup):
        _amap, regions, _alloc = setup
        assert regions.is_private_to(2, 2)
        assert not regions.is_private_to(2, 1)

    def test_allowed_regions_exclude_other_private(self, setup):
        _amap, regions, _alloc = setup
        allowed = regions.allowed_regions(1)
        assert 1 in allowed
        assert 0 not in allowed
        assert 2 not in allowed
        assert len(allowed) == 128 - 4 + 1

    def test_rejects_too_many_programs(self, setup):
        amap, _regions, _alloc = setup
        with pytest.raises(ConfigError):
            RegionMap(amap, num_programs=128)


def _loop_free_lists(amap, rng):
    """The per-page loop the allocator's vectorized free lists replace."""
    free = {region: [] for region in range(amap.num_regions)}
    for page in range(amap.total_pages):
        free[amap.region_of_page(page)].append(page)
    for frames in free.values():
        rng.shuffle(frames)
    return free


class TestAllocator:
    def test_free_lists_match_the_per_page_loop(self, setup):
        amap, regions, _alloc = setup
        allocator = OSAllocator(amap, regions, make_rng(3, "alloc"))
        reference = _loop_free_lists(amap, make_rng(3, "alloc"))
        assert list(allocator._free) == list(reference)
        assert allocator._free == reference

    def test_allocates_requested_count(self, setup):
        _amap, _regions, alloc = setup
        frames = alloc.allocate(0, 100)
        assert len(frames) == 100
        assert len(set(frames)) == 100

    def test_private_frames_only_to_owner(self, setup):
        amap, regions, alloc = setup
        for program in range(4):
            frames = alloc.allocate(program, 500)
            for frame in frames:
                region = amap.region_of_page(frame)
                if regions.is_private(region):
                    assert region == regions.private_region[program]

    def test_owner_tracking(self, setup):
        amap, _regions, alloc = setup
        frames = alloc.allocate(2, 10)
        for frame in frames:
            assert alloc.owner_of_frame(frame) == 2
            block = 2 * frame
            assert alloc.owner_of_block(block) == 2

    def test_unallocated_is_none(self, setup):
        amap, _regions, alloc = setup
        frames = alloc.allocate(1, 10)
        assert [alloc.owner_of_frame(frame) for frame in frames] == [1] * 10
        taken = set(frames)
        unallocated = [
            frame for frame in range(amap.total_pages) if frame not in taken
        ]
        assert all(alloc.owner_of_frame(frame) is None for frame in unallocated)

    def test_exhaustion_raises(self, setup):
        amap, _regions, alloc = setup
        with pytest.raises(SimulationError):
            alloc.allocate(0, amap.total_pages + 1)

    def test_spread_across_regions(self, setup):
        amap, regions, alloc = setup
        frames = alloc.allocate(0, 1000)
        touched = {amap.region_of_page(f) for f in frames}
        # Round-robin across 125 allowed regions: all should be touched.
        assert len(touched) == len(regions.allowed_regions(0))

    def test_spread_across_segments(self, setup):
        amap, _regions, alloc = setup
        frames = alloc.allocate(0, 2000)
        segments = {amap.segment_of_page(f) for f in frames}
        assert segments == set(range(amap.group_size))


class TestPageTable:
    def test_translation_stable(self, setup):
        _amap, _regions, alloc = setup
        table = PageTable(0, alloc, num_pages=16)
        first = table.translate_line(100, 64)
        assert table.translate_line(100, 64) == first

    def test_offset_preserved(self, setup):
        _amap, _regions, alloc = setup
        table = PageTable(0, alloc, num_pages=16)
        physical = table.translate_line(3 * 64 + 17, 64)
        assert physical % 64 == 17

    def test_distinct_pages_distinct_frames(self, setup):
        _amap, _regions, alloc = setup
        table = PageTable(0, alloc, num_pages=8)
        frames = {table.translate_line(v * 64, 64) // 64 for v in range(8)}
        assert len(frames) == 8

    @given(
        num_pages=st.integers(min_value=1, max_value=40),
        lines_per_page=st.sampled_from([64, 1, 7, 32, 100]),
        lines=st.lists(st.integers(min_value=0, max_value=10_000), max_size=50),
    )
    def test_translate_lines_matches_translate_line(
        self, num_pages, lines_per_page, lines
    ):
        # Lines run far past the footprint, so pages wrap around it.
        amap = AddressMap(paper_quad_core(scale=64))
        regions = RegionMap(amap, num_programs=4)
        allocator = OSAllocator(amap, regions, make_rng(0, "test-alloc"))
        table = PageTable(1, allocator, num_pages=num_pages)
        translated = table.translate_lines(
            np.array(lines, dtype=np.int64), lines_per_page
        )
        assert translated.dtype == np.int64
        assert translated.tolist() == [
            table.translate_line(line, lines_per_page) for line in lines
        ]


class MaskLoopAllocator:
    """The allocator's earlier build and allocate loop: one boolean mask
    over every page per region, and the allowed regions rebuilt on every
    allocate.  The lockstep reference for :class:`OSAllocator`."""

    def __init__(self, amap, num_programs, rng):
        self.num_programs = num_programs
        self.num_regions = amap.num_regions
        pages = np.arange(amap.total_pages, dtype=np.int64)
        regions = amap.region_of_pages(pages)
        self.free = {
            region: pages[regions == region].tolist()
            for region in range(amap.num_regions)
        }
        for frames in self.free.values():
            rng.shuffle(frames)
        self.owner = {}

    def allocate(self, program, num_pages):
        allowed = [program] + [
            region
            for region in range(self.num_regions)
            if not region < self.num_programs
        ]
        frames = []
        cursor = 0
        misses = 0
        while len(frames) < num_pages:
            region = allowed[cursor % len(allowed)]
            cursor += 1
            free = self.free[region]
            if free:
                frame = free.pop()
                self.owner[frame] = program
                frames.append(frame)
                misses = 0
            else:
                misses += 1
                if misses >= len(allowed):
                    raise SimulationError(
                        f"out of memory allocating page {len(frames)} of "
                        f"{num_pages} for program {program}"
                    )
        return frames


#: (system, scale, regions, programs); 8 and 4 regions exhaust quickly.
GEOMETRIES = (
    (paper_quad_core, 64, 128, 4),
    (paper_quad_core, 128, 128, 4),
    (paper_quad_core, 128, 8, 4),
    (paper_quad_core, 256, 32, 3),
    (paper_single_core, 128, 128, 1),
    (paper_single_core, 128, 4, 1),
)


@lru_cache(maxsize=None)
def _address_map(index):
    system, scale, num_regions, _programs = GEOMETRIES[index]
    return AddressMap(system(scale=scale, num_regions=num_regions))


def _lockstep(index, seed):
    amap = _address_map(index)
    num_programs = GEOMETRIES[index][3]
    rng, reference_rng = make_rng(seed, "alloc"), make_rng(seed, "alloc")
    allocator = OSAllocator(amap, RegionMap(amap, num_programs), rng)
    reference = MaskLoopAllocator(amap, num_programs, reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert list(allocator._free) == list(reference.free)
    assert allocator._free == reference.free
    return allocator, reference, num_programs


def _step(allocator, reference, program, pages):
    """Allocate on both; True when the reference ran out of memory."""
    try:
        expected = reference.allocate(program, pages)
    except SimulationError as error:
        with pytest.raises(SimulationError) as raised:
            allocator.allocate(program, pages)
        assert str(raised.value) == str(error)
        exhausted = True
    else:
        assert allocator.allocate(program, pages) == expected
        exhausted = False
    assert allocator._free == reference.free
    # The allocator's owner list holds None for every free frame.
    owners = allocator.frame_owners
    assert {
        frame: owner for frame, owner in enumerate(owners) if owner is not None
    } == reference.owner
    return exhausted


class TestAllocatorLockstep:
    @settings(max_examples=40, deadline=None)
    @given(
        index=st.integers(0, len(GEOMETRIES) - 1),
        seed=st.integers(0, 10_000),
        requests=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2500)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_matches_the_mask_loop(self, index, seed, requests):
        allocator, reference, num_programs = _lockstep(index, seed)
        for program, pages in requests:
            _step(allocator, reference, program % num_programs, pages)

    @pytest.mark.parametrize("index", range(len(GEOMETRIES)))
    def test_exhaustion_matches_the_mask_loop(self, index):
        allocator, reference, num_programs = _lockstep(index, 5)
        total = _address_map(index).total_pages
        # Every program runs dry in turn; later ones find only their own
        # private region left, and in the end no frame is free.
        for program in range(num_programs):
            assert _step(allocator, reference, program, total + 1)
        assert not any(reference.free.values())
