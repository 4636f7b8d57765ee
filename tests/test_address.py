"""Address-map arithmetic tests (Section 2.3 / Figure 3)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import (
    HybridMemoryConfig,
    paper_quad_core,
    paper_single_core,
)
from repro.common.events import EventQueue
from repro.hybrid.address import AddressMap
from repro.hybrid.memory import HybridMemoryController
from repro.mem.request import Module
from repro.policies.base import MigrationPolicy


@pytest.fixture(scope="module")
def amap():
    return AddressMap(paper_quad_core(scale=64))


class TestBlockGroupSlot:
    def test_roundtrip(self, amap):
        for block in (0, 1, amap.total_blocks - 1, 12345):
            group = amap.group_of_block(block)
            slot = amap.slot_of_block(block)
            assert amap.block_of(group, slot) == block

    def test_slot_zero_is_first_segment(self, amap):
        assert amap.slot_of_block(0) == 0
        assert amap.slot_of_block(amap.total_groups) == 1

    def test_nine_slots(self, amap):
        last_block = amap.total_blocks - 1
        assert amap.slot_of_block(last_block) == amap.group_size - 1

    @given(st.integers(min_value=0))
    def test_roundtrip_property(self, amap, block):
        block %= amap.total_blocks
        group = amap.group_of_block(block)
        slot = amap.slot_of_block(block)
        assert 0 <= group < amap.total_groups
        assert 0 <= slot < amap.group_size
        assert amap.block_of(group, slot) == block


class TestRegions:
    def test_figure3_pattern(self, amap):
        # Groups (0, 1) -> region 0; (2, 3) -> region 1; wrap after 128.
        assert amap.region_of_group(0) == 0
        assert amap.region_of_group(1) == 0
        assert amap.region_of_group(2) == 1
        assert amap.region_of_group(3) == 1
        assert amap.region_of_group(256) == 0

    def test_page_maps_to_consecutive_groups(self, amap):
        # The two blocks of any page land in consecutive swap groups.
        for page in (0, 7, 100):
            b0, b1 = amap.blocks_of_page(page)
            g0, g1 = amap.group_of_block(b0), amap.group_of_block(b1)
            assert g1 == g0 + 1

    def test_page_blocks_share_region(self, amap):
        for page in range(0, 512, 7):
            b0, b1 = amap.blocks_of_page(page)
            r0 = amap.region_of_group(amap.group_of_block(b0))
            r1 = amap.region_of_group(amap.group_of_block(b1))
            assert r0 == r1 == amap.region_of_page(page)

    def test_page_blocks_share_segment(self, amap):
        for page in range(0, amap.total_pages, 997):
            b0, b1 = amap.blocks_of_page(page)
            assert amap.slot_of_block(b0) == amap.slot_of_block(b1)
            assert amap.segment_of_page(page) == amap.slot_of_block(b0)

    @pytest.mark.parametrize(
        "config",
        [paper_quad_core(scale=64), paper_single_core(scale=128)],
        ids=["quad64", "single128"],
    )
    def test_region_tables_match_the_scalar_methods(self, config):
        amap = AddressMap(config)
        groups = np.arange(amap.total_groups, dtype=np.int64)
        assert amap.region_of_groups(groups).tolist() == [
            amap.region_of_group(group) for group in range(amap.total_groups)
        ]
        pages = np.arange(amap.total_pages, dtype=np.int64)
        assert amap.region_of_pages(pages).tolist() == [
            amap.region_of_page(page) for page in range(amap.total_pages)
        ]

    def test_all_regions_reachable(self, amap):
        regions = {
            amap.region_of_group(g) for g in range(2 * amap.num_regions)
        }
        assert regions == set(range(amap.num_regions))


class TestDeviceAddresses:
    def test_location_zero_is_m1(self, amap):
        loc = amap.data_location(0, 0)
        assert loc.address.module is Module.M1

    def test_other_locations_are_m2(self, amap):
        for location in range(1, amap.group_size):
            assert amap.data_location(5, location).address.module is Module.M2

    def test_channel_interleave(self, amap):
        assert amap.data_location(0, 0).channel == 0
        assert amap.data_location(1, 0).channel == 1
        assert amap.data_location(2, 0).channel == 0

    def test_blocks_share_rows_in_fours(self, amap):
        # blocks_per_row = 4: consecutive channel-local M1 blocks share rows.
        rows = {
            amap.data_location(g, 0).address.row
            for g in range(0, 8, 2)  # channel 0: local indices 0..3
        }
        assert len(rows) == 1

    def test_distinct_m2_blocks_distinct_addresses(self, amap):
        seen = set()
        for group in range(0, 64, 2):
            for location in range(1, amap.group_size):
                address = amap.data_location(group, location).address
                key = (address.bank, address.row)
                seen.add(key)
        # 32 groups x 8 locations / 4 blocks-per-row = 64 distinct rows.
        assert len(seen) == 64

    def test_st_rows_are_negative(self, amap):
        for group in (0, 100, amap.total_groups - 1):
            loc = amap.st_location(group)
            assert loc.address.module is Module.M1
            assert loc.address.row < 0

    def test_st_same_channel_as_group(self, amap):
        for group in (0, 1, 2, 3):
            assert amap.st_location(group).channel == amap.channel_of_group(group)

    def test_bank_in_range(self, amap):
        for group in range(0, amap.total_groups, 317):
            for location in range(amap.group_size):
                address = amap.data_location(group, location).address
                assert 0 <= address.bank < amap.banks


class _PromoteAndRecord(MigrationPolicy):
    """Promotes every M2 access; records what the controller served.

    ``served`` holds the (group, location) of every data request in
    serve order (the controller enqueues each one right after this
    hook), and ``swapped`` the group, the demoted block's new M2
    location and the channel's open rows just after each swap.
    """

    name = "promote-and-record"

    def __init__(self, config):
        super().__init__(config)
        self.served = []
        self.swapped = []

    def on_access(self, ctx):
        self.served.append((ctx.group, ctx.location))
        return None if ctx.location == 0 else ctx.slot

    def on_swap(self, group, promoted_slot, demoted_slot):
        controller = self._controller
        m2_location = controller.st.entry(group).location_of(demoted_slot)
        channel = controller.channels[controller.address_map.channel_of_group(group)]
        self.swapped.append((group, m2_location, list(channel._open_row)))


def _odd_geometry():
    """7-location groups, 3-block rows, 12 banks: no power of two in the
    row and bank divmods, over 64 groups per channel of 16-line blocks."""
    hybrid = HybridMemoryConfig(
        m1_capacity_per_channel=64 * 1024,
        m2_to_m1_ratio=6,
        block_size=1024,
        page_size=2048,
        num_regions=4,
        banks_per_rank=12,
        row_buffer_size=3072,
    )
    return replace(
        paper_quad_core(scale=128), num_cores=3, num_channels=2, hybrid=hybrid
    )


MEMO_CONFIGS = {
    "single128": paper_single_core(scale=128),
    "quad128": paper_quad_core(scale=128),
    "odd": _odd_geometry(),
}


def _flat(location):
    return (location.channel, location.bank_key, location.row)


class TestLocationMemos:
    """The controller's lazily filled location tuples equal the reference
    ``data_location``/``st_location`` mapping, and so does every device
    location it serves, fetches or swaps through them."""

    @pytest.mark.parametrize("name", sorted(MEMO_CONFIGS))
    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(st.integers(0, 1 << 40), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_memoized_tuples_equal_the_reference(self, name, requests):
        config = MEMO_CONFIGS[name]
        events = EventQueue()
        policy = _PromoteAndRecord(config)
        controller = HybridMemoryController(config, events, policy)
        amap = controller.address_map
        enqueued = []
        for index, enqueue in enumerate(controller._enqueue_soa):
            def record(bank_key, row, is_write, arrival, kind, done=None,
                       channel=index, enqueue=enqueue):
                enqueued.append((kind, (channel, bank_key, row)))
                enqueue(bank_key, row, is_write, arrival, kind, done)

            controller._enqueue_soa[index] = record
        total_lines = amap.total_blocks * amap.lines_per_block
        for line, is_write in requests:
            controller.access(0, line % total_lines, is_write)
        events.run()
        controller.finalize()

        # The location lists hold None until a slot's first touch.
        assert any(amap.data_locs) and any(amap.st_locs)
        for key, location in enumerate(amap.data_locs):
            if location is None:
                continue
            reference = amap.data_location(*divmod(key, amap.group_size))
            assert location == _flat(reference)
            address = reference.address
            assert reference.bank_key == address.module * amap.banks + address.bank
        for group, location in enumerate(amap.st_locs):
            if location is None:
                continue
            assert location == _flat(amap.st_location(group))

        data = [where for kind, where in enqueued if kind == 0]
        assert data == [
            _flat(amap.data_location(group, location))
            for group, location in policy.served
        ]
        st_homes = {_flat(amap.st_location(group)) for group, _ in policy.served}
        assert {where for kind, where in enqueued if kind != 0} <= st_homes
        for group, m2_location, open_row in policy.swapped:
            for location in (0, m2_location):
                _channel, bank_key, row = _flat(amap.data_location(group, location))
                assert open_row[bank_key] == row
