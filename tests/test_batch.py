"""Columnar request queues (DESIGN.md §14).

Covers the SoA :class:`RequestBatch` container: column layout, arrival
order, growth, the ``NO_ROW`` sentinel, and slot recycling by the
channel tick that dequeues from it.
"""

from repro.common.config import MemTimings
from repro.common.events import EventQueue
from repro.mem.batch import INITIAL_CAPACITY, NO_ROW, RequestBatch
from repro.mem.channel import Channel
from repro.mem.request import DeviceAddress, MemRequest, Module


class TestRequestBatch:
    def test_push_records_columns_in_arrival_order(self):
        batch = RequestBatch()
        first = batch.push(3, 40, 0, 100, 0, None)
        second = batch.push(7, 41, 1, 101, 2, None)
        assert len(batch) == 2
        assert list(batch.order_v[:2]) == [first, second]
        assert batch.bank_key_v[first] == 3
        assert batch.row_v[second] == 41
        assert batch.is_write_v[second] == 1
        assert batch.arrival_v[first] == 100
        assert batch.kind_v[second] == 2

    def test_release_recycles_slot_and_clears_payload(self):
        # The channel tick releases the slot it dequeues: the completion
        # callback and MemRequest origin are dropped, and the slot is the
        # next one a push reuses (LIFO).
        channel = Channel(
            events=EventQueue(),
            m1_timings=MemTimings.dram(),
            m2_timings=MemTimings.nvm_from_dram(),
            banks_per_rank=4,
            frfcfs_cap=4,
        )
        request = MemRequest(
            core_id=0,
            address=DeviceAddress(Module.M1, 0, 1),
            is_write=False,
            arrival=0,
            on_complete=lambda now: None,
        )
        channel.enqueue(request)
        batch = channel._reads
        slot = batch.order_v[0]
        assert batch.callbacks[slot] is not None
        assert batch.origins[slot] is request
        channel._tick_python(0)
        assert len(batch) == 0
        assert batch.callbacks[slot] is None
        assert batch.origins[slot] is None
        assert request.completion > 0
        assert batch.free[-1] == slot  # LIFO reuse
        assert batch.push(0, 2, 0, 0, 0, None) == slot

    def test_grow_doubles_capacity_and_keeps_entries(self):
        batch = RequestBatch(capacity=2)
        slots = [batch.push(bank, bank * 10, 0, 0, 0, None) for bank in range(3)]
        assert batch.capacity == 4
        assert list(batch.order_v[:3]) == slots
        assert [int(batch.bank_key_v[s]) for s in slots] == [0, 1, 2]
        # Views were rebound onto the grown arrays.
        assert len(batch.bank_key_v) == 4
        assert len(batch.callbacks) == 4

    def test_default_capacity(self):
        assert RequestBatch().capacity == INITIAL_CAPACITY

    def test_no_row_sentinel_is_outside_the_st_row_namespace(self):
        # ST rows use a negative namespace (-1 - k): the sentinel must
        # never collide with a representable row id.
        assert NO_ROW < -(1 << 40)
