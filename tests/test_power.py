"""Energy-meter tests (requests/s/W of Section 4.3).

The meter reads the events its channels counted, so each test drives
real channels and reads the meter afterwards.
"""

import pytest

from repro.common.config import EnergyConfig, MemTimings
from repro.common.events import EventQueue
from repro.mem.channel import Channel
from repro.mem.power import EnergyMeter
from repro.mem.request import Module, RequestKind


def channels_and_meter(channels=2):
    events = EventQueue()
    built = [
        Channel(
            events=events,
            m1_timings=MemTimings.dram(),
            m2_timings=MemTimings.nvm_from_dram(),
            banks_per_rank=16,
            frfcfs_cap=4,
            swap_latency=2548,
        )
        for _ in range(channels)
    ]
    return events, built, EnergyMeter(EnergyConfig(), [c.stats for c in built])


def meter(channels=2):
    return channels_and_meter(channels)[2]


class TestAccounting:
    def test_dynamic_energy_sums_events(self):
        events, (channel, _other), m = channels_and_meter()
        channel.enqueue_soa(0, 0, False, 0, RequestKind.DATA)  # M1 bank 0
        events.run()
        cfg = EnergyConfig()
        assert m.dynamic_energy_nj() == pytest.approx(
            cfg.m1_activate_nj + cfg.m1_read_line_nj
        )

    def test_nvm_writes_cost_more(self):
        cfg = EnergyConfig()
        assert cfg.m2_write_line_nj > 5 * cfg.m1_write_line_nj

    def test_line_count_batches(self):
        _events, channels, m = channels_and_meter()
        channels[1].schedule_swap(0, 0, 0, 0)  # 32 lines each way
        assert m.line_writes[Module.M2] == 32
        assert m.line_reads[Module.M1] == 32

    def test_background_scales_with_time_and_channels(self):
        one = meter(channels=1)
        two = meter(channels=2)
        cycles = 3_200_000  # 1 ms at 3.2 GHz
        assert two.background_energy_nj(cycles) == pytest.approx(
            2 * one.background_energy_nj(cycles)
        )

    def test_background_magnitude(self):
        m = meter(channels=1)
        cycles = 3_200_000  # 1 ms
        # 180 mW for 1 ms = 180 uJ = 180_000 nJ.
        assert m.background_energy_nj(cycles) == pytest.approx(180_000, rel=0.01)

    def test_total_energy_joules(self):
        events, (channel,), m = channels_and_meter(channels=1)
        channel.enqueue_soa(0, 0, False, 0, RequestKind.DATA)
        events.run()
        assert m.activates[Module.M1] == 1
        joules = m.total_energy_j(3_200_000)
        assert joules > m.background_energy_nj(3_200_000) * 1e-9

    def test_efficiency_requests_per_joule(self):
        m = meter(channels=1)
        m.requests_served = 1000
        cycles = 3_200_000
        expected = 1000 / m.total_energy_j(cycles)
        assert m.efficiency_requests_per_joule(cycles) == pytest.approx(expected)

    def test_efficiency_zero_when_no_time(self):
        assert meter().efficiency_requests_per_joule(0) == 0.0
