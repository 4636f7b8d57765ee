"""Relative-Slowdown Monitor tests (Section 3.1, Eqs. 2-3, Table 3)."""

import pytest

from repro.common.config import RSMConfig
from repro.core.rsm import RSM, RSMCounters, _ratio_sf_a, _ratio_sf_b


def make_rsm(m_samp=100, programs=2, track=False):
    return RSM(
        RSMConfig(m_samp=m_samp),
        num_programs=programs,
        num_regions=128,
        track_regions=track,
    )


class TestCounters:
    def test_private_request_counting(self):
        rsm = make_rsm()
        rsm.on_request(0, region=0, region_is_private_own=True, served_from_m1=True)
        c = rsm.counters[0]
        assert c.num_req_m1_p == 1
        assert c.num_req_total_p == 1
        assert c.num_req_total_s == 0

    def test_shared_request_counting(self):
        rsm = make_rsm()
        rsm.on_request(0, 10, False, False)
        c = rsm.counters[0]
        assert c.num_req_total_s == 1
        assert c.num_req_m1_s == 0

    @pytest.mark.parametrize(
        "promoted, demoted, totals, selfs",
        [
            (0, 0, (1, 0), (1, 0)),
            (0, 1, (1, 1), (0, 0)),
            (0, None, (1, 0), (0, 0)),
            (None, 1, (0, 1), (0, 0)),
            (None, None, (0, 0), (0, 0)),
        ],
        ids=[
            "self",
            "cross_program",
            "vacant_m1",
            "unowned_promoted",
            "unowned_both",
        ],
    )
    def test_swap_counters(self, promoted, demoted, totals, selfs):
        rsm = make_rsm()
        rsm.on_swap(promoted, demoted)
        assert tuple(c.num_swap_total for c in rsm.counters) == totals
        assert tuple(c.num_swap_self for c in rsm.counters) == selfs

    def test_reset(self):
        c = RSMCounters(1, 2, 3, 4, 5, 6)
        c.reset()
        assert c.as_tuple() == (0,) * 6


class TestRatios:
    def test_sf_a_eq2(self):
        # (10/20) / (25/100) = 2.0
        assert _ratio_sf_a(10, 20, 25, 100) == pytest.approx(2.0)

    def test_sf_a_none_on_zero_denominator(self):
        assert _ratio_sf_a(1, 0, 1, 1) is None
        assert _ratio_sf_a(1, 1, 0, 1) is None

    def test_sf_b_eq3(self):
        assert _ratio_sf_b(5, 20) == pytest.approx(4.0)

    def test_sf_b_none_without_self_swaps(self):
        assert _ratio_sf_b(0, 10) is None


class TestSampling:
    def test_sample_after_m_samp_requests(self):
        rsm = make_rsm(m_samp=10)
        for index in range(10):
            rsm.on_request(0, 0, index % 5 == 0, index % 2 == 0)
        assert len(rsm.history) == 1
        assert rsm.sf_a[0] is not None
        assert rsm.counters[0].as_tuple() == (0,) * 6  # reset after sample

    def test_ready_requires_all_programs(self):
        rsm = make_rsm(m_samp=5, programs=2)
        for _ in range(5):
            rsm.on_request(0, 0, True, True)
        assert not rsm.ready
        for _ in range(5):
            rsm.on_request(1, 1, True, True)
        assert rsm.ready

    def test_no_competition_sf_a_near_one(self):
        # Equal M1 fractions in private and shared regions -> SF_A ~ 1.
        rsm = make_rsm(m_samp=300)
        for index in range(300):
            private = index % 10 == 0
            rsm.on_request(0, 0 if private else 50, private, index % 3 == 0)
        sample = rsm.history[0]
        assert sample.smoothed_sf_a == pytest.approx(1.0, abs=0.2)

    def test_competition_raises_sf_a(self):
        # M1 hits common in the private region, rare in shared regions.
        rsm = make_rsm(m_samp=200)
        for index in range(200):
            private = index % 10 == 0
            served_m1 = private or index % 20 == 0
            rsm.on_request(0, 0 if private else 50, private, served_m1)
        assert rsm.sf_a[0] > 2.0

    def test_sf_b_reflects_foreign_swaps(self):
        rsm = make_rsm(m_samp=10)
        for _ in range(3):
            rsm.on_swap(0, 1)  # foreign
        rsm.on_swap(0, 0)  # self
        for _ in range(10):
            rsm.on_request(0, 5, False, True)
        # raw SF_B = total/self = 4/1.
        assert rsm.history[0].raw_sf_b == pytest.approx(4.0)

    def test_smoothing_converges(self):
        rsm = make_rsm(m_samp=120)
        for _period in range(50):
            for index in range(120):
                private = index % 4 == 0
                rsm.on_request(0, 0 if private else 9, private, index % 3 == 0)
        samples = rsm.samples_for(0)
        assert samples[-1].smoothed_sf_a == pytest.approx(1.0, abs=0.1)

    def test_period_indices_increment(self):
        rsm = make_rsm(m_samp=5)
        for _ in range(15):
            rsm.on_request(0, 3, False, True)
        assert [s.period_index for s in rsm.samples_for(0)] == [0, 1, 2]


class TestRegionTracking:
    def test_sigma_req_computed(self):
        rsm = make_rsm(m_samp=256, track=True)
        for index in range(256):
            rsm.on_request(0, index % 128, False, True)
        sample = rsm.history[0]
        # Perfectly uniform distribution: sigma 0.
        assert sample.sigma_req == pytest.approx(0.0)

    def test_sigma_req_nonzero_for_skew(self):
        rsm = make_rsm(m_samp=256, track=True)
        for _ in range(256):
            rsm.on_request(0, 7, False, True)
        assert rsm.history[0].sigma_req > 1.0

    def test_sigma_absent_without_tracking(self):
        rsm = make_rsm(m_samp=10, track=False)
        for _ in range(10):
            rsm.on_request(0, 0, False, True)
        assert rsm.history[0].sigma_req is None

    def test_region_counts_reset_each_period(self):
        rsm = make_rsm(m_samp=128, track=True)
        for _ in range(2):
            for index in range(128):
                rsm.on_request(0, index % 128, False, True)
        assert rsm.history[1].sigma_req == pytest.approx(0.0)
