"""ProFess integration tests: the Table 7 decision cases."""

import pytest

from repro.cache.stc import STCEntry
from repro.common.config import paper_quad_core
from repro.core.profess import ProFessPolicy
from repro.hybrid.st_entry import STEntry
from repro.policies.base import AccessContext

CONFIG = paper_quad_core(scale=64)


class FakeRSM:
    def __init__(self, sf_a, sf_b):
        self.sf_a = sf_a
        self.sf_b = sf_b


class FakeController:
    def __init__(self, rsm, owners=None):
        self.rsm = rsm
        self._owners = owners or {}

    def owner_of_slot(self, group, slot):
        return self._owners.get((group, slot), 0)


def make_ctx(owner=1, m1_owner=0, count_m2=1, count_m1=0):
    st_entry = STEntry(9)
    st_entry.m1_owner = m1_owner
    stc_entry = STCEntry(group=3, qac_at_insert=(0,) * 9)
    stc_entry.counters[4] = count_m2
    stc_entry.counters[0] = count_m1
    return AccessContext(
        group=3,
        slot=4,
        location=4,
        is_write=False,
        owner=owner,
        m1_owner=m1_owner,
        st_entry=st_entry,
        stc_entry=stc_entry,
        now=0,
    )


def make_policy(sf_a, sf_b, benefit=True):
    policy = ProFessPolicy(CONFIG)
    policy.bind(FakeController(FakeRSM(sf_a, sf_b)))
    # Force a clear benefit (or lack of one) for the M2 block.
    value = 100.0 if benefit else 0.0
    for program in (0, 1):
        policy.stats_for(program).exp_cnt[0] = value
    return policy


class TestCase1:
    def test_helps_suffering_m2_program(self):
        # Program 1 (M2 block's owner) suffers more by both factors.
        policy = make_policy(sf_a=[1.0, 2.0], sf_b=[1.0, 3.0])
        assert policy.on_access(make_ctx()) == 4
        assert policy.case_counts[1] == 1

    def test_case1_ignores_m1_resident_value(self):
        # Even a heavily used M1 block is ignored ("consider M1 vacant").
        policy = make_policy(sf_a=[1.0, 2.0], sf_b=[1.0, 3.0])
        ctx = make_ctx(count_m1=50)
        assert policy.on_access(ctx) == 4

    def test_case1_still_requires_mdm_benefit(self):
        policy = make_policy(sf_a=[1.0, 2.0], sf_b=[1.0, 3.0], benefit=False)
        assert policy.on_access(make_ctx()) is None
        assert policy.case_counts[1] == 1  # case evaluated, MDM said no


class TestCase2:
    def test_protects_suffering_m1_program(self):
        # Program 0 (M1 resident's owner) suffers more by both factors.
        policy = make_policy(sf_a=[2.0, 1.0], sf_b=[3.0, 1.0])
        assert policy.on_access(make_ctx()) is None
        assert policy.case_counts[2] == 1


class TestCase3:
    def test_product_rule_prohibits(self):
        # SF_A says c_M2 suffers, SF_B says c_M1 does; products favour c_M1.
        policy = make_policy(sf_a=[1.0, 1.2], sf_b=[5.0, 1.0])
        # products: 5.0 vs 1.2 * 1.0625 -> protect M1.
        assert policy.on_access(make_ctx()) is None
        assert policy.case_counts[3] == 1

    def test_product_rule_falls_through_when_products_close(self):
        policy = make_policy(sf_a=[1.0, 4.0], sf_b=[1.2, 1.0])
        # a_says_m2 (1 * 1.03 < 4) and b_says_m1 (1.2 > 1.03) but
        # products 1.2 < 4.0: fall through to plain MDM -> swap.
        assert policy.on_access(make_ctx()) == 4
        assert policy.case_counts["default"] == 1


class TestHysteresis:
    def test_similar_sfs_use_plain_mdm(self):
        # Differences below the ~3% threshold never trigger a case.
        policy = make_policy(sf_a=[1.0, 1.01], sf_b=[1.0, 1.01])
        assert policy.on_access(make_ctx()) == 4
        assert policy.case_counts["default"] == 1

    def test_threshold_factor_value(self):
        assert CONFIG.profess.sf_factor == pytest.approx(1.03125)


class TestFallbacks:
    def test_same_owner_uses_mdm(self):
        policy = make_policy(sf_a=[1.0, 9.0], sf_b=[1.0, 9.0])
        ctx = make_ctx(owner=0, m1_owner=0)
        assert policy.on_access(ctx) == 4
        assert policy.case_counts["same"] == 1

    def test_vacant_m1_uses_mdm_case_a(self):
        policy = make_policy(sf_a=[9.0, 1.0], sf_b=[9.0, 1.0])
        ctx = make_ctx(m1_owner=None)
        assert policy.on_access(ctx) == 4

    def test_rsm_not_ready_uses_mdm(self):
        policy = make_policy(sf_a=[None, None], sf_b=[None, None])
        assert policy.on_access(make_ctx()) == 4
        assert policy.case_counts["default"] == 1

    def test_m1_access_never_swaps(self):
        policy = make_policy(sf_a=[1.0, 2.0], sf_b=[1.0, 2.0])
        ctx = make_ctx()
        ctx.location = 0
        assert policy.on_access(ctx) is None
