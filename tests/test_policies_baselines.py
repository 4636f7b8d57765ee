"""Baseline migration-policy tests (Table 2 behaviours)."""

import pytest

from repro.cache.stc import STCEntry
from repro.common.config import paper_quad_core
from repro.hybrid.st_entry import STEntry
from repro.policies import build_policy
from repro.policies.base import AccessContext
from repro.policies.cameo import CameoPolicy
from repro.policies.silcfm import SilcFMPolicy
from repro.policies.static import StaticPolicy

CONFIG = paper_quad_core(scale=64)


def make_ctx(slot=2, location=2, count=1, is_write=False, group=0):
    st_entry = STEntry(9)
    st_entry.m1_owner = 0
    stc_entry = STCEntry(group=group, qac_at_insert=(0,) * 9)
    stc_entry.counters[slot] = count
    return AccessContext(
        group=group,
        slot=slot,
        location=location,
        is_write=is_write,
        owner=0,
        m1_owner=0,
        st_entry=st_entry,
        stc_entry=stc_entry,
        now=0,
    )


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["static", "cameo", "pom", "silcfm", "mempod", "mdm", "profess"]
    )
    def test_known_names(self, name):
        policy = build_policy(name, CONFIG)
        assert policy.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_policy("nope", CONFIG)

    def test_case_insensitive(self):
        assert build_policy("PoM", CONFIG).name == "pom"


class TestStatic:
    def test_never_swaps(self):
        policy = StaticPolicy(CONFIG)
        assert policy.on_access(make_ctx()) is None
        assert policy.on_access(make_ctx(location=0, slot=0)) is None

    def test_write_weight_one(self):
        assert StaticPolicy(CONFIG).write_weight == 1


class TestCameo:
    def test_promotes_on_first_access(self):
        policy = CameoPolicy(CONFIG)
        assert policy.on_access(make_ctx(count=1)) == 2

    def test_never_promotes_m1(self):
        policy = CameoPolicy(CONFIG)
        assert policy.on_access(make_ctx(slot=0, location=0)) is None


class TestSilcFM:
    def test_promotes_on_first_access(self):
        policy = SilcFMPolicy(CONFIG)
        assert policy.on_access(make_ctx()) == 2

    def test_lock_protects_hot_m1_block(self):
        policy = SilcFMPolicy(CONFIG)
        # Heat up the M1 resident (slot 0, block = group 0 slot 0) well
        # past the lock threshold of 50.
        for _ in range(60):
            policy.on_access(make_ctx(slot=0, location=0))
        assert policy.on_access(make_ctx(slot=2, location=2)) is None
        assert policy.locked_denials == 1

    def test_aging_unlocks(self):
        cfg = paper_quad_core(scale=64)
        policy = SilcFMPolicy(cfg)
        for _ in range(60):
            policy.on_access(make_ctx(slot=0, location=0))
        # Age several epochs: counters halve each epoch.
        interval = cfg.silcfm.aging_interval_requests
        for _ in range(interval * 4):
            policy.on_access(make_ctx(slot=3, location=3, group=1))
        assert policy.on_access(make_ctx(slot=2, location=2)) == 2

    def test_write_weight_default_one(self):
        assert SilcFMPolicy(CONFIG).write_weight == 1


class TestRSMGuidedPoM:
    def test_factory_name(self):
        policy = build_policy("rsm-pom", CONFIG)
        assert policy.name == "rsm-pom"

    def test_inherits_pom_write_weight(self):
        assert build_policy("rsm-pom", CONFIG).write_weight == 8

    def test_case2_vetoes_pom_swap(self):
        from repro.core.rsm_guided import RSMGuidedPoMPolicy

        class FakeRSM:
            sf_a = [3.0, 1.0]
            sf_b = [3.0, 1.0]

        class FakeController:
            rsm = FakeRSM()

        policy = RSMGuidedPoMPolicy(CONFIG)
        policy.bind(FakeController())
        policy.threshold = 1
        ctx = make_ctx(count=1)
        ctx.owner = 1
        ctx.m1_owner = 0
        ctx.st_entry.m1_owner = 0
        # PoM alone would swap at threshold 1; Case 2 protects program 0.
        assert policy.on_access(ctx) is None
        assert policy.case_counts[2] == 1

    def test_case1_forces_promotion(self):
        from repro.core.rsm_guided import RSMGuidedPoMPolicy

        class FakeRSM:
            sf_a = [1.0, 3.0]
            sf_b = [1.0, 3.0]

        class FakeController:
            rsm = FakeRSM()

        policy = RSMGuidedPoMPolicy(CONFIG)
        policy.bind(FakeController())
        policy.threshold = 48  # PoM alone would not swap yet
        ctx = make_ctx(count=1)
        ctx.owner = 1
        ctx.m1_owner = 0
        ctx.st_entry.m1_owner = 0
        assert policy.on_access(ctx) == ctx.slot
        assert policy.case_counts[1] == 1

    def test_case1_respects_prohibition(self):
        from repro.core.rsm_guided import RSMGuidedPoMPolicy

        class FakeRSM:
            sf_a = [1.0, 3.0]
            sf_b = [1.0, 3.0]

        class FakeController:
            rsm = FakeRSM()

        policy = RSMGuidedPoMPolicy(CONFIG)
        policy.bind(FakeController())
        policy.threshold = None  # epoch decided to prohibit swaps
        ctx = make_ctx(count=1)
        ctx.owner = 1
        ctx.m1_owner = 0
        ctx.st_entry.m1_owner = 0
        assert policy.on_access(ctx) is None
