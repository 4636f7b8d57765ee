"""PoM policy tests: competing counters, epochs, prohibit mode."""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.cache.stc import STCEntry
from repro.common.config import PoMConfig, paper_quad_core
from repro.hybrid.st_entry import STEntry
from repro.policies.base import AccessContext
from repro.policies.pom import CompetingCounter, PoMPolicy

CONFIG = paper_quad_core(scale=64)


def make_ctx(slot=2, location=2, is_write=False, group=1):
    # group=1 avoids the shadow-sample stride by default.
    st_entry = STEntry(9)
    st_entry.m1_owner = 0
    stc_entry = STCEntry(group=group, qac_at_insert=(0,) * 9)
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


class TestCompetingCounter:
    def test_tracks_candidate(self):
        c = CompetingCounter()
        c.observe_m2(3, 2, maximum=63)
        assert c.candidate == 3
        assert c.value == 2

    def test_competition_replaces_candidate(self):
        c = CompetingCounter()
        c.observe_m2(3, 1, 63)
        c.observe_m2(4, 2, 63)  # 3's counter drops to -1 -> replace
        assert c.candidate == 4
        assert c.value == 2

    def test_m1_access_decrements(self):
        c = CompetingCounter()
        c.observe_m2(3, 5, 63)
        c.observe_m1(3)
        assert c.value == 2
        c.observe_m1(10)
        assert c.value == 0

    def test_saturation(self):
        c = CompetingCounter()
        c.observe_m2(1, 100, maximum=63)
        assert c.value == 63

    def test_reset(self):
        c = CompetingCounter()
        c.observe_m2(1, 5, 63)
        c.reset()
        assert c.candidate == -1
        assert c.value == 0


class TestDecisions:
    def test_swaps_at_threshold(self):
        policy = PoMPolicy(CONFIG)
        policy.threshold = 6
        for _ in range(5):
            assert policy.on_access(make_ctx()) is None
        assert policy.on_access(make_ctx()) == 2

    def test_write_counts_as_eight(self):
        policy = PoMPolicy(CONFIG)
        policy.threshold = 6
        assert policy.on_access(make_ctx(is_write=True)) == 2

    def test_prohibited_never_swaps(self):
        policy = PoMPolicy(CONFIG)
        policy.threshold = None
        for _ in range(100):
            assert policy.on_access(make_ctx()) is None

    def test_m1_accesses_defend_resident(self):
        policy = PoMPolicy(CONFIG)
        policy.threshold = 6
        for _ in range(5):
            policy.on_access(make_ctx())
        policy.on_access(make_ctx(slot=0, location=0))  # -1
        assert policy.on_access(make_ctx()) is None  # back to 5 < 6... then 6
        assert policy.on_access(make_ctx()) == 2

    def test_swap_resets_group_counter(self):
        policy = PoMPolicy(CONFIG)
        policy.threshold = 1
        assert policy.on_access(make_ctx()) == 2
        policy.on_swap(1, 2, 0)
        counter = policy._counters[1]
        assert counter.value == 0


class TestInlineCounter:
    """``on_access`` moves the group's competing counter in place; the
    CompetingCounter methods are the reference it must track."""

    @settings(max_examples=200, deadline=None)
    @given(
        counter_max=st.integers(1, 63),
        write_weight=st.integers(1, 16),
        threshold=st.sampled_from([None, 1, 2, 6, 18, 48]),
        accesses=st.lists(
            st.tuples(
                st.booleans(),  # served from M1
                st.integers(0, 8),  # slot
                st.booleans(),  # write
                st.booleans(),  # a swap commits afterwards
            ),
            max_size=80,
        ),
    )
    def test_lockstep_with_competing_counter(
        self, counter_max, write_weight, threshold, accesses
    ):
        cfg = replace(
            CONFIG,
            write_access_weight=write_weight,
            pom=PoMConfig(counter_max=counter_max, epoch_requests=10**9),
        )
        policy = PoMPolicy(cfg)
        policy.threshold = threshold
        reference = CompetingCounter()
        for in_m1, slot, is_write, swap in accesses:
            weight = write_weight if is_write else 1
            location = 0 if in_m1 else 1 + slot % 8
            decision = policy.on_access(
                make_ctx(slot=slot, location=location, is_write=is_write)
            )
            if in_m1:
                reference.observe_m1(weight)
                expected = None
            else:
                reference.observe_m2(slot, weight, counter_max)
                promote = (
                    threshold is not None
                    and reference.candidate == slot
                    and reference.value >= threshold
                )
                expected = slot if promote else None
            counter = policy._counters[1]
            assert (counter.candidate, counter.value) == (
                reference.candidate,
                reference.value,
            )
            assert decision == expected
            if swap:
                policy.on_swap(1, slot, 0)
                reference.reset()


class TestEpochs:
    def test_epoch_rolls_after_configured_requests(self):
        cfg = replace(CONFIG, pom=PoMConfig(epoch_requests=10))
        policy = PoMPolicy(cfg)
        for _ in range(10):
            policy.on_access(make_ctx())
        assert policy.epochs == 1
        assert len(policy.threshold_history) == 1

    def test_no_benefit_prohibits(self):
        cfg = replace(CONFIG, pom=PoMConfig(epoch_requests=50))
        policy = PoMPolicy(cfg)
        # Sampled group 0: single-touch M2 accesses to distinct slots;
        # shadow promotions never pay off.
        for index in range(50):
            slot = 1 + (index % 8)
            policy.on_access(make_ctx(slot=slot, location=slot, group=0))
        assert policy.threshold is None
        assert policy.prohibited_epochs == 1

    def test_hot_block_benefit_selects_low_threshold(self):
        cfg = replace(CONFIG, pom=PoMConfig(epoch_requests=64))
        policy = PoMPolicy(cfg)
        # Sampled group 0: hammer one M2 block; promoting early pays.
        for _ in range(64):
            policy.on_access(make_ctx(slot=3, location=3, group=0))
        assert policy.threshold == 1

    def test_shadow_state_cleared_between_epochs(self):
        cfg = replace(CONFIG, pom=PoMConfig(epoch_requests=8))
        policy = PoMPolicy(cfg)
        for _ in range(8):
            policy.on_access(make_ctx(group=0, slot=3, location=3))
        assert not policy._shadows
