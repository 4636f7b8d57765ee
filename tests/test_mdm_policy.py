"""MDM migration-decision tests (Section 3.2.3 cases a, b, c.i, c.ii)."""

import pytest

from repro.cache.stc import STCEntry
from repro.common.config import paper_quad_core
from repro.common.errors import InvalidValueError
from repro.core.mdm import MDMPolicy
from repro.core.qac import quantize_access_count
from repro.hybrid.st_entry import STEntry
from repro.policies.base import AccessContext

CONFIG = paper_quad_core(scale=64)


class FakeController:
    """Just enough controller for policy unit tests."""

    def __init__(self, owners=None, rsm=None):
        self._owners = owners or {}
        self.rsm = rsm

    def owner_of_slot(self, group, slot):
        return self._owners.get((group, slot), 0)


def make_ctx(
    slot=3,
    location=3,
    owner=0,
    m1_owner=0,
    counters=None,
    qac=None,
    m1_slot_swapped_to=None,
):
    st_entry = STEntry(9)
    if m1_slot_swapped_to is not None:
        st_entry.swap(0, m1_slot_swapped_to)
    st_entry.m1_owner = m1_owner
    stc_entry = STCEntry(group=7, qac_at_insert=tuple(qac or [0] * 9))
    if counters:
        for s, value in counters.items():
            stc_entry.counters[s] = value
    return AccessContext(
        group=7,
        slot=slot,
        location=location,
        is_write=False,
        owner=owner,
        m1_owner=m1_owner,
        st_entry=st_entry,
        stc_entry=stc_entry,
        now=0,
    )


def make_policy(owners=None, exp=None):
    """Policy with per-(program, q_I) expected counts forced via stats."""
    policy = MDMPolicy(CONFIG)
    policy.bind(FakeController(owners))
    if exp:
        for (program, q_i), value in exp.items():
            policy.stats_for(program).exp_cnt[q_i] = value
    return policy


class TestTopLevelCondition:
    def test_m1_access_never_swaps(self):
        policy = make_policy()
        assert policy.on_access(make_ctx(slot=0, location=0)) is None

    def test_low_remaining_no_swap(self):
        policy = make_policy(exp={(0, 0): 5.0})  # rem = 5 - 1 < 8
        ctx = make_ctx(counters={3: 1})
        assert policy.on_access(ctx) is None


class TestCaseA:
    def test_vacant_m1_promotes_on_benefit(self):
        policy = make_policy(exp={(0, 0): 20.0})
        ctx = make_ctx(m1_owner=None, counters={3: 1})
        assert policy.on_access(ctx) == 3

    def test_vacant_m1_still_requires_benefit(self):
        policy = make_policy(exp={(0, 0): 6.0})
        ctx = make_ctx(m1_owner=None, counters={3: 1})
        assert policy.on_access(ctx) is None


class TestCaseB:
    def test_idle_m1_with_active_group_promotes(self):
        policy = make_policy(exp={(0, 0): 20.0})
        # M1 resident (slot 0) untouched; accessed M2 block has count 1.
        ctx = make_ctx(counters={3: 1})
        assert policy.on_access(ctx) == 3


class TestCaseC:
    def test_ci_promotes_when_m1_exhausted(self):
        # M1 resident predicted to have nothing left: rem_m1 <= 0.
        policy = make_policy(exp={(0, 0): 20.0, (1, 2): 4.0})
        owners = {(7, 0): 1, (7, 3): 0}
        policy.bind(FakeController(owners))
        ctx = make_ctx(
            owner=0,
            m1_owner=1,
            counters={3: 1, 0: 10},  # m1 count 10 > exp 4 -> rem <= 0
            qac=[2, 0, 0, 0, 0, 0, 0, 0, 0],
        )
        assert policy.on_access(ctx) == 3

    def test_cii_requires_difference_above_min_benefit(self):
        policy = make_policy(exp={(0, 0): 30.0, (1, 2): 25.0})
        ctx = make_ctx(
            m1_owner=1,
            counters={3: 1, 0: 2},
            qac=[2, 0, 0, 0, 0, 0, 0, 0, 0],
        )
        # rem_m2 = 29, rem_m1 = 23; difference 6 < 8: no swap.
        assert policy.on_access(ctx) is None

    def test_cii_promotes_on_large_difference(self):
        policy = make_policy(exp={(0, 0): 40.0, (1, 2): 12.0})
        ctx = make_ctx(
            m1_owner=1,
            counters={3: 1, 0: 2},
            qac=[2, 0, 0, 0, 0, 0, 0, 0, 0],
        )
        # rem_m2 = 39, rem_m1 = 10; difference 29 >= 8: swap.
        assert policy.on_access(ctx) == 3


class TestStatistics:
    def test_eviction_records_transitions(self):
        policy = make_policy()
        st_entry = STEntry(9)
        stc_entry = STCEntry(group=7, qac_at_insert=(0,) * 9)
        stc_entry.counters[2] = 5
        stc_entry.counters[4] = 40
        policy.on_st_eviction(stc_entry, st_entry)
        stats = policy.stats_for(0)
        assert stats.total_updates == 2
        assert stats.num_q[0][1] == 1  # count 5 -> q_E 1
        assert stats.num_q[0][3] == 1  # count 40 -> q_E 3

    def test_eviction_writes_back_qac(self):
        policy = make_policy()
        st_entry = STEntry(9)
        stc_entry = STCEntry(group=7, qac_at_insert=(0,) * 9)
        stc_entry.counters[2] = 9
        policy.on_st_eviction(stc_entry, st_entry)
        assert st_entry.qac[2] == 2  # 9 accesses -> QAC 2

    def test_untouched_blocks_keep_qac(self):
        policy = make_policy()
        st_entry = STEntry(9)
        st_entry.qac[5] = 3
        stc_entry = STCEntry(group=7, qac_at_insert=tuple(st_entry.qac))
        policy.on_st_eviction(stc_entry, st_entry)
        assert st_entry.qac[5] == 3
        assert policy.stats_for(0).total_updates == 0

    def test_negative_counter_raises(self):
        policy = make_policy()
        st_entry = STEntry(9)
        stc_entry = STCEntry(group=7, qac_at_insert=(0,) * 9)
        stc_entry.counters[4] = -1
        with pytest.raises(InvalidValueError, match="negative access count"):
            policy.on_st_eviction(stc_entry, st_entry)
        assert st_entry.qac == [0] * 9

    @pytest.mark.parametrize("boundaries", [(1, 8, 32), (2, 16, 48), (3, 5, 90)])
    def test_written_back_qac_matches_the_reference(self, boundaries):
        from dataclasses import replace as _replace

        config = _replace(
            CONFIG, mdm=_replace(CONFIG.mdm, qac_boundaries=boundaries)
        )
        policy = MDMPolicy(config)
        policy.bind(FakeController())
        for count in range(1, 130):
            st_entry = STEntry(9)
            st_entry.qac[2] = 1
            stc_entry = STCEntry(group=7, qac_at_insert=tuple(st_entry.qac))
            stc_entry.counters[2] = count
            policy.on_st_eviction(stc_entry, st_entry)
            expected = quantize_access_count(count, boundaries) or 1
            assert st_entry.qac[2] == expected, count

    def test_per_program_stats_separate(self):
        owners = {(7, 1): 0, (7, 2): 1}
        policy = make_policy(owners=owners)
        st_entry = STEntry(9)
        stc_entry = STCEntry(group=7, qac_at_insert=(0,) * 9)
        stc_entry.counters[1] = 3
        stc_entry.counters[2] = 3
        policy.on_st_eviction(stc_entry, st_entry)
        assert policy.stats_for(0).total_updates == 1
        assert policy.stats_for(1).total_updates == 1

    def test_remaining_count_eq8(self):
        policy = make_policy(exp={(0, 2): 25.0})
        assert policy.remaining_count(0, 2, 10) == pytest.approx(15.0)

    def test_write_weight_from_config(self):
        policy = make_policy()
        assert policy.write_weight == CONFIG.write_access_weight == 8
        assert policy.access_weight(True) == 8
        assert policy.access_weight(False) == 1


class TestAblatedBoundaries:
    def test_subthreshold_count_keeps_qac(self):
        """Boundaries starting above 1 must not emit invalid q_E = 0."""
        from dataclasses import replace as _replace

        config = _replace(
            CONFIG, mdm=_replace(CONFIG.mdm, qac_boundaries=(2, 16, 48))
        )
        policy = MDMPolicy(config)
        policy.bind(FakeController())
        st_entry = STEntry(9)
        st_entry.qac[2] = 1
        stc_entry = STCEntry(group=7, qac_at_insert=tuple(st_entry.qac))
        stc_entry.counters[2] = 1  # touched, but below the first bucket
        policy.on_st_eviction(stc_entry, st_entry)
        assert st_entry.qac[2] == 1  # unchanged
        assert policy.stats_for(0).total_updates == 0
