"""Swap-group Table Cache tests (Figure 4 semantics)."""

from repro.cache.stc import STC, STCEntry


def make_stc(sets=2, assoc=2):
    return STC(num_sets=sets, associativity=assoc, group_size=9)


class TestEntries:
    def test_counters_start_zero(self):
        entry = STCEntry(group=1, qac_at_insert=(0,) * 9)
        assert entry.counters == [0] * 9

    def test_bump_saturates(self):
        entry = STCEntry(group=1, qac_at_insert=(0,) * 9)
        entry.bump(3, 60, maximum=63)
        entry.bump(3, 60, maximum=63)
        assert entry.count(3) == 63

    def test_any_other_accessed(self):
        entry = STCEntry(group=1, qac_at_insert=(0,) * 9)
        assert not entry.any_other_accessed(0)
        entry.bump(4, 1, 63)
        assert entry.any_other_accessed(0)
        assert not entry.any_other_accessed(4)


class TestCacheBehaviour:
    def test_insert_then_lookup(self):
        stc = make_stc()
        stc.insert(5, (0,) * 9)
        entry = stc.lookup(5)
        assert entry is not None
        assert entry.group == 5

    def test_qac_snapshot_preserved(self):
        stc = make_stc()
        stc.insert(5, (0, 1, 2, 3, 0, 0, 0, 0, 0))
        assert stc.lookup(5).qac_at_insert == (0, 1, 2, 3, 0, 0, 0, 0, 0)

    def test_eviction_callback_fires(self):
        stc = make_stc(sets=1, assoc=1)
        evicted = []
        stc.on_eviction(evicted.append)
        stc.insert(0, (0,) * 9)
        stc.insert(1, (0,) * 9)
        assert [e.group for e in evicted] == [0]

    def test_eviction_callback_sees_counters(self):
        stc = make_stc(sets=1, assoc=1)
        seen = []
        stc.on_eviction(lambda e: seen.append(list(e.counters)))
        stc.insert(0, (0,) * 9)
        stc.bump(stc.peek(0), 2, 5)
        stc.insert(1, (0,) * 9)
        assert seen[0][2] == 5

    def test_hit_rate(self):
        stc = make_stc()
        stc.lookup(0)  # miss
        stc.insert(0, (0,) * 9)
        stc.lookup(0)  # hit
        assert stc.hit_rate == 0.5
        assert stc.hits == 1
        assert stc.misses == 1

    def test_peek_stat_free(self):
        stc = make_stc()
        stc.insert(0, (0,) * 9)
        stc.peek(0)
        assert stc.hits == 0

    def test_flush_evicts_all(self):
        stc = make_stc()
        evicted = []
        stc.on_eviction(lambda e: evicted.append(e.group))
        stc.insert(0, (0,) * 9)
        stc.insert(1, (0,) * 9)
        flushed = stc.flush()
        assert sorted(e.group for e in flushed) == [0, 1]
        assert sorted(evicted) == [0, 1]
        assert stc.peek(0) is None

    def test_counter_max_respected(self):
        stc = STC(num_sets=1, associativity=1, group_size=9, counter_max=7)
        stc.insert(0, (0,) * 9)
        entry = stc.peek(0)
        stc.bump(entry, 0, 100)
        assert entry.count(0) == 7


class TestResidency:
    """``resident`` is True exactly while the entry is the one the STC
    holds for its group."""

    def test_inserted_entry_is_resident(self):
        stc = make_stc()
        stc.insert(0, (0,) * 9)
        assert stc.peek(0).resident

    def test_insert_eviction_clears_resident(self):
        stc = make_stc(sets=1, assoc=1)
        evicted = []
        stc.on_eviction(lambda e: evicted.append((e, e.resident)))
        stc.insert(0, (0,) * 9)
        first = stc.peek(0)
        assert stc.insert(1, (0,) * 9) is first
        assert not first.resident
        assert stc.peek(1).resident
        # The eviction callbacks already see the entry as gone.
        assert evicted == [(first, False)]

    def test_flush_clears_resident(self):
        stc = make_stc()
        stc.insert(0, (0,) * 9)
        stc.insert(1, (0,) * 9)
        entries = [stc.peek(0), stc.peek(1)]
        assert sorted(e.group for e in stc.flush()) == [0, 1]
        assert [e.resident for e in entries] == [False, False]

    def test_insert_over_a_resident_key_clears_the_old_entry(self):
        stc = make_stc()
        evicted = []
        stc.on_eviction(evicted.append)
        stc.insert(0, (0,) * 9)
        old = stc.peek(0)
        assert stc.insert(0, (1,) * 9) is None
        new = stc.peek(0)
        assert new is not old
        assert not old.resident and new.resident
        assert new.qac_at_insert == (1,) * 9
        assert evicted == []

    def test_at_most_one_resident_entry_per_group(self):
        stc = make_stc(sets=2, assoc=2)
        made = []
        for group in (0, 2, 0, 4, 2, 0, 6, 0, 0):
            stc.insert(group, (0,) * 9)
            made.append(stc.peek(group))
        for group in (0, 2, 4, 6):
            resident = [e for e in made if e.group == group and e.resident]
            assert resident == ([stc.peek(group)] if stc.peek(group) else [])
