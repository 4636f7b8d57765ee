"""Set-associative array tests, including a hypothesis model check."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.sets import REPLACEMENT_POLICIES, SetAssociativeCache
from repro.common.errors import ConfigError


class TestBasics:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache[int](4, 2)
        assert cache.lookup(5) is None
        cache.insert(5, 50)
        assert cache.lookup(5) == 50

    def test_hit_miss_counters(self):
        cache = SetAssociativeCache[int](4, 2)
        cache.lookup(1)
        cache.insert(1, 1)
        cache.lookup(1)
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_peek_does_not_touch(self):
        cache = SetAssociativeCache[int](1, 2)
        cache.insert(0, 0)
        cache.insert(4, 4)  # LRU order: 0, 4
        cache.peek(0)
        victim = cache.insert(8, 8)
        assert victim[0] == 0  # peek did not refresh 0

    def test_lookup_refreshes_lru(self):
        cache = SetAssociativeCache[int](1, 2)
        cache.insert(0, 0)
        cache.insert(4, 4)
        cache.lookup(0)
        victim = cache.insert(8, 8)
        assert victim[0] == 4

    def test_eviction_is_lru(self):
        cache = SetAssociativeCache[int](1, 2)
        cache.insert(1, 1)
        cache.insert(2, 2)
        victim = cache.insert(3, 3)
        assert victim[0] == 1

    def test_set_isolation(self):
        cache = SetAssociativeCache[int](2, 1)
        cache.insert(0, 0)  # set 0
        cache.insert(1, 1)  # set 1
        assert cache.lookup(0) == 0
        assert cache.lookup(1) == 1

    def test_reinsert_updates_in_place(self):
        cache = SetAssociativeCache[int](1, 1)
        cache.insert(1, 10)
        # Nothing is evicted: insert reports the key's own displaced
        # (key, value), and the key stays resident.
        assert cache.insert(1, 20) == (1, 10)
        assert cache.peek(1) == 20

    def test_eviction_returns_key_and_value(self):
        cache = SetAssociativeCache[int](1, 1)
        cache.insert(1, 11)
        assert cache.insert(2, 22) == (1, 11)

    def test_invalidate(self):
        cache = SetAssociativeCache[int](1, 2)
        cache.insert(1, 11)
        assert cache.invalidate(1) == 11
        assert cache.lookup(1) is None

    def test_peek_is_stat_free(self):
        cache = SetAssociativeCache[int](1, 2)
        cache.insert(1, 1)
        assert cache.peek(1) == 1
        assert cache.peek(2) is None
        assert cache.hits == cache.misses == 0

    def test_len_and_items(self):
        cache = SetAssociativeCache[int](2, 2)
        cache.insert(0, 0)
        cache.insert(1, 1)
        assert len(cache) == 2
        assert dict(cache.items()) == {0: 0, 1: 1}


class TestValidation:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(3, 2)

    def test_rejects_zero_assoc(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(4, 0)


class TestModelEquivalence:
    """Compare against a brute-force LRU reference across random ops."""

    @given(
        st.lists(
            st.tuples(st.sampled_from(["lookup", "insert"]), st.integers(0, 31)),
            max_size=200,
        )
    )
    def test_against_reference(self, ops):
        num_sets, assoc = 4, 2
        cache = SetAssociativeCache[int](num_sets, assoc)
        reference: dict[int, list[int]] = {s: [] for s in range(num_sets)}

        for op, key in ops:
            bucket = reference[key % num_sets]
            if op == "lookup":
                expected = key if key in bucket else None
                actual = cache.lookup(key)
                actual_key = None if actual is None else key
                assert actual_key == expected
                if key in bucket:
                    bucket.remove(key)
                    bucket.append(key)
            else:
                cache.insert(key, key)
                if key in bucket:
                    bucket.remove(key)
                elif len(bucket) >= assoc:
                    bucket.pop(0)
                bucket.append(key)

        resident = {key for key, _value in cache.items()}
        expected_resident = {k for b in reference.values() for k in b}
        assert resident == expected_resident


class TestReplacementPolicies:
    def test_lru_respects_hits(self):
        cache = SetAssociativeCache[int](1, 2, replacement="lru")
        cache.insert(0, 0)
        cache.insert(4, 4)
        cache.lookup(0)
        victim = cache.insert(8, 8)
        assert victim[0] == 4

    def test_lfu_evicts_least_frequent(self):
        cache = SetAssociativeCache[int](1, 2, replacement="lfu")
        cache.insert(0, 0)
        cache.insert(4, 4)
        cache.lookup(0)  # freq(0)=2, freq(4)=1
        victim = cache.insert(8, 8)
        assert victim[0] == 4

    def test_lfu_tie_breaks_by_insertion_order(self):
        cache = SetAssociativeCache[int](1, 2, replacement="lfu")
        cache.insert(0, 0)
        cache.insert(4, 4)  # both freq 1
        victim = cache.insert(8, 8)
        assert victim[0] == 0  # oldest of the minimum-frequency entries

    def test_lfu_reinsert_bumps_frequency(self):
        cache = SetAssociativeCache[int](1, 2, replacement="lfu")
        cache.insert(0, 0)
        cache.insert(0, 10)  # freq(0)=2
        cache.insert(4, 4)
        victim = cache.insert(8, 8)
        assert victim[0] == 4

    def test_unknown_policy_rejected(self):
        import pytest as _pytest
        from repro.common.errors import ConfigError as _ConfigError

        with _pytest.raises(_ConfigError):
            SetAssociativeCache(1, 2, replacement="plru")

    @pytest.mark.parametrize("replacement", ["fifo", "random", "lru-lip"])
    def test_only_lru_and_lfu(self, replacement):
        assert REPLACEMENT_POLICIES == ("lru", "lfu")
        with pytest.raises(ConfigError):
            SetAssociativeCache(1, 2, replacement=replacement)
