"""Generic set-associative cache array with LRU or LFU replacement.

The array behind the Swap-group Table Cache.  Keys are opaque integers
(group numbers); the array does not interpret them beyond set indexing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Optional, TypeVar

from repro.common.errors import ConfigError

V = TypeVar("V")

REPLACEMENT_POLICIES = ("lru", "lfu")


class SetAssociativeCache(Generic[V]):
    """A num_sets x associativity array of (key -> value).

    Each set is an OrderedDict from key to value; no value may be None,
    which ``lookup`` and ``peek`` return for an absent key.  Replacement
    is true LRU (default — hits refresh recency) or LFU (evict the
    least-frequently-accessed entry, insertion-order tie-break).
    ``num_sets`` must be a power of two so indexing is a mask, as in
    hardware.
    """

    __slots__ = (
        "num_sets",
        "_set_mask",
        "associativity",
        "_sets",
        "_is_lfu",
        "_freq",
        "hits",
        "misses",
    )

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        replacement: str = "lru",
    ) -> None:
        if num_sets < 1 or num_sets & (num_sets - 1):
            raise ConfigError(f"num_sets must be a power of two, got {num_sets}")
        if associativity < 1:
            raise ConfigError("associativity must be >= 1")
        if replacement not in REPLACEMENT_POLICIES:
            raise ConfigError(
                f"replacement must be one of {REPLACEMENT_POLICIES}, "
                f"got {replacement!r}"
            )
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self.associativity = associativity
        # Hot-path predicate, resolved once (lookup runs per request).
        self._is_lfu = replacement == "lfu"
        #: key -> access count since fill (LFU only; keys are globally
        #: unique, so one dict serves every set).
        self._freq: dict[int, int] = {}
        self._sets: list[OrderedDict[int, V]] = [
            OrderedDict() for _ in range(num_sets)
        ]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, key: int) -> Optional[V]:
        """Return the value for ``key`` or None; updates hit/miss stats
        and the key's replacement state."""
        entry_set = self._sets[key & self._set_mask]
        value = entry_set.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        if self._is_lfu:
            self._freq[key] = self._freq.get(key, 0) + 1
        else:
            entry_set.move_to_end(key)
        return value

    def peek(self, key: int) -> Optional[V]:
        """Return the value without touching LRU or stats."""
        return self._sets[key & self._set_mask].get(key)

    def insert(self, key: int, value: V) -> Optional[tuple[int, V]]:
        """Insert ``key``; returns the ``(key, value)`` it displaced.

        That is the evicted entry when the set was full, or ``key``'s own
        previous value when it was already resident (the key is then
        updated in place and stays resident; this mirrors a fill racing
        a hit), else None.  A caller tells the two apart by the returned
        key.
        """
        entry_set = self._sets[key & self._set_mask]
        if key in entry_set:
            replaced = (key, entry_set[key])
            entry_set[key] = value
            entry_set.move_to_end(key)
            if self._is_lfu:
                self._freq[key] = self._freq.get(key, 0) + 1
            return replaced
        victim: Optional[tuple[int, V]] = None
        if len(entry_set) >= self.associativity:
            if self._is_lfu:
                # Least-frequently-used; ties break toward the oldest
                # insertion (deterministic: OrderedDict iteration order).
                freq = self._freq
                victim_key = min(entry_set, key=lambda k: freq.get(k, 0))
                victim = (victim_key, entry_set.pop(victim_key))
                freq.pop(victim_key, None)
            else:  # LRU evicts the oldest-ordered entry
                victim = entry_set.popitem(last=False)
        entry_set[key] = value
        if self._is_lfu:
            self._freq[key] = 1
        return victim

    def invalidate(self, key: int) -> Optional[V]:
        """Remove ``key`` if present; return its value."""
        value = self._sets[key & self._set_mask].pop(key, None)
        if self._is_lfu:
            self._freq.pop(key, None)
        return value

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def items(self):
        """Iterate (key, value) over all resident entries (test helper)."""
        for entry_set in self._sets:
            yield from entry_set.items()

    @property
    def hit_rate(self) -> float:
        """Lookup hit rate since construction."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
