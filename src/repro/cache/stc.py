"""Swap-group Table Cache (STC) with MDM's per-block access counters.

Figure 4: while a swap group's ST entry is resident in the STC, the memory
controller keeps one saturating access counter per swap-group location.
Counters are reset to zero at insertion; at eviction, every location with a
non-zero count has its Quantized Access Counter (QAC) value recomputed and
written back to the ST entry, and MDM's per-program statistics are updated
(Section 3.2.1).  The STC thereby acts as the temporal filter that bounds
the amount of accurate state to what is resident.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.sets import SetAssociativeCache


class STCEntry:
    """Accurate per-block state kept only while the ST entry is cached.

    ``qac_at_insert`` snapshots each location's QAC value (q_I) when the
    entry was inserted; ``counters`` are the 6-bit saturating access
    counts accumulated since insertion, indexed by swap-group location.
    ``st_entry`` is an opaque back-reference the memory controller
    attaches at insertion (the group's resident ST entry), so the
    per-request path resolves both structures with one cache probe.
    ``resident`` is True from insertion until the entry leaves the STC
    (eviction, flush, or an insert over its group); a group has at most
    one resident entry, so an entry found by a probe and still resident
    later is exactly what a fresh probe would return.
    """

    __slots__ = ("group", "qac_at_insert", "counters", "st_entry", "resident")

    def __init__(
        self,
        group: int,
        qac_at_insert: tuple[int, ...],
        st_entry: object = None,
    ) -> None:
        self.group = group
        self.qac_at_insert = qac_at_insert
        self.counters = [0] * len(qac_at_insert)
        self.st_entry = st_entry
        self.resident = True

    def count(self, location: int) -> int:
        """Access count of ``location`` since insertion."""
        return self.counters[location]

    def bump(self, location: int, weight: int, maximum: int) -> None:
        """Saturating increment of one location's counter."""
        new_value = self.counters[location] + weight
        self.counters[location] = new_value if new_value < maximum else maximum

    def any_other_accessed(self, location: int) -> bool:
        """True if any location other than ``location`` has been accessed."""
        return any(
            count > 0
            for index, count in enumerate(self.counters)
            if index != location
        )


EvictionCallback = Callable[[STCEntry], None]


class STC:
    """The on-chip cache of ST entries, keyed by swap-group number.

    ``lookup(group)`` (LRU-touching, stat-counting) and ``peek(group)``
    (neither) are instance slots bound directly to the backing array's
    methods: the per-request hot calls cost one frame, not a delegation
    chain.
    """

    __slots__ = (
        "_array",
        "_group_size",
        "_counter_max",
        "_eviction_callbacks",
        "lookup",
        "peek",
    )

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        group_size: int,
        counter_max: int = 63,
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        self._array: SetAssociativeCache[STCEntry] = SetAssociativeCache(
            num_sets, associativity, replacement=replacement, seed=seed
        )
        self._group_size = group_size
        self._counter_max = counter_max
        self._eviction_callbacks: list[EvictionCallback] = []
        #: LRU-touching lookup; None on miss (stats updated).
        self.lookup: Callable[[int], Optional[STCEntry]] = self._array.lookup
        #: Non-touching, stat-free lookup (used by policies).
        self.peek: Callable[[int], Optional[STCEntry]] = self._array.peek

    def on_eviction(self, callback: EvictionCallback) -> None:
        """Register a callback invoked with every evicted entry."""
        self._eviction_callbacks.append(callback)

    def release(self) -> None:
        """Drop every eviction callback; the owning simulation is over.

        A callback is typically a bound method of the memory controller,
        which holds this STC, so keeping it would close a reference cycle.
        """
        self._eviction_callbacks.clear()

    @property
    def hit_rate(self) -> float:
        """STC lookup hit rate (Figure 7 reports this under MDM)."""
        return self._array.hit_rate

    @property
    def hits(self) -> int:
        """Number of lookups that hit."""
        return self._array.hits

    @property
    def misses(self) -> int:
        """Number of lookups that missed."""
        return self._array.misses

    def insert(
        self,
        group: int,
        qac_values: tuple[int, ...],
        st_entry: object = None,
    ) -> Optional[STCEntry]:
        """Insert a freshly fetched ST entry; returns the evicted entry.

        ``qac_values`` is the QAC field of the ST entry at fetch time, a
        tuple the new entry keeps as its q_I snapshot; the per-location
        access counters start at zero (Section 3.2.1).  ``st_entry`` is
        stored as the new entry's back-reference.  Eviction callbacks run
        before this method returns, so MDM statistics and ST write-back
        happen at the architecturally correct instant.  The entry this
        one displaces (the evicted entry, or the group's own entry when
        it is still resident) stops being ``resident``.
        """
        replaced = self.peek(group)
        if replaced is not None:
            replaced.resident = False
        victim = self._array.insert(group, STCEntry(group, qac_values, st_entry))
        if victim is None:
            return None
        evicted = victim[1]
        evicted.resident = False
        for callback in self._eviction_callbacks:
            callback(evicted)
        return evicted

    def flush(self) -> list[STCEntry]:
        """Evict everything (end-of-simulation bookkeeping); returns entries."""
        evicted = [entry for _, entry in self._array.items()]
        for entry in evicted:
            self._array.invalidate(entry.group)
            entry.resident = False
            for callback in self._eviction_callbacks:
                callback(entry)
        return evicted

    def bump(self, entry: STCEntry, location: int, weight: int) -> None:
        """Increment a resident entry's access counter (saturating)."""
        entry.bump(location, weight, self._counter_max)
