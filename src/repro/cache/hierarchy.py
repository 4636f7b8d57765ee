"""L1/L2/L3 data-cache hierarchy (Table 8).

The main experiment pipeline feeds the simulator with post-L3 (main-memory)
traces directly, but the hierarchy is a complete substrate: the optional
CPU-trace pipeline (:mod:`repro.cpu.trace`) filters raw address streams
through it to produce main-memory traces, and the examples exercise it.

The model is inclusive and write-back/write-allocate, with true LRU at
each level.  Latencies accumulate down the hierarchy, as in a blocking
lookup; timing consumers only need hit level + latency, not MSHR detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.common.config import CacheLevelConfig
from repro.cache.sets import SetAssociativeCache
from repro.common.errors import InvalidValueError


@dataclass(frozen=True)
class HierarchyAccessResult:
    """Outcome of one hierarchy access."""

    #: 0-based level that hit, or None for a main-memory access.
    hit_level: Optional[int]
    #: On-chip latency accumulated before the request was satisfied (or
    #: before it left for main memory).
    latency: int
    #: Dirty lines evicted from the last level (their line addresses).
    writebacks: tuple[int, ...]

    @property
    def is_memory_access(self) -> bool:
        """True when the access missed every level."""
        return self.hit_level is None


class CacheHierarchy:
    """A stack of set-associative levels addressed by 64-B line number."""

    def __init__(self, levels: Sequence[CacheLevelConfig]) -> None:
        if not levels:
            raise InvalidValueError("need at least one cache level")
        self._configs = list(levels)
        self._levels = [
            SetAssociativeCache[int](cfg.num_sets, cfg.associativity)
            for cfg in levels
        ]

    @property
    def num_levels(self) -> int:
        """Number of cache levels."""
        return len(self._levels)

    def level_stats(self, level: int) -> SetAssociativeCache:
        """Expose a level's array for statistics inspection."""
        return self._levels[level]

    def access(self, line: int, is_write: bool = False) -> HierarchyAccessResult:
        """Access one 64-B line; fills all levels above the hit level.

        Returns the hit level (or None for main memory), the accumulated
        on-chip latency, and at most one last-level dirty writeback line.
        """
        latency = 0
        hit_level: Optional[int] = None
        for index, level in enumerate(self._levels):
            latency += self._configs[index].latency_cycles
            if level.lookup(line) is not None:
                hit_level = index
                break
        writebacks: list[int] = []
        fill_down_to = hit_level if hit_level is not None else self.num_levels
        # Fill every level above the hit point, cascading dirty victims
        # downward; only a last-level dirty eviction reaches main memory.
        pending: list[tuple[int, int, bool]] = [
            (index, line, False) for index in range(fill_down_to)
        ]
        while pending:
            index, key, dirty = pending.pop()
            victim = self._levels[index].insert(key, key, dirty=dirty)
            # (key, value, dirty); a displaced ``key`` itself stays put.
            if victim is not None and victim[2] and victim[0] != key:
                if index + 1 < self.num_levels:
                    pending.append((index + 1, victim[0], True))
                else:
                    writebacks.append(victim[0])
        if is_write:
            self._levels[0].mark_dirty(line)
        return HierarchyAccessResult(hit_level, latency, tuple(writebacks))

    def mpki(self, instructions: int) -> float:
        """Last-level misses per kilo-instruction observed so far."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self._levels[-1].misses / instructions
