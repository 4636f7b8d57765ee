"""Columnar (structure-of-arrays) request storage for the channel.

The channel hot path used to walk deques of per-request ``MemRequest``
objects; at hundreds of thousands of served requests per benchmark the
allocation and attribute-chasing cost dominated the simulator.  This
module holds the replacement layout (DESIGN.md §14):

* :class:`RequestBatch` — one controller queue (reads or posted writes)
  as parallel preallocated ``int64`` columns plus a slot free-list and
  an arrival-order array.  Python-object payloads that cannot be
  columnized (completion callbacks, legacy ``MemRequest`` origins) live
  in parallel lists indexed by the same slot.
* Bank state lives in four channel-owned ``int64`` arrays indexed by a
  *global bank key* (``module * banks_per_rank + bank``); the channel
  binds :class:`memoryview` fast views for scalar access and keeps the
  numpy arrays for the vectorized all-bank refresh.
* :class:`BankView` — a read-only window onto one bank's slice of those
  arrays, preserving the ``Channel.bank()`` inspection API.

Dequeue and slot recycling are inlined in the channel's fused tick
(``Channel._tick_python``), the only consumer of a popped entry.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

#: Sentinel for "no row open" in the bank ``open_row`` column.  The ST
#: area uses a *negative* row namespace (``-1 - k``), so the sentinel
#: must sit far below any representable row id, not at ``-1``.
NO_ROW = -(1 << 60)

#: Initial slot capacity of a queue; grows by doubling.  The posted
#: write queue is capped at 32 plus in-flight acceptance, and read
#: queues rarely pass a few dozen entries, so one growth step is rare.
INITIAL_CAPACITY = 64


class RequestBatch:
    """One pending-request queue in columnar layout.

    Columns are parallel ``int64`` arrays indexed by *slot*; ``order``
    holds the live slots in arrival order (``order[0]`` is the oldest)
    and ``count`` is the number of live entries.  Slots are recycled
    through ``free`` (a LIFO stack); slot numbering never influences
    results — only ``order`` does.

    Scalar hot-path access goes through the bound ``*_v`` memoryviews
    (plain buffer indexing, no numpy scalar boxing); the numpy arrays
    alias the same memory and back growth.
    """

    __slots__ = (
        "capacity",
        "count",
        "bank_key",
        "row",
        "is_write",
        "arrival",
        "kind",
        "order",
        "free",
        "callbacks",
        "origins",
        "bank_key_v",
        "row_v",
        "is_write_v",
        "arrival_v",
        "kind_v",
        "order_v",
    )

    def __init__(self, capacity: int = INITIAL_CAPACITY) -> None:
        self.capacity = capacity
        self.count = 0
        self.bank_key = np.zeros(capacity, dtype=np.int64)
        self.row = np.zeros(capacity, dtype=np.int64)
        self.is_write = np.zeros(capacity, dtype=np.int64)
        self.arrival = np.zeros(capacity, dtype=np.int64)
        self.kind = np.zeros(capacity, dtype=np.int64)
        self.order = np.zeros(capacity, dtype=np.int64)
        #: LIFO free-slot stack (pop from the end).
        self.free = list(range(capacity - 1, -1, -1))
        #: Per-slot completion callback (reads) or None (posted writes).
        self.callbacks: List[Optional[Callable[[int], None]]] = (
            [None] * capacity
        )
        #: Per-slot legacy MemRequest to write completion/row_hit back
        #: into (compat enqueue path only; None on the SoA fast path).
        self.origins: List[Optional[object]] = [None] * capacity
        self._bind_views()

    def _bind_views(self) -> None:
        self.bank_key_v = memoryview(self.bank_key)
        self.row_v = memoryview(self.row)
        self.is_write_v = memoryview(self.is_write)
        self.arrival_v = memoryview(self.arrival)
        self.kind_v = memoryview(self.kind)
        self.order_v = memoryview(self.order)

    def __len__(self) -> int:
        return self.count

    def _grow(self) -> None:
        """Double every column, keeping slot numbering stable."""
        old = self.capacity
        new = old * 2
        for name in ("bank_key", "row", "is_write", "arrival", "kind", "order"):
            column = np.zeros(new, dtype=np.int64)
            column[:old] = getattr(self, name)
            setattr(self, name, column)
        self.free.extend(range(new - 1, old - 1, -1))
        self.callbacks.extend([None] * old)
        self.origins.extend([None] * old)
        self.capacity = new
        self._bind_views()

    def push(
        self,
        bank_key: int,
        row: int,
        is_write: int,
        arrival: int,
        kind: int,
        callback: Optional[Callable[[int], None]],
        origin: Optional[object] = None,
    ) -> int:
        """Append a request (arrival order); returns its slot."""
        free = self.free
        if not free:
            self._grow()
            free = self.free
        slot = free.pop()
        self.bank_key_v[slot] = bank_key
        self.row_v[slot] = row
        self.is_write_v[slot] = is_write
        self.arrival_v[slot] = arrival
        self.kind_v[slot] = kind
        self.callbacks[slot] = callback
        self.origins[slot] = origin
        count = self.count
        self.order_v[count] = slot
        self.count = count + 1
        return slot


class BankView:
    """Read-only view of one bank inside the channel's state arrays.

    Preserves the ``Channel.bank(module, index)`` inspection API (tests
    and policies) over the columnar bank state.  ``open_row`` translates
    the :data:`NO_ROW` sentinel back to ``None`` so callers see the same
    values the old per-bank objects exposed.
    """

    __slots__ = ("_open_row", "_ready_at", "_dirty", "_closed_until", "_key")

    def __init__(
        self,
        open_row: np.ndarray,
        ready_at: np.ndarray,
        dirty: np.ndarray,
        closed_until: np.ndarray,
        key: int,
    ) -> None:
        self._open_row = open_row
        self._ready_at = ready_at
        self._dirty = dirty
        self._closed_until = closed_until
        self._key = key

    @property
    def open_row(self) -> Optional[int]:
        row = int(self._open_row[self._key])
        return None if row == NO_ROW else row

    @property
    def ready_at(self) -> int:
        return int(self._ready_at[self._key])

    @property
    def dirty(self) -> bool:
        return bool(self._dirty[self._key])

    @property
    def closed_until(self) -> int:
        return int(self._closed_until[self._key])

    def is_row_hit(self, row: int) -> bool:
        """True if ``row`` is currently open in this bank's row buffer."""
        return int(self._open_row[self._key]) == row
