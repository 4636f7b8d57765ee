"""Main-memory trace format and helpers.

A trace is three parallel arrays: ``gaps`` (instructions executed since
the previous memory request), ``lines`` (virtual 64-B line numbers), and
``writes`` (booleans).  This is exactly the information the paper's
Pin-based simulator feeds its memory system per L3 miss, and all of what
the evaluated policies can observe.

Traces are synthesized (:mod:`repro.traces`) or loaded/saved as ``.npz``
files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.common.errors import TraceError

TraceRecord = Tuple[int, int, bool]


@dataclass(frozen=True)
class Trace:
    """An immutable main-memory access trace for one program."""

    gaps: np.ndarray
    lines: np.ndarray
    writes: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.gaps) == len(self.lines) == len(self.writes)):
            raise TraceError("trace arrays must have equal length")
        if len(self.gaps) == 0:
            raise TraceError("empty trace")
        if (np.asarray(self.gaps) < 0).any():
            raise TraceError("negative instruction gap")
        if (np.asarray(self.lines) < 0).any():
            raise TraceError("negative line address")

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[TraceRecord]:
        for gap, line, write in zip(self.gaps, self.lines, self.writes):
            yield int(gap), int(line), bool(write)

    @property
    def instructions(self) -> int:
        """Total instructions represented (gaps + one per memory op)."""
        return int(np.sum(self.gaps)) + len(self)

    @property
    def mpki(self) -> float:
        """Memory requests per kilo-instruction of this trace."""
        return 1000.0 * len(self) / self.instructions

    @property
    def write_fraction(self) -> float:
        """Fraction of requests that are writes."""
        return float(np.mean(self.writes))

    @property
    def footprint_lines(self) -> int:
        """Distinct 64-B lines touched."""
        return int(len(np.unique(self.lines)))

    def max_line(self) -> int:
        """Largest virtual line number (for sizing page tables)."""
        return int(np.max(self.lines))

    @staticmethod
    def from_records(records: Iterable[TraceRecord]) -> "Trace":
        """Build a trace from (gap, line, is_write) tuples."""
        materialized = list(records)
        if not materialized:
            raise TraceError("empty trace")
        gaps = np.array([r[0] for r in materialized], dtype=np.int64)
        lines = np.array([r[1] for r in materialized], dtype=np.int64)
        writes = np.array([r[2] for r in materialized], dtype=bool)
        return Trace(gaps=gaps, lines=lines, writes=writes)

    def save(self, path: str | Path) -> None:
        """Persist as a compressed ``.npz`` file."""
        np.savez_compressed(
            Path(path), gaps=self.gaps, lines=self.lines, writes=self.writes
        )

    @staticmethod
    def load(path: str | Path) -> "Trace":
        """Load a trace written by :meth:`save`."""
        try:
            data = np.load(Path(path))
            return Trace(
                gaps=data["gaps"], lines=data["lines"], writes=data["writes"]
            )
        except (KeyError, OSError, ValueError) as exc:
            raise TraceError(f"cannot load trace from {path}: {exc}") from exc

    def truncated(self, max_requests: int) -> "Trace":
        """A prefix of this trace with at most ``max_requests`` requests."""
        if max_requests < 1:
            raise TraceError("max_requests must be >= 1")
        if max_requests >= len(self):
            return self
        return Trace(
            gaps=self.gaps[:max_requests],
            lines=self.lines[:max_requests],
            writes=self.writes[:max_requests],
        )

