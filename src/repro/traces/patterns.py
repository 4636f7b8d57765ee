"""Access-pattern primitives for trace synthesis.

Each component owns a contiguous virtual-address range.  Its
:meth:`~PatternComponent.walker` starts a walk over that range: a
generator holds the walk's state, and each call of the step it returns
produces the next (line, is_write) pair, drawing from a
:class:`~repro.traces.draws.DrawStream`.  A program is a weighted mixture
of components (:mod:`repro.traces.generator` interleaves them), mirroring
how real programs interleave accesses to differently-behaved data
structures (Section 4.2 characterizes mcf/omnetpp/libquantum as irregular
and pointer-based, soplex as mixed, and so on).

All components speak 64-B lines but think in 2-KB blocks (32 lines), the
migration granularity, because the properties that matter to the policies
under study are per-block reuse counts and residency patterns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Callable, Iterator

import numpy as np

from repro.common.errors import TraceError
from repro.traces.draws import DrawStream

LINES_PER_BLOCK = 32

#: One step of a walk: the next (virtual line, is_write).
Step = Callable[[], tuple[int, bool]]


class PatternComponent(ABC):
    """One data structure's access behaviour within a virtual range."""

    def __init__(
        self, start_line: int, num_lines: int, write_fraction: float
    ) -> None:
        if num_lines < LINES_PER_BLOCK:
            raise TraceError("component needs at least one 2-KB block")
        if not 0.0 <= write_fraction <= 1.0:
            raise TraceError("write_fraction must be in [0, 1]")
        self.start_line = start_line
        self.num_lines = num_lines
        self.write_fraction = write_fraction

    @property
    def num_blocks(self) -> int:
        """2-KB blocks in this component's range."""
        return self.num_lines // LINES_PER_BLOCK

    @abstractmethod
    def walker(self, draws: DrawStream) -> Step:
        """Start a walk: each call of the result is the next access.

        Every call draws its write flag last, with
        ``draws.chance(write_fraction)``.
        """


class StreamComponent(PatternComponent):
    """Interleaved sequential scans over the range, wrapping indefinitely.

    Scientific kernels (lbm's lattice sweep, bwaves, GemsFDTD) stream
    through several arrays at once: the component splits its range into
    ``num_streams`` stripes with one cursor each and rotates among them,
    so concurrent streams collide in the row buffers like real multi-array
    stencils do.  Every line receives ``touches_per_line`` consecutive
    accesses per pass; a block's per-residency access count is large but
    the block never returns once the scan moves on.
    """

    def __init__(
        self,
        start_line: int,
        num_lines: int,
        write_fraction: float,
        touches_per_line: int = 1,
        num_streams: int = 1,
    ) -> None:
        super().__init__(start_line, num_lines, write_fraction)
        if touches_per_line < 1:
            raise TraceError("touches_per_line must be >= 1")
        if num_streams < 1:
            raise TraceError("num_streams must be >= 1")
        self.touches_per_line = touches_per_line
        self.num_streams = min(num_streams, self.num_blocks)
        stripe_blocks = self.num_blocks // self.num_streams
        self._stripe_lines = max(stripe_blocks * LINES_PER_BLOCK, 1)

    def walker(self, draws: DrawStream) -> Step:
        is_write = draws.chance(self.write_fraction)
        touches = range(self.touches_per_line)
        # The streams advance in lockstep, one access each per turn.
        bases = [
            self.start_line + stream * self._stripe_lines
            for stream in range(self.num_streams)
        ]
        positions = range(self._stripe_lines)

        def accesses() -> Iterator[tuple[int, bool]]:
            while True:
                for position in positions:
                    for _ in touches:
                        for base in bases:
                            yield base + position, is_write()

        return accesses().__next__


class HotSetComponent(PatternComponent):
    """Zipf-distributed block reuse: few hot blocks, long cold tail.

    Episodes model temporal locality: a block drawn from a Zipf
    distribution receives a burst of ``episode_length`` (geometric mean)
    sequential-with-jitter accesses, then the next block is drawn.  Hot
    blocks accumulate large per-residency counts, cold ones small —
    exactly the structure MDM's QAC attribute is built to distinguish.
    """

    def __init__(
        self,
        start_line: int,
        num_lines: int,
        write_fraction: float,
        zipf_s: float = 0.9,
        episode_length: int = 8,
    ) -> None:
        super().__init__(start_line, num_lines, write_fraction)
        if episode_length < 1:
            raise TraceError("episode_length must be >= 1")
        self.episode_length = episode_length
        ranks = np.arange(1, self.num_blocks + 1, dtype=np.float64)
        weights = ranks ** (-zipf_s)
        cdf = np.cumsum(weights / weights.sum())
        # The rounded sum can fall short of 1.0; a draw above it would
        # pick block num_blocks, one past the range.
        cdf[-1] = 1.0
        #: Zipf CDF over blocks; ``bisect_left`` on it is
        #: ``searchsorted(side="left")``.
        self._cdf: list[float] = cdf.tolist()

    def walker(self, draws: DrawStream) -> Step:
        random, integers, geometric = (
            draws.random, draws.integers, draws.geometric,
        )
        is_write = draws.chance(self.write_fraction)
        cdf = self._cdf
        start_line = self.start_line
        p = 1.0 / self.episode_length

        def accesses() -> Iterator[tuple[int, bool]]:
            while True:
                block = bisect_left(cdf, random())
                block_line = start_line + block * LINES_PER_BLOCK
                length = geometric(p)
                offset = integers(0, LINES_PER_BLOCK)
                # Sequential from the drawn offset, wrapping in the block.
                for _ in range(length):
                    yield block_line + offset, is_write()
                    offset = (offset + 1) % LINES_PER_BLOCK

        return accesses().__next__


class ChaseComponent(PatternComponent):
    """Pointer chasing: short episodes over a drifting locality window.

    Models mcf/omnetpp-style irregular traversals: the next block is
    drawn uniformly from a window around the current position (the window
    drifts), with occasional global jumps; each visit touches only
    ``episode_length`` lines.  Per-residency counts stay tiny, so
    promoting such blocks is rarely worthwhile — the behaviour that
    separates good migration decisions from bad ones (Section 5.1).
    """

    def __init__(
        self,
        start_line: int,
        num_lines: int,
        write_fraction: float,
        window_blocks: int = 64,
        jump_probability: float = 0.05,
        episode_length: int = 2,
    ) -> None:
        super().__init__(start_line, num_lines, write_fraction)
        if window_blocks < 1:
            raise TraceError("window_blocks must be >= 1")
        if episode_length < 1:
            raise TraceError("episode_length must be >= 1")
        self.window_blocks = min(window_blocks, self.num_blocks)
        self.jump_probability = jump_probability
        self.episode_length = episode_length

    def walker(self, draws: DrawStream) -> Step:
        integers, geometric = draws.integers, draws.geometric
        jumps = draws.chance(self.jump_probability)
        is_write = draws.chance(self.write_fraction)
        num_blocks = self.num_blocks
        half = self.window_blocks // 2
        start_line = self.start_line
        p = 1.0 / self.episode_length

        def accesses() -> Iterator[tuple[int, bool]]:
            position = 0
            while True:
                if jumps():
                    position = integers(0, num_blocks)
                low = position - half
                high = position + half + 1
                position = integers(
                    low if low > 0 else 0,
                    high if high < num_blocks else num_blocks,
                )
                block_line = start_line + position * LINES_PER_BLOCK
                for _ in range(geometric(p)):
                    line = block_line + integers(0, LINES_PER_BLOCK)
                    yield line, is_write()

        return accesses().__next__
