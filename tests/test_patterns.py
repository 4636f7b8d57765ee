"""Access-pattern component tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.traces.generator import (
    LINES_PER_PAGE,
    _build_components,
    footprint_pages,
)
from repro.traces.spec import profile
from repro.traces.draws import DrawStream
from repro.traces.patterns import (
    ChaseComponent,
    HotSetComponent,
    LINES_PER_BLOCK,
    StreamComponent,
)


def walk(component):
    """Start a walk over ``component`` drawing from a fixed seed."""
    return component.walker(DrawStream(np.random.default_rng(42)))


class TestStream:
    def test_sequential_within_stripe(self):
        stream = StreamComponent(0, 128, write_fraction=0.0)
        step = walk(stream)
        lines = [step()[0] for _ in range(5)]
        assert lines == [0, 1, 2, 3, 4]

    def test_wraps_around(self):
        stream = StreamComponent(0, 32, write_fraction=0.0)
        step = walk(stream)
        lines = [step()[0] for _ in range(33)]
        assert lines[32] == lines[0]

    def test_start_offset(self):
        stream = StreamComponent(1000, 32, write_fraction=0.0)
        assert walk(stream)()[0] == 1000

    def test_touches_per_line(self):
        stream = StreamComponent(0, 64, 0.0, touches_per_line=2)
        step = walk(stream)
        lines = [step()[0] for _ in range(4)]
        assert lines == [0, 0, 1, 1]

    def test_multiple_streams_interleave(self):
        stream = StreamComponent(0, 128, 0.0, num_streams=2)
        step = walk(stream)
        lines = [step()[0] for _ in range(4)]
        assert lines == [0, 64, 1, 65]

    def test_touches_per_line_with_multiple_streams(self):
        stream = StreamComponent(0, 128, 0.0, touches_per_line=2,
                                 num_streams=2)
        step = walk(stream)
        lines = [step()[0] for _ in range(8)]
        assert lines == [0, 64, 0, 64, 1, 65, 1, 65]

    def test_write_fraction_respected(self):
        stream = StreamComponent(0, 64, write_fraction=1.0)
        assert walk(stream)()[1] is True

    def test_stays_in_range(self):
        stream = StreamComponent(64, 96, 0.5, num_streams=3)
        step = walk(stream)
        for _ in range(500):
            line, _ = step()
            assert 64 <= line < 64 + 96

    def test_rejects_tiny_range(self):
        with pytest.raises(TraceError):
            StreamComponent(0, 16, 0.0)

    def test_rejects_bad_write_fraction(self):
        with pytest.raises(TraceError):
            StreamComponent(0, 64, 1.5)


class TestHotSet:
    def test_zipf_concentrates_on_few_blocks(self):
        hot = HotSetComponent(0, 256 * LINES_PER_BLOCK, 0.0, zipf_s=1.2)
        step = walk(hot)
        blocks = [
            step()[0] // LINES_PER_BLOCK
            for _ in range(4000)
        ]
        counts = np.bincount(blocks, minlength=256)
        top_share = np.sort(counts)[::-1][:16].sum() / 4000
        assert top_share > 0.4  # top 1/16 of blocks get >40% of accesses

    def test_episodes_are_block_local(self):
        hot = HotSetComponent(
            0, 64 * LINES_PER_BLOCK, 0.0, episode_length=1000
        )
        step = walk(hot)
        blocks = {
            step()[0] // LINES_PER_BLOCK
            for _ in range(20)
        }
        assert len(blocks) <= 2  # one long episode spans one block

    def test_stays_in_range(self):
        hot = HotSetComponent(320, 10 * LINES_PER_BLOCK, 0.3)
        step = walk(hot)
        for _ in range(1000):
            line, _ = step()
            assert 320 <= line < 320 + 10 * LINES_PER_BLOCK

    @pytest.mark.parametrize("episode_length", [0, 0.5])
    def test_rejects_short_episodes(self, episode_length):
        with pytest.raises(TraceError, match="episode_length"):
            HotSetComponent(
                0, 64 * LINES_PER_BLOCK, 0.0, episode_length=episode_length
            )


class TestHotSetTail:
    """The Zipf CDF ends at exactly 1.0, so no draw picks a block past
    the component's range."""

    @staticmethod
    def _hot(name, scale):
        program = profile(name)
        layout = _build_components(
            program, footprint_pages(program, scale) * LINES_PER_PAGE
        )
        (hot,) = [c for c in layout if isinstance(c, HotSetComponent)]
        (spec,) = [s for s in program.components if s.kind == "hot"]
        return hot, spec.params["zipf_s"]

    def test_draw_above_the_rounded_sum_stays_in_range(self):
        hot, zipf_s = self._hot("mcf", 2)
        weights = np.arange(1, hot.num_blocks + 1, dtype=np.float64) ** (
            -zipf_s
        )
        rounded = np.cumsum(weights / weights.sum())
        assert rounded[-1] < 1.0
        draw = float(np.nextafter(rounded[-1], 1.0))
        assert draw < 1.0
        # The unpinned lookup picks block num_blocks, past the range.
        assert np.searchsorted(rounded, draw) == hot.num_blocks
        stub = SimpleNamespace(
            random=iter([draw]).__next__,
            chance=lambda p: lambda: False,
            integers=lambda low, high: low,
            geometric=lambda p: 1,
        )
        line, _ = hot.walker(stub)()
        last_block = hot.start_line + (hot.num_blocks - 1) * LINES_PER_BLOCK
        assert line == last_block

    @pytest.mark.parametrize("scale", [1, 2, 64, 256])
    @pytest.mark.parametrize(
        "name", ["bwaves", "leslie3d", "mcf", "omnetpp", "soplex"]
    )
    def test_cdf_ends_at_one(self, name, scale):
        hot, _ = self._hot(name, scale)
        assert hot._cdf[-1] == 1.0
        assert hot._cdf == sorted(hot._cdf)


class TestChase:
    def test_episode_lengths_short(self):
        chase = ChaseComponent(
            0, 512 * LINES_PER_BLOCK, 0.0, episode_length=1
        )
        step = walk(chase)
        blocks = [
            step()[0] // LINES_PER_BLOCK
            for _ in range(200)
        ]
        distinct = len(set(blocks))
        assert distinct > 50  # single-touch visits roam widely

    def test_window_locality(self):
        chase = ChaseComponent(
            0,
            4096 * LINES_PER_BLOCK,
            0.0,
            window_blocks=8,
            jump_probability=0.0,
        )
        step = walk(chase)
        blocks = [
            step()[0] // LINES_PER_BLOCK
            for _ in range(100)
        ]
        steps = [abs(b - a) for a, b in zip(blocks, blocks[1:])]
        assert max(steps) <= 8

    def test_jumps_break_locality(self):
        chase = ChaseComponent(
            0,
            4096 * LINES_PER_BLOCK,
            0.0,
            window_blocks=4,
            jump_probability=1.0,
            episode_length=1,
        )
        step = walk(chase)
        blocks = [
            step()[0] // LINES_PER_BLOCK
            for _ in range(100)
        ]
        steps = [abs(b - a) for a, b in zip(blocks, blocks[1:])]
        assert max(steps) > 64

    def test_stays_in_range(self):
        chase = ChaseComponent(128, 20 * LINES_PER_BLOCK, 0.2)
        step = walk(chase)
        for _ in range(1000):
            line, _ = step()
            assert 128 <= line < 128 + 20 * LINES_PER_BLOCK

    @pytest.mark.parametrize(
        "walk_parameter",
        [{"episode_length": 0}, {"episode_length": 0.5}, {"window_blocks": 0}],
        ids=["no-episode", "fractional-episode", "no-window"],
    )
    def test_rejects_degenerate_walks(self, walk_parameter):
        with pytest.raises(TraceError):
            ChaseComponent(0, 64 * LINES_PER_BLOCK, 0.0, **walk_parameter)
