"""Trace synthesis tests: MPKI, footprint scaling, determinism, and
byte-equality with the per-request numpy loop (DESIGN.md §18)."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.common.rng import make_rng
from repro.common.units import MB
from repro.cpu.trace import Trace
from repro.traces.generator import (
    LINES_PER_PAGE,
    _build_components,
    _synthesize,
    cached_trace,
    footprint_pages,
    synthesize_trace,
)
from repro.traces.patterns import LINES_PER_BLOCK
from repro.traces.spec import PROGRAM_PROFILES, profile


# -- the per-request numpy loop: the synthesis oracle ----------------------
#
# The components and loop synthesis used before batched draws, verbatim
# apart from construction: each access makes scalar calls on the numpy
# Generator itself.  Layout comes from the generator's
# ``_build_components``; only the walks and the loop are the reference.


class LegacyStream:
    def __init__(self, start_line, num_lines, write_fraction,
                 touches_per_line=1, num_streams=1):
        self.start_line = start_line
        self.write_fraction = write_fraction
        self.touches_per_line = touches_per_line
        num_blocks = num_lines // LINES_PER_BLOCK
        self.num_streams = min(num_streams, num_blocks)
        stripe_blocks = num_blocks // self.num_streams
        self._stripe_lines = max(stripe_blocks * LINES_PER_BLOCK, 1)
        self._positions = [0] * self.num_streams
        self._touches = [0] * self.num_streams
        self._turn = 0

    def next_access(self, rng):
        stream = self._turn
        self._turn = (self._turn + 1) % self.num_streams
        base = stream * self._stripe_lines
        line = self.start_line + base + self._positions[stream]
        self._touches[stream] += 1
        if self._touches[stream] >= self.touches_per_line:
            self._touches[stream] = 0
            self._positions[stream] = (
                self._positions[stream] + 1
            ) % self._stripe_lines
        return line, bool(rng.random() < self.write_fraction)


class LegacyHotSet:
    def __init__(self, start_line, num_lines, write_fraction, zipf_s=0.9,
                 episode_length=8):
        self.start_line = start_line
        self.write_fraction = write_fraction
        self.episode_length = episode_length
        num_blocks = num_lines // LINES_PER_BLOCK
        ranks = np.arange(1, num_blocks + 1, dtype=np.float64)
        weights = ranks ** (-zipf_s)
        self._cdf = np.cumsum(weights / weights.sum())
        self._block = 0
        self._remaining = 0
        self._offset = 0

    def next_access(self, rng):
        if self._remaining <= 0:
            self._block = int(np.searchsorted(self._cdf, rng.random()))
            self._remaining = int(rng.geometric(1.0 / self.episode_length))
            self._offset = int(rng.integers(0, LINES_PER_BLOCK))
        self._remaining -= 1
        line = (
            self.start_line + self._block * LINES_PER_BLOCK + self._offset
        )
        self._offset = (self._offset + 1) % LINES_PER_BLOCK
        return line, bool(rng.random() < self.write_fraction)


class LegacyChase:
    def __init__(self, start_line, num_lines, write_fraction,
                 window_blocks=64, jump_probability=0.05, episode_length=2):
        self.start_line = start_line
        self.write_fraction = write_fraction
        self.num_blocks = num_lines // LINES_PER_BLOCK
        self.window_blocks = min(window_blocks, self.num_blocks)
        self.jump_probability = jump_probability
        self.episode_length = episode_length
        self._position = 0
        self._block = 0
        self._remaining = 0

    def next_access(self, rng):
        if self._remaining <= 0:
            if rng.random() < self.jump_probability:
                self._position = int(rng.integers(0, self.num_blocks))
            half = self.window_blocks // 2
            low = max(0, self._position - half)
            high = min(self.num_blocks, self._position + half + 1)
            self._block = int(rng.integers(low, high))
            self._position = self._block
            self._remaining = max(
                1, int(rng.geometric(1.0 / self.episode_length))
            )
        self._remaining -= 1
        offset = int(rng.integers(0, LINES_PER_BLOCK))
        line = self.start_line + self._block * LINES_PER_BLOCK + offset
        return line, bool(rng.random() < self.write_fraction)


LEGACY_KINDS = {"stream": LegacyStream, "hot": LegacyHotSet,
                "chase": LegacyChase}


def legacy_synthesize(program, num_requests, scale, seed):
    """The per-request numpy loop the batched draws replace."""
    rng = make_rng(seed, "trace", program.name, scale, num_requests)
    layout = _build_components(
        program, footprint_pages(program, scale) * LINES_PER_PAGE
    )
    components = [
        LEGACY_KINDS[spec.kind](
            placed.start_line, placed.num_lines, spec.write_fraction,
            **spec.params,
        )
        for spec, placed in zip(program.components, layout)
    ]
    weights = np.array([spec.weight for spec in program.components])
    weights = weights / weights.sum()
    choices = rng.choice(len(components), size=num_requests, p=weights)
    mean_gap = max(1000.0 / program.mpki - 1.0, 0.0)
    if mean_gap > 0:
        gaps = rng.geometric(1.0 / (mean_gap + 1.0), size=num_requests) - 1
    else:
        gaps = np.zeros(num_requests, dtype=np.int64)
    lines = np.empty(num_requests, dtype=np.int64)
    writes = np.empty(num_requests, dtype=bool)
    for index, component_index in enumerate(choices):
        line, is_write = components[component_index].next_access(rng)
        lines[index] = line
        writes[index] = is_write
    return Trace(gaps=gaps.astype(np.int64), lines=lines, writes=writes)


def assert_identical(trace, reference):
    for field in ("gaps", "lines", "writes"):
        got, want = getattr(trace, field), getattr(reference, field)
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field


#: (requests, scale) pairs for the byte-equality grid.
LENGTHS = [(300, 32), (1500, 64), (5000, 128)]
#: Seed 0's and seed 7's first two program instances
#: (``seed * 1000 + instance``): duplicate-instance seeds.
SEEDS = [0, 1, 7000, 7001]


class TestMatchesPerRequestLoop:
    @pytest.mark.parametrize("length, scale", LENGTHS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(PROGRAM_PROFILES))
    def test_byte_identical(self, name, seed, length, scale):
        program = profile(name)
        assert_identical(
            _synthesize(program, length, scale, seed),
            legacy_synthesize(program, length, scale, seed),
        )

    @pytest.mark.parametrize("name", ["mcf", "milc"])
    def test_long_trace_byte_identical(self, name):
        # mcf resyncs at every hot-set episode; milc never resyncs, so
        # its batches grow to the cap and refill many times.
        program = profile(name)
        assert_identical(
            _synthesize(program, 20_000, 128, 1001),
            legacy_synthesize(program, 20_000, 128, 1001),
        )


class TestFootprintScaling:
    def test_paper_scale(self):
        pages = footprint_pages(profile("libquantum"), scale=1)
        assert pages == 32 * MB // 4096

    def test_scaling_divides(self):
        full = footprint_pages(profile("mcf"), scale=1)
        scaled = footprint_pages(profile("mcf"), scale=64)
        assert scaled == pytest.approx(full / 64, rel=0.01)

    def test_minimum_floor(self):
        assert footprint_pages(profile("libquantum"), scale=1 << 20) >= 4


class TestSynthesis:
    def test_mpki_approximates_profile(self):
        trace = synthesize_trace("mcf", 20_000, scale=64, seed=1)
        assert trace.mpki == pytest.approx(60, rel=0.15)

    def test_low_mpki_program(self):
        trace = synthesize_trace("zeusmp", 20_000, scale=64, seed=1)
        assert trace.mpki == pytest.approx(5, rel=0.15)

    def test_footprint_within_bounds(self):
        trace = synthesize_trace("omnetpp", 30_000, scale=64, seed=1)
        limit = footprint_pages(profile("omnetpp"), 64) * LINES_PER_PAGE
        assert trace.max_line() < limit

    def test_write_fraction_reasonable(self):
        trace = synthesize_trace("lbm", 30_000, scale=64, seed=1)
        assert 0.25 < trace.write_fraction < 0.55

    def test_deterministic(self):
        a = synthesize_trace("milc", 5_000, scale=64, seed=7)
        b = synthesize_trace("milc", 5_000, scale=64, seed=7)
        assert (a.lines == b.lines).all()
        assert (a.gaps == b.gaps).all()

    def test_seeds_differ(self):
        a = synthesize_trace("milc", 5_000, scale=64, seed=7)
        b = synthesize_trace("milc", 5_000, scale=64, seed=8)
        assert (a.lines != b.lines).any()

    def test_cached_identity(self):
        a = cached_trace("milc", 5_000, 64, 7)
        b = cached_trace("milc", 5_000, 64, 7)
        assert a is b

    def test_rejects_zero_requests(self):
        with pytest.raises(TraceError):
            synthesize_trace("milc", 0, scale=64)

    def test_unknown_program(self):
        with pytest.raises(KeyError):
            synthesize_trace("gcc", 100, scale=64)

    def test_custom_profile_accepted(self):
        trace = synthesize_trace(profile("lbm"), 1_000, scale=64)
        assert len(trace) == 1_000


class TestProfiles:
    def test_all_table9_present(self):
        assert len(PROGRAM_PROFILES) == 10

    @pytest.mark.parametrize("name", sorted(PROGRAM_PROFILES))
    def test_weights_sum_to_one(self, name):
        assert sum(c.weight for c in profile(name).components) == pytest.approx(1.0)

    def test_table9_mpki_values(self):
        assert profile("mcf").mpki == 60
        assert profile("zeusmp").mpki == 5
        assert profile("lbm").footprint_mb == 402

    def test_irregular_programs_have_chase(self):
        for name in ("mcf", "omnetpp"):
            kinds = {c.kind for c in profile(name).components}
            assert "chase" in kinds

    def test_libquantum_is_pure_stream(self):
        kinds = [c.kind for c in profile("libquantum").components]
        assert kinds == ["stream"]
