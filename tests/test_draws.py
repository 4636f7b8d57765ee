"""DrawStream tests: every draw bit-identical to the same numpy Generator
call on a same-seed generator (DESIGN.md §18)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvalidValueError
from repro.traces.draws import FIRST_BATCH, MAX_BATCH, DrawStream

#: Power-of-two, non-power-of-two, width-1, full 32-bit and
#: rejection-prone widths (2**31 + 1 rejects about half its draws).
WIDTHS = (1, 2, 32, 1 << 20, 1 << 32, 3, 96, 1000, (1 << 31) + 1,
          3 * (1 << 30) + 1)
#: Both sides of numpy's 1/3 switch, the switch itself and p == 1.
PROBABILITIES = (1.0, 0.999, 0.5, 0.4, 1.0 / 3.0,
                 float(np.nextafter(1.0 / 3.0, 0)), 0.25, 1.0 / 12, 0.01)

_OPS = st.one_of(
    st.tuples(st.just("random"), st.integers(1, 60)),
    st.tuples(
        st.just("chance"),
        st.one_of(
            st.sampled_from((0.0, 1.0, 0.5, 0.3, 0.12, 2.0**-60)),
            st.floats(0.0, 1.0),
        ),
        st.integers(1, 60),
    ),
    st.tuples(
        st.just("integers"), st.integers(-100, 100), st.sampled_from(WIDTHS)
    ),
    st.tuples(st.just("geometric"), st.sampled_from(PROBABILITIES)),
)


def _pair(seed, buffered):
    """A stream and its same-seed reference, optionally with the high
    half of a raw value buffered in both before the stream starts."""
    stream_rng = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    if buffered:
        stream_rng.integers(0, 7)
        reference.integers(0, 7)
    assert stream_rng.bit_generator.state["has_uint32"] == int(buffered)
    return DrawStream(stream_rng), reference


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    buffered=st.booleans(),
    ops=st.lists(_OPS, max_size=80),
)
def test_interleaved_draws_match_the_generator(seed, buffered, ops):
    draws, reference = _pair(seed, buffered)
    for op in ops:
        if op[0] == "random":
            for _ in range(op[1]):
                assert draws.random() == reference.random()
        elif op[0] == "chance":
            _, p, count = op
            flag = draws.chance(p)
            for _ in range(count):
                assert flag() is (reference.random() < p)
        elif op[0] == "integers":
            _, low, width = op
            expected = reference.integers(low, low + width)
            assert draws.integers(low, low + width) == expected
        else:
            assert draws.geometric(op[1]) == reference.geometric(op[1])


@pytest.mark.parametrize("buffered", [False, True])
def test_long_run_crosses_every_batch_size(buffered):
    draws, reference = _pair(3, buffered)
    count = 2 * MAX_BATCH + sum(
        FIRST_BATCH * 4**step for step in range(5)
    )
    assert [draws.random() for _ in range(count)] == (
        reference.random(count).tolist()
    )
    assert draws.integers(0, 32) == reference.integers(0, 32)


def test_resync_mid_batch_keeps_the_buffered_half():
    draws, reference = _pair(11, False)
    for _ in range(5):
        assert draws.random() == reference.random()
    # Leaves a high half buffered across the ziggurat resync.
    assert draws.integers(0, 96) == reference.integers(0, 96)
    assert draws.geometric(0.1) == reference.geometric(0.1)
    assert draws.integers(0, 96) == reference.integers(0, 96)
    for _ in range(3 * FIRST_BATCH):
        assert draws.random() == reference.random()


@pytest.mark.parametrize("seed", range(20))
def test_chance_at_the_drawn_double(seed):
    # p equal to the next double is the tightest case on each side.
    draws, reference = _pair(seed, False)
    peek = np.random.default_rng(seed)
    for _ in range(3):
        uniform = peek.random()
        assert draws.chance(uniform)() is False
        assert reference.random() == uniform
    for _ in range(3):
        uniform = peek.random()
        assert draws.chance(float(np.nextafter(uniform, 1.0)))() is True
        assert reference.random() == uniform


def test_chance_at_a_raw_with_zero_low_bits():
    # Only a raw whose low 11 bits are zero meets the limit itself.
    peek = np.random.default_rng(2).bit_generator.random_raw(20_000)
    index = int(np.flatnonzero(peek & 0x7FF == 0)[0])
    draws, reference = _pair(2, False)
    for _ in range(index):
        draws.random()
        reference.random()
    uniform = int(peek[index] >> 11) * 2.0**-53
    assert draws.chance(uniform)() is (reference.random() < uniform)


@pytest.mark.parametrize("seed", range(40))
def test_geometric_search_at_the_drawn_double(seed):
    # The search stops at once when the double equals p itself.
    draws, reference = _pair(seed, False)
    uniform = np.random.default_rng(seed).random()
    p = max(uniform, 1.0 / 3.0)
    assert draws.geometric(p) == reference.geometric(p)


def test_width_one_consumes_no_draw():
    draws, reference = _pair(5, False)
    assert draws.integers(41, 42) == 41
    assert draws.random() == reference.random()


@pytest.mark.parametrize("low, high", [(3, 3), (4, 2), (0, (1 << 32) + 1)])
def test_rejects_ranges_outside_the_32_bit_path(low, high):
    draws, _ = _pair(0, False)
    with pytest.raises(InvalidValueError):
        draws.integers(low, high)


def test_rejects_probability_above_one():
    draws, _ = _pair(0, False)
    with pytest.raises(InvalidValueError):
        draws.geometric(1.5)


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_rejects_chance_outside_the_unit_interval(p):
    draws, _ = _pair(0, False)
    with pytest.raises(InvalidValueError):
        draws.chance(p)
