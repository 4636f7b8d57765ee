"""Trace container tests."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.cpu.trace import Trace


def simple_trace():
    return Trace.from_records([(10, 0, False), (5, 1, True), (0, 2, False)])


class TestTrace:
    def test_length(self):
        assert len(simple_trace()) == 3

    def test_iteration(self):
        records = list(simple_trace())
        assert records[0] == (10, 0, False)
        assert records[1] == (5, 1, True)

    def test_instructions(self):
        # gaps 10+5+0 plus one instruction per memory op.
        assert simple_trace().instructions == 18

    def test_mpki(self):
        assert simple_trace().mpki == pytest.approx(1000 * 3 / 18)

    def test_write_fraction(self):
        assert simple_trace().write_fraction == pytest.approx(1 / 3)

    def test_footprint_lines(self):
        assert simple_trace().footprint_lines == 3

    def test_max_line(self):
        assert simple_trace().max_line() == 2

    def test_truncated(self):
        short = simple_trace().truncated(2)
        assert len(short) == 2
        assert short.max_line() == 1

    def test_truncated_no_op_when_longer(self):
        trace = simple_trace()
        assert trace.truncated(100) is trace

    def test_truncate_rejects_zero(self):
        with pytest.raises(TraceError):
            simple_trace().truncated(0)

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace.from_records([])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(TraceError):
            Trace(
                gaps=np.array([1]),
                lines=np.array([1, 2]),
                writes=np.array([True]),
            )

    def test_rejects_negative_gap(self):
        with pytest.raises(TraceError):
            Trace.from_records([(-1, 0, False)])

    def test_save_load_roundtrip(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert list(loaded) == list(trace)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            Trace.load(tmp_path / "missing.npz")

