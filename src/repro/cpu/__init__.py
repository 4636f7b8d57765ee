"""Trace-driven CPU substrate.

:mod:`repro.cpu.trace` defines the main-memory trace format (instruction
gap, 64-B virtual line, read/write) plus file I/O;
:mod:`repro.cpu.core_model` is the timing model that replays a trace
against the hybrid memory controller.
"""

from repro.cpu.trace import Trace
from repro.cpu.core_model import TraceCore

__all__ = ["Trace", "TraceCore"]
