"""Off-chip memory device model.

Implements the request-level timing substrate the paper obtained from a
modified DRAMSim2: banks with open-page row buffers, a shared per-channel
data bus, FR-FCFS-Cap scheduling, channel-blocking 2-KB swaps, and an
activate/burst/background energy model.

The channel keeps its queues as lists of request tuples and its bank
state as plain lists, with one fused tick per scheduling decision — see
:mod:`repro.mem.channel` and DESIGN.md §14.  The package is plain
Python: it does not import numpy.
"""

from repro.mem.request import DeviceAddress, Module, RequestKind
from repro.mem.channel import NO_ROW, BankView, Channel
from repro.mem.power import EnergyMeter

__all__ = [
    "BankView",
    "Channel",
    "DeviceAddress",
    "EnergyMeter",
    "Module",
    "NO_ROW",
    "RequestKind",
]
