"""Off-chip memory device model.

Implements the request-level timing substrate the paper obtained from a
modified DRAMSim2: banks with open-page row buffers, a shared per-channel
data bus, FR-FCFS-Cap scheduling, channel-blocking 2-KB swaps, and an
activate/burst/background energy model.

The channel hot path is columnar (structure-of-arrays) with one fused
tick per scheduling decision — see :mod:`repro.mem.batch` and
DESIGN.md §14.
"""

from repro.mem.request import DeviceAddress, MemRequest, Module, RequestKind
from repro.mem.batch import NO_ROW, BankView, RequestBatch
from repro.mem.channel import Channel
from repro.mem.power import EnergyMeter

__all__ = [
    "BankView",
    "Channel",
    "DeviceAddress",
    "EnergyMeter",
    "MemRequest",
    "Module",
    "NO_ROW",
    "RequestBatch",
    "RequestKind",
]
