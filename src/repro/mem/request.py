"""Memory request kinds and device-address types."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Module(IntEnum):
    """Which module on the channel serves a request (Figure 1)."""

    M1 = 0
    M2 = 1


class RequestKind(IntEnum):
    """What a request carries.

    DATA requests come from the cores; ST_READ/ST_WRITE are the memory
    controller's own traffic for Swap-group Table entries stored in M1
    (Section 2.2).
    """

    DATA = 0
    ST_READ = 1
    ST_WRITE = 2


@dataclass(frozen=True, slots=True)
class DeviceAddress:
    """Bank/row coordinates of a 64-B line inside one module.

    ``row`` is a device-local row identifier; the ST area of M1 uses a
    disjoint (negative) row namespace so table traffic and data traffic
    contend for banks realistically without aliasing rows.
    """

    module: Module
    bank: int
    row: int
