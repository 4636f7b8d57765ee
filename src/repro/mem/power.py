"""Off-chip memory energy accounting (Figures 12 and 15).

The paper reports energy efficiency as requests served per second per watt,
using power reported by the memory simulator.  Dynamic energy comes from
the events the channels count as they serve traffic (activates and 64-B
line transfers per module, refreshes), background power is integrated
over simulated time, and the meter exposes requests/J, which equals
requests per second per watt.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.config import EnergyConfig
from repro.common.units import NS_PER_CPU_CYCLE
from repro.mem.channel import ChannelStats
from repro.mem.request import Module


class EnergyMeter:
    """Memory-system energy of one simulation, read from its channels.

    The meter adds nothing per event: activates, line transfers and
    refreshes are read from each channel's statistics on demand.
    ``activates``, ``line_reads`` and ``line_writes`` are lists indexed
    by :class:`Module`.
    """

    def __init__(
        self, config: EnergyConfig, channels: Sequence[ChannelStats]
    ) -> None:
        self._config = config
        self._channels = tuple(channels)
        #: Demand requests served (the requests/J numerator), settled by
        #: the controller's ``finalize()``.
        self.requests_served = 0

    @property
    def activates(self) -> list[int]:
        """Row activations per module, all channels."""
        return [sum(c.activates(m) for c in self._channels) for m in Module]

    @property
    def line_reads(self) -> list[int]:
        """64-B lines read per module, all channels."""
        return [sum(c.line_reads(m) for c in self._channels) for m in Module]

    @property
    def line_writes(self) -> list[int]:
        """64-B lines written per module, all channels."""
        return [sum(c.line_writes(m) for c in self._channels) for m in Module]

    @property
    def refreshes(self) -> int:
        """All-bank refresh cycles (M1 only; NVM has no refresh)."""
        return sum(c.refreshes for c in self._channels)

    def dynamic_energy_nj(self) -> float:
        """Total dynamic energy in nanojoules."""
        c = self._config
        activates = self.activates
        line_reads = self.line_reads
        line_writes = self.line_writes
        return (
            activates[Module.M1] * c.m1_activate_nj
            + activates[Module.M2] * c.m2_activate_nj
            + line_reads[Module.M1] * c.m1_read_line_nj
            + line_writes[Module.M1] * c.m1_write_line_nj
            + line_reads[Module.M2] * c.m2_read_line_nj
            + line_writes[Module.M2] * c.m2_write_line_nj
            + self.refreshes * c.m1_refresh_nj
        )

    def background_energy_nj(self, elapsed_cycles: int) -> float:
        """Background energy over the run, in nanojoules.

        Background power is per channel (one M1 + one M2 module each).
        """
        c = self._config
        seconds = elapsed_cycles * NS_PER_CPU_CYCLE * 1e-9
        watts = (c.m1_background_mw + c.m2_background_mw) * 1e-3
        return watts * len(self._channels) * seconds * 1e9

    def total_energy_j(self, elapsed_cycles: int) -> float:
        """Total memory-system energy in joules."""
        nj = self.dynamic_energy_nj() + self.background_energy_nj(elapsed_cycles)
        return nj * 1e-9

    def efficiency_requests_per_joule(self, elapsed_cycles: int) -> float:
        """Requests per joule == requests per second per watt."""
        energy = self.total_energy_j(elapsed_cycles)
        if energy <= 0:
            return 0.0
        return self.requests_served / energy
