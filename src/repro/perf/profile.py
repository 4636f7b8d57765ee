"""Throughput counters for the simulation kernel.

A :class:`KernelProfile` is handed to :class:`repro.sim.engine.
SimulationDriver` and accumulates events processed, demand requests
served, simulated cycles, and wall-clock seconds across one or more
runs.  It reads the clock at both ends of a run and costs nothing per
event; a per-layer time split comes from ``perfbench --trace 1``.
"""

from __future__ import annotations


class KernelProfile:
    """Accumulated kernel throughput counters (events, requests, wall time)."""

    __slots__ = (
        "events_processed",
        "requests_served",
        "cycles_simulated",
        "wall_seconds",
        "runs",
    )

    def __init__(self) -> None:
        self.events_processed = 0
        self.requests_served = 0
        self.cycles_simulated = 0
        self.wall_seconds = 0.0
        self.runs = 0

    # ------------------------------------------------------------------
    def record_run(
        self, events: int, requests: int, cycles: int, wall_seconds: float
    ) -> None:
        """Fold one completed simulation into the totals."""
        self.events_processed += events
        self.requests_served += requests
        self.cycles_simulated += cycles
        self.wall_seconds += wall_seconds
        self.runs += 1

    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        """Processed events per wall-second (the kernel's headline rate)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds

    @property
    def requests_per_sec(self) -> float:
        """Simulated 64-B requests served per wall-second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.requests_served / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-compatible summary (feeds ``BENCH_kernel.json``)."""
        return {
            "events_processed": self.events_processed,
            "requests_served": self.requests_served,
            "cycles_simulated": self.cycles_simulated,
            "wall_seconds": self.wall_seconds,
            "runs": self.runs,
            "events_per_sec": self.events_per_sec,
            "requests_per_sec": self.requests_per_sec,
        }

    def __repr__(self) -> str:
        return (
            f"KernelProfile(runs={self.runs}, "
            f"events={self.events_processed}, "
            f"events_per_sec={self.events_per_sec:,.0f})"
        )
