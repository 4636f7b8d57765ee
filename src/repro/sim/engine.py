"""The simulation driver: cores + page tables + controller + event loop.

Implements the paper's measurement methodology (Section 4.2): in a
multiprogrammed run, programs that finish their trace before the slowest
one are restarted ("we repeat programs that complete faster than the
slowest one, ensuring competition for M1"), and the run ends when the
last program completes its first pass.  Per-program IPC is instructions
retired over elapsed cycles at that instant.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.common.events import EventQueue
from repro.cpu.core_model import TraceCore
from repro.cpu.trace import Trace
from repro.hybrid.memory import HybridMemoryController
from repro.hybrid.regions import PageTable
from repro.policies.base import MigrationPolicy
from repro.policies.registry import build_policy
from repro.sim.results import PolicyStats, ProgramResult, SimulationResult
from repro.traces.generator import LINES_PER_PAGE

#: Hard ceiling on processed events, to catch runaway simulations.  The
#: event queue raises :class:`SimulationError` when the ceiling is hit
#: with work still pending (a truncated run must never be mistaken for a
#: completed one).
MAX_EVENTS = 2_000_000_000


class SimulationDriver:
    """Builds and runs one simulation."""

    def __init__(
        self,
        config: SystemConfig,
        policy: Union[str, MigrationPolicy],
        traces: Sequence[tuple[str, Trace]],
        seed: int = 0,
        track_rsm_regions: bool = False,
        warmup_requests: int = 0,
        validate_every: int = 0,
    ) -> None:
        if not traces:
            raise SimulationError("need at least one (name, trace) pair")
        if len(traces) > config.num_cores:
            raise SimulationError(
                f"{len(traces)} programs but only {config.num_cores} cores"
            )
        self.config = config
        self.traces = list(traces)
        self.events = EventQueue()
        self.policy = (
            build_policy(policy, config) if isinstance(policy, str) else policy
        )
        # Each trace is one single-threaded program on its own core, and
        # its program id is its core id.  Cores past the last trace stay
        # idle and own no program.
        self.controller = HybridMemoryController(
            config,
            self.events,
            self.policy,
            seed=seed,
            track_rsm_regions=track_rsm_regions,
            num_programs=len(self.traces),
        )
        # One page table per program, allocated in core order.
        self.page_tables = [
            PageTable(
                program=core_id,
                allocator=self.controller.allocator,
                num_pages=trace.max_line() // LINES_PER_PAGE + 1,
            )
            for core_id, (_name, trace) in enumerate(self.traces)
        ]
        # Every frame is allocated above, so each core replays its trace
        # already translated to physical lines and calls the controller
        # directly; only a warm-up run interposes ``_access``.
        access = self._access if warmup_requests > 0 else self.controller.access
        self.cores = [
            TraceCore(
                core_id=core_id,
                config=config.core,
                trace=replace(
                    trace,
                    lines=table.translate_lines(trace.lines, LINES_PER_PAGE),
                ),
                events=self.events,
                access=access,
                on_pass_complete=self._on_pass_complete,
            )
            for core_id, ((_name, trace), table) in enumerate(
                zip(self.traces, self.page_tables)
            )
        ]
        self._first_pass_done = [False] * len(self.cores)
        self._end_cycle: Optional[int] = None
        self._instruction_snapshot: Optional[list[int]] = None
        # Optional measurement warm-up (Section 4.2 observes M1 filling
        # within the first few percent of execution): IPC is measured
        # from the moment the first ``warmup_requests`` demand requests
        # have been served.
        self._warmup_requests = warmup_requests
        self._warmup_cycle = 0
        self._warmup_instructions = [0] * len(self.cores)
        self._warmed = warmup_requests <= 0
        #: Events the loop processed; set by ``run()`` and kept out of
        #: the result (``profess perf`` reads it).
        self.events_processed = 0
        # Optional periodic invariant auditing (``--validate-every N``):
        # every N cycles a self-rescheduling event runs the full
        # :func:`repro.sim.validation.validate_controller` audit, so a
        # corrupted ST permutation or counter overflow aborts a long
        # simulation within N cycles instead of silently poisoning its
        # results.  0 (the default) schedules nothing — the hot path is
        # untouched and runs stay byte-identical to the golden blobs.
        if validate_every < 0:
            raise SimulationError("validate_every must be >= 0")
        self._validate_every = validate_every
        self._ran = False

    # ------------------------------------------------------------------
    def _access(self, core_id, line, is_write, on_complete) -> None:
        """The cores' access hook on warm-up runs: snapshot, then serve."""
        if (
            not self._warmed
            and self.controller.total_requests() >= self._warmup_requests
        ):
            self._warmed = True
            self._warmup_cycle = self.events.now
            self._warmup_instructions = [
                core.instructions_retired for core in self.cores
            ]
        self.controller.access(core_id, line, is_write, on_complete)

    def _on_pass_complete(self, core_id: int, now: int) -> bool:
        self._first_pass_done[core_id] = True
        if all(self._first_pass_done):
            self._end_cycle = now
            self._instruction_snapshot = [
                core.instructions_retired for core in self.cores
            ]
            for core in self.cores:
                core.stop()
            return False
        return True  # others still on their first pass: repeat (Sec. 4.2)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run to completion and return the results.

        A driver runs once.  When ``run`` returns or raises,
        :meth:`_release` breaks the reference cycles among the
        simulation's components, so reference counting frees them as
        soon as the caller drops the driver.  The result, the controller's
        statistics and the policy's counters stay readable.
        """
        if self._ran:
            raise SimulationError("a SimulationDriver runs only once")
        self._ran = True
        try:
            return self._simulate()
        finally:
            self._release()

    def _simulate(self) -> SimulationResult:
        """Drive the event loop to the end of the run; collect results.

        The event loop itself lives in :meth:`EventQueue.run` (the
        inlined fast path).  A run that cannot end properly raises
        :class:`SimulationError` instead of returning a truncated result:
        the queue raises when the ``MAX_EVENTS`` ceiling is hit, and this
        method raises when the queue drains before every core finished
        its first pass (a lost completion).
        """
        for core in self.cores:
            core.start()
        if self._validate_every > 0:
            self.events.schedule(
                self.events.now + self._validate_every, self._periodic_validate
            )
        self.events_processed = self.events.run(max_events=MAX_EVENTS)
        if self._end_cycle is None:
            raise SimulationError(
                f"event queue drained at cycle {self.events.now} before "
                "every core finished its first pass; a completion was lost"
            )
        self.controller.finalize()
        return self._collect()

    def _release(self) -> None:
        """Break every reference cycle the simulation's components form.

        The cores call back into the driver, the policy and the STC into
        the controller, and channels, cores and queued events hold bound
        methods of their own owners.  Each component drops its side.
        """
        self.controller.release()
        for core in self.cores:
            core.release()
        self.events.release()

    def _periodic_validate(self, now: int) -> None:
        """Audit all controller invariants, then re-arm.

        Stops re-arming once the measured run has ended (``_end_cycle``
        set), so the event queue still drains and the run terminates at
        most ``validate_every`` cycles of queued events later.
        """
        from repro.sim.validation import validate_controller

        if self._end_cycle is not None:
            return
        validate_controller(self.controller)
        self.events.schedule(
            now + self._validate_every, self._periodic_validate
        )

    def _collect(self) -> SimulationResult:
        assert self._end_cycle is not None
        assert self._instruction_snapshot is not None
        cycles = max(self._end_cycle, 1)
        measured_cycles = max(cycles - self._warmup_cycle, 1)
        controller = self.controller
        programs = []
        for core_id, (name, _trace) in enumerate(self.traces):
            stats = controller.core_stats[core_id]
            instructions = self._instruction_snapshot[core_id]
            measured = instructions - self._warmup_instructions[core_id]
            programs.append(
                ProgramResult(
                    name=name,
                    core_id=core_id,
                    instructions=instructions,
                    ipc=max(measured, 0) / measured_cycles,
                    requests=stats.requests,
                    m1_fraction=stats.m1_fraction,
                    passes_completed=self.cores[core_id].passes_completed,
                    swaps_involving=stats.swaps_involving,
                )
            )
        energy = controller.energy.total_energy_j(cycles)
        return SimulationResult(
            policy=self.policy.name,
            cycles=cycles,
            programs=tuple(programs),
            total_requests=controller.total_requests(),
            total_swaps=controller.total_swaps,
            swap_fraction=controller.swap_fraction(),
            average_read_latency=controller.average_read_latency(),
            stc_hit_rate=controller.stc_hit_rate(),
            energy_joules=energy,
            energy_efficiency=controller.energy.efficiency_requests_per_joule(
                cycles
            ),
            policy_stats=PolicyStats.from_policy(self.policy),
            extra={"rsm_history": controller.rsm.history},
        )
