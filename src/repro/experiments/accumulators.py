"""Streaming figure accumulators: fold sweeps into metrics cells.

The multiprogram figures (2, 10-16), the RSM ablations and the
extensions are all the same shape: a *cell* — one program mix under one
policy — needs the mix run plus each program's stand-alone reference
run, and everything the figure keeps from those results is a tiny
:class:`CellMetrics`.  ``ExperimentRunner.run_cells`` runs a figure's
cells as one wave through a :class:`StreamedMetricsSweep`, which
computes each cell's metrics the moment its last run completes and lets
the executor drop the result bytes immediately, so a sweep's parent
footprint is bounded by the widest in-flight cell frontier instead of
the wave.

The contract (enforced by the property suite in
``tests/test_streaming.py``): for any completion order, any retry
schedule, and any subset of failed specs, the accumulator's final state
is identical to materializing the whole wave and computing the same
cells afterwards.  Cells are keyed by caller-chosen ids and all rollups
happen at finalize time, so nothing observable depends on arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from repro.common.config import SystemConfig
from repro.exec.resilience import RunFailure, SweepFailure
from repro.exec.spec import RunSpec
from repro.exec.streaming import GroupReducer
from repro.sim.metrics import WorkloadMetrics
from repro.sim.results import SimulationResult


class Cell(NamedTuple):
    """One figure cell, as :meth:`ExperimentRunner.run_cells` takes it."""

    #: Caller-chosen id the cell's metrics are returned under.
    cell_id: str
    #: Program mix, in core order.
    programs: Sequence[str]
    policy: str
    #: Quad-core system to run on; None for the runner's default.
    config: Optional[SystemConfig] = None


@dataclass(frozen=True)
class CellMetrics:
    """Everything a figure keeps from one (mix, policy) cell.

    :class:`WorkloadMetrics` plus the two mix-run scalars the policy
    matrix reports — captured at fold time precisely so the full
    :class:`SimulationResult` never needs to be retained or re-fetched.
    """

    metrics: WorkloadMetrics
    total_swaps: int
    stc_hit_rate: float


class StreamedMetricsSweep(GroupReducer):
    """Folds a figure's wave into :class:`CellMetrics`, one per cell.

    :meth:`ExperimentRunner.run_cells` declares each cell with
    :meth:`add_cell`, runs the wave through this reducer and returns it:
    ``cells`` then holds every cell that completed (memo hits included)
    and ``failed`` every cell that lost a run to a terminal failure.
    """

    def __init__(self) -> None:
        super().__init__()
        #: cell id -> computed metrics (completed cells only).
        self.cells: dict[str, CellMetrics] = {}
        #: cell id -> the failure that sank it.
        self.failed: dict[str, RunFailure] = {}
        #: cache key -> each stand-alone reference result folded, for
        #: the runner's memo (see :meth:`ExperimentRunner.run_cells`).
        self.references: dict[str, SimulationResult] = {}
        #: cell id -> its mix run's cache key.
        self._mix_keys: dict[str, str] = {}

    def add_cell(self, cell_id: str, specs: Sequence[RunSpec]) -> None:
        """Declare one cell from its specs: the mix run, then one
        stand-alone reference run per distinct program."""
        self._mix_keys[cell_id] = specs[0].cache_key()
        # May resolve (or fail) synchronously when another cell already
        # delivered every key, so the mix key must be registered first.
        self.add_group(cell_id, [spec.cache_key() for spec in specs])

    def raise_on_failure(self) -> dict[str, CellMetrics]:
        """The strict view: every cell, or :class:`SweepFailure` naming
        each failed run once."""
        if self.failed:
            by_key = {fail.key: fail for fail in self.failed.values()}
            raise SweepFailure(list(by_key.values()))
        return self.cells

    # ------------------------------------------------------------------
    # GroupReducer hooks
    # ------------------------------------------------------------------
    def fold(
        self, key: str, spec: RunSpec, result: SimulationResult
    ) -> None:
        if spec.kind == "alone":
            self.references[key] = result
        super().fold(key, spec, result)

    def group_completed(
        self, group_id: str, results: dict[str, SimulationResult]
    ) -> None:
        mix_key = self._mix_keys.pop(group_id)
        multi = results[mix_key]
        alone_ipcs = {
            result.program(0).name: result.program(0).ipc
            for key, result in results.items()
            if key != mix_key
        }
        single_ipcs = [alone_ipcs[program.name] for program in multi.programs]
        self.cells[group_id] = CellMetrics(
            metrics=WorkloadMetrics.from_results(multi, single_ipcs),
            total_swaps=multi.total_swaps,
            stc_hit_rate=multi.stc_hit_rate,
        )

    def group_failed(self, group_id: str, failure: RunFailure) -> None:
        self._mix_keys.pop(group_id, None)
        self.failed[group_id] = failure
