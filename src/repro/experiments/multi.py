"""Shared machinery for the multiprogram figures (10-16).

Each of Figures 10-15 is one metric of the same underlying sweep: every
Table 10 workload run under PoM and under the evaluated scheme, with
per-scheme stand-alone reference runs for the slowdown computation.  The
runner memoizes every computed cell, so requesting several figures costs
one simulation pass.

Sweeps tolerate partial waves (DESIGN.md §15): a workload whose runs
failed after retries is dropped from the metrics dict, and the figure
renders it as a FAILED row with the failure table appended to the notes
instead of aborting the whole figure.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.plotting import hbar_chart
from repro.analysis.report import normalized_series_summary
from repro.exec import format_failure_table
from repro.experiments.accumulators import Cell
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.sim.metrics import WorkloadMetrics
from repro.workloads.table10 import WORKLOAD_NAMES, WORKLOADS


def sweep(
    runner: ExperimentRunner,
    policies: Sequence[str],
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> dict[str, dict[str, WorkloadMetrics]]:
    """metrics[workload][policy] for the requested schemes.

    Every (workload, policy) cell goes through
    :meth:`ExperimentRunner.run_cells` as one streamed wave (DESIGN.md
    §17): each cell's metrics are computed the moment its runs complete
    and the results are dropped, so with ``jobs > 1`` the whole figure
    simulates in parallel while the parent holds metrics cells, never
    the wave.

    Workloads whose runs failed (after the executor's retries) are
    omitted from the returned dict rather than raising; callers can
    compare against the requested ``workloads`` list and consult
    ``runner.failures`` for the cause.
    """
    cells = runner.run_cells(
        Cell(f"{name}|{policy}", WORKLOADS[name], policy)
        for name in workloads
        for policy in policies
    ).cells
    metrics: dict[str, dict[str, WorkloadMetrics]] = {}
    for name in workloads:
        per_policy = {
            policy: cells[f"{name}|{policy}"].metrics
            for policy in policies
            if f"{name}|{policy}" in cells
        }
        # A workload with *any* failed run is omitted entirely (partial
        # rows would skew the normalization).
        if len(per_policy) == len(policies):
            metrics[name] = per_policy
    return metrics


def normalized_figure(
    runner: ExperimentRunner,
    experiment_id: str,
    title: str,
    policy: str,
    metric: Callable[[WorkloadMetrics], float],
    higher_is_better: bool,
    baseline: str = "pom",
    workloads: Sequence[str] = WORKLOAD_NAMES,
) -> ExperimentResult:
    """Build one Figure 10-15 style normalized comparison.

    Failed workloads render as FAILED rows; the figure only raises if
    *every* workload failed (there is nothing left to normalize).
    """
    metrics = sweep(runner, [baseline, policy], workloads)
    series: dict[str, float] = {}
    rows = []
    for name in workloads:
        if name not in metrics:
            rows.append([name, "FAILED", "FAILED", "-"])
            continue
        base_value = metric(metrics[name][baseline])
        new_value = metric(metrics[name][policy])
        ratio = new_value / base_value
        series[name] = ratio
        rows.append([name, base_value, new_value, ratio])
    notes = hbar_chart(series, baseline=1.0) if series else ""
    if any(name not in metrics for name in workloads):
        table = format_failure_table(runner.failures)
        notes = f"{notes}\n\n{table}" if notes else table
    summary = (
        normalized_series_summary(series, higher_is_better)
        if series
        else f"all {len(workloads)} workloads FAILED; see failure table"
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["workload", baseline, policy, f"{policy}/{baseline}"],
        rows=rows,
        summary=summary,
        notes=notes,
    )
