"""Figure 2: per-program slowdowns under PoM for w09, w16, w19.

Motivates the fairness problem (Section 2.4): under the PoM baseline some
programs in a mix suffer disproportionately (the paper's example: soplex
at 3.7 in w09 while lbm and GemsFDTD sit near 2.2).
"""

from __future__ import annotations

from repro.experiments.accumulators import Cell
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table10 import FAIRNESS_DETAIL_WORKLOADS, WORKLOADS


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Per-program slowdowns under PoM for the Figure 2 workloads."""
    cells = runner.run_cells(
        Cell(name, WORKLOADS[name], "pom")
        for name in FAIRNESS_DETAIL_WORKLOADS
    ).raise_on_failure()
    rows = []
    spreads = {}
    for name in FAIRNESS_DETAIL_WORKLOADS:
        metrics = cells[name].metrics
        for program, sdn in zip(WORKLOADS[name], metrics.slowdowns):
            rows.append([name, program, sdn])
        spreads[name] = max(metrics.slowdowns) / min(metrics.slowdowns)
    return ExperimentResult(
        experiment_id="fig2",
        title="Slowdowns under PoM management",
        headers=["workload", "program", "slowdown"],
        rows=rows,
        summary={
            f"{name} max/min slowdown spread": spread
            for name, spread in spreads.items()
        },
        notes=(
            "Paper shape: within each mix, slowdowns diverge widely under "
            "PoM (w09: soplex 3.7 vs ~2.2 for lbm/GemsFDTD), motivating "
            "slowdown-aware management."
        ),
    )
