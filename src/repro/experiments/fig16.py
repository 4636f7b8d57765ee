"""Figure 16: per-program slowdowns under PoM, MDM, and ProFess for the
Figure 2 workloads (w09, w16, w19).

Paper shape: MDM reduces the max slowdown only by speeding programs up
(soplex in w09); ProFess additionally *trades* — slowing lightly loaded
programs (lbm, GemsFDTD in w09) to relieve the most-suffering ones.
"""

from __future__ import annotations

from repro.experiments.accumulators import Cell
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table10 import FAIRNESS_DETAIL_WORKLOADS, WORKLOADS

POLICIES = ("pom", "mdm", "profess")


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Figure 16."""
    cells = runner.run_cells(
        Cell(f"{name}|{policy}", WORKLOADS[name], policy)
        for name in FAIRNESS_DETAIL_WORKLOADS
        for policy in POLICIES
    ).raise_on_failure()
    rows = []
    summary = {}
    for name in FAIRNESS_DETAIL_WORKLOADS:
        metrics = {
            policy: cells[f"{name}|{policy}"].metrics for policy in POLICIES
        }
        for index, program in enumerate(WORKLOADS[name]):
            rows.append(
                [name, program]
                + [metrics[policy].slowdowns[index] for policy in POLICIES]
            )
        summary[f"{name} max slowdown pom/mdm/profess"] = " / ".join(
            f"{metrics[policy].unfairness:.2f}" for policy in POLICIES
        )
    return ExperimentResult(
        experiment_id="fig16",
        title="Per-program slowdowns under the evaluated schemes",
        headers=["workload", "program"] + list(POLICIES),
        rows=rows,
        summary=summary,
    )
