"""Figure 6: fraction of accesses served from M1, MDM normalized to PoM.

The paper's reading: a higher M1 fraction usually tracks higher
performance, except for irregular programs (mcf, omnetpp) where MDM
deliberately serves *fewer* accesses from M1 by refusing unprofitable
swaps.
"""

from __future__ import annotations

from repro.analysis.report import normalized_series_summary
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table9 import FIG5_PROGRAMS


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Figure 6."""
    runner.prefetch(
        [
            runner.spec_single(program, policy)
            for program in FIG5_PROGRAMS
            for policy in ("pom", "mdm")
        ]
    )
    rows = []
    ratios = {}
    for program in FIG5_PROGRAMS:
        pom = runner.run_single(program, "pom").program(0).m1_fraction
        mdm = runner.run_single(program, "mdm").program(0).m1_fraction
        ratio = mdm / pom if pom > 0 else float("nan")
        ratios[program] = ratio
        rows.append([program, pom, mdm, ratio])
    return ExperimentResult(
        experiment_id="fig6",
        title="Single-program M1 accesses of MDM normalized to PoM",
        headers=["program", "PoM M1 frac", "MDM M1 frac", "MDM/PoM"],
        rows=rows,
        summary=normalized_series_summary(ratios),
    )
