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
    specs = {
        (program, policy): runner.spec_single(program, policy)
        for program in FIG5_PROGRAMS
        for policy in ("pom", "mdm")
    }
    results = runner.run_specs(specs.values()).raise_on_failure()
    m1 = {
        case: results[spec.cache_key()].program(0).m1_fraction
        for case, spec in specs.items()
    }
    rows = []
    ratios = {}
    for program in FIG5_PROGRAMS:
        pom, mdm = m1[program, "pom"], m1[program, "mdm"]
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
