"""Section 2.5's MemPod-vs-PoM comparison.

The paper finds that in this DRAM+NVM technology setting MemPod's average
main-memory access time (AMMAT, MemPod's preferred metric) is ~19% / ~18%
longer than PoM's in single-/multi-program runs, because MEA-based
interval migration performs no cost-benefit analysis and cannot adapt to
the technology characteristics.
"""

from __future__ import annotations

from repro.common.stats import geomean
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table9 import FIG5_PROGRAMS
from repro.workloads.table10 import FAIRNESS_DETAIL_WORKLOADS

POLICIES = ("pom", "mempod")


def run(runner: ExperimentRunner) -> ExperimentResult:
    """AMMAT of MemPod normalized to PoM (>1 means MemPod is slower)."""
    mixes = {
        (name, policy): runner.spec_workload(name, policy)
        for name in FAIRNESS_DETAIL_WORKLOADS
        for policy in POLICIES
    }
    # Only the mix runs' AMMAT is needed, not a cell's stand-alone
    # references.  A mix an earlier figure computed as a cell left only
    # its metrics behind (the cell path memoizes no mix run): read those.
    cells = {case: runner.cached_cell(spec) for case, spec in mixes.items()}
    runner.prefetch(
        [runner.spec_single(p, s) for p in FIG5_PROGRAMS for s in POLICIES]
        + [spec for case, spec in mixes.items() if cells[case] is None]
    )
    rows = []
    single_ratios = {}
    for program in FIG5_PROGRAMS:
        pom = runner.run_single(program, "pom").average_read_latency
        mempod = runner.run_single(program, "mempod").average_read_latency
        ratio = mempod / pom if pom else float("nan")
        single_ratios[program] = ratio
        rows.append(["single", program, pom, mempod, ratio])
    multi_ratios = {}
    for name in FAIRNESS_DETAIL_WORKLOADS:
        pom, mempod = (
            runner.execute(mixes[name, policy]).average_read_latency
            if cells[name, policy] is None
            else cells[name, policy].metrics.average_read_latency
            for policy in POLICIES
        )
        ratio = mempod / pom if pom else float("nan")
        multi_ratios[name] = ratio
        rows.append(["multi", name, pom, mempod, ratio])
    return ExperimentResult(
        experiment_id="mempod-vs-pom",
        title="MemPod AMMAT normalized to PoM (Section 2.5)",
        headers=["mode", "case", "PoM AMMAT (cy)", "MemPod AMMAT (cy)", "ratio"],
        rows=rows,
        summary={
            "single-program geomean": geomean(list(single_ratios.values())),
            "multi-program geomean": geomean(list(multi_ratios.values())),
            "paper shape (MemPod slower, ratio > 1)": (
                geomean(list(single_ratios.values())) > 1.0
            ),
        },
    )
