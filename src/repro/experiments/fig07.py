"""Figure 7: single-program STC hit rates under MDM.

The paper's shape: regular programs sit in the 90%+ range, mcf around
85%, and omnetpp lowest (~70%) — low STC hit rates correspond to noisy
MDM statistics (Section 5.1).
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table9 import FIG5_PROGRAMS


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Figure 7."""
    specs = {
        program: runner.spec_single(program, "mdm")
        for program in FIG5_PROGRAMS
    }
    results = runner.run_specs(specs.values()).raise_on_failure()
    rows = []
    rates = {}
    for program, spec in specs.items():
        rate = results[spec.cache_key()].stc_hit_rate
        rates[program] = rate
        rows.append([program, 100 * rate])
    irregular_lower = rates["omnetpp"] < rates["mcf"] < max(
        rates[p] for p in rates if p not in ("mcf", "omnetpp")
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="Single-program STC hit rates under MDM",
        headers=["program", "STC hit rate (%)"],
        rows=rows,
        summary={
            "omnetpp < mcf < regular programs (paper shape)": irregular_lower
        },
    )
