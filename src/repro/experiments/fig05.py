"""Figure 5: single-program performance of MDM normalized to PoM.

The paper reports a +14% average (up to +38% for lbm), summarized as a
Tukey box plot over the nine programs of Table 9 (libquantum excluded:
its footprint fits entirely in M1, making the schemes identical).
"""

from __future__ import annotations

from repro.analysis.report import (
    normalized_series_summary,
    render_boxplot_summary,
)
from repro.exec.spec import RunSpec, build_traces
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.traces.generator import LINES_PER_PAGE
from repro.workloads.table9 import FIG5_PROGRAMS


def single_program_ratios(
    runner: ExperimentRunner,
    policy: str = "mdm",
    baseline: str = "pom",
    config=None,
    skip_unfittable: bool = False,
) -> dict[str, float]:
    """IPC of ``policy`` over ``baseline`` per Figure 5 program.

    With ``skip_unfittable``, programs whose traced pages exceed the
    configured OS-visible capacity are omitted before anything runs
    (needed by the capacity-ratio sensitivity, where shrinking M1 at
    fixed M2 can push the largest footprints past that capacity).
    """
    programs = [
        program
        for program in FIG5_PROGRAMS
        if not skip_unfittable
        or _fits(runner.spec_single(program, baseline, config=config))
    ]
    specs = {
        (program, scheme): runner.spec_single(program, scheme, config=config)
        for program in programs
        for scheme in (baseline, policy)
    }
    # One wave for the whole figure (18 single-core runs).
    results = runner.run_specs(specs.values()).raise_on_failure()
    ipc = {
        case: results[spec.cache_key()].program(0).ipc
        for case, spec in specs.items()
    }
    return {
        program: ipc[program, policy] / ipc[program, baseline]
        for program in programs
    }


def _fits(spec: RunSpec) -> bool:
    """Whether a single-program spec's page table — sized, as in
    :class:`~repro.sim.engine.SimulationDriver`, by the trace's largest
    line — fits in its config's OS-visible page frames."""
    [(_name, trace)] = build_traces(spec)
    return trace.max_line() // LINES_PER_PAGE + 1 <= spec.config.total_pages


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Figure 5."""
    ratios = single_program_ratios(runner)
    rows = [[program, ratio] for program, ratio in sorted(ratios.items())]
    summary = normalized_series_summary(ratios)
    summary["boxplot"] = render_boxplot_summary(list(ratios.values()))
    return ExperimentResult(
        experiment_id="fig5",
        title="Single-program performance of MDM normalized to PoM",
        headers=["program", "MDM IPC / PoM IPC"],
        rows=rows,
        summary=summary,
        notes=(
            "Paper shape: MDM wins on average (+14%); libquantum omitted "
            "(fits in M1)."
        ),
    )
