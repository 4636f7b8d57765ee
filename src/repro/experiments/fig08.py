"""Figures 8 and 9: sensitivity of MDM to STC size.

IPC with a half-size and a double-size STC normalized to the default,
plus the corresponding STC hit rates.  Paper shape: programs are largely
insensitive, except the irregular ones (mcf, omnetpp) which lose several
percent with a half-size STC as premature evictions add noise to the MDM
statistics; a larger STC does not necessarily help.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import STCConfig, SystemConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table9 import FIG5_PROGRAMS

#: STC capacity multipliers relative to the single-core default (32 KB in
#: the paper): half, default, double.
SIZE_FACTORS = (0.5, 1.0, 2.0)


def _with_stc_capacity(config: SystemConfig, capacity: int) -> SystemConfig:
    return replace(
        config,
        stc=STCConfig(
            capacity=capacity,
            associativity=config.stc.associativity,
            entry_size=config.stc.entry_size,
            latency_cycles=config.stc.latency_cycles,
        ),
    )


def stc_size_sweep(runner: ExperimentRunner) -> dict[str, dict[float, object]]:
    """results[program][size_factor] -> SimulationResult under MDM."""
    base = runner.single_config()
    configs = {
        factor: _with_stc_capacity(
            base, max(int(base.stc.capacity * factor), 256)
        )
        for factor in SIZE_FACTORS
    }
    specs = {
        (program, factor): runner.spec_single(program, "mdm", config=config)
        for program in FIG5_PROGRAMS
        for factor, config in configs.items()
    }
    results = runner.run_specs(specs.values()).raise_on_failure()
    sweep: dict[str, dict[float, object]] = {}
    for (program, factor), spec in specs.items():
        sweep.setdefault(program, {})[factor] = results[spec.cache_key()]
    return sweep


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Figure 8 (IPC normalized to the default STC size)."""
    sweep = stc_size_sweep(runner)
    rows = []
    for program, by_factor in sweep.items():
        default_ipc = by_factor[1.0].program(0).ipc
        rows.append(
            [
                program,
                by_factor[0.5].program(0).ipc / default_ipc,
                1.0,
                by_factor[2.0].program(0).ipc / default_ipc,
            ]
        )
    return ExperimentResult(
        experiment_id="fig8",
        title="MDM IPC sensitivity to STC size (norm. to default)",
        headers=["program", "half STC", "default", "double STC"],
        rows=rows,
        notes=(
            "Paper shape: mostly flat; mcf/omnetpp lose with the half-size "
            "STC; doubling does not reliably help."
        ),
    )


def run_fig9(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Figure 9 (STC hit rates vs STC size)."""
    sweep = stc_size_sweep(runner)
    rows = [
        [
            program,
            100 * by_factor[0.5].stc_hit_rate,
            100 * by_factor[1.0].stc_hit_rate,
            100 * by_factor[2.0].stc_hit_rate,
        ]
        for program, by_factor in sweep.items()
    ]
    monotone = sum(
        1 for row in rows if row[1] <= row[2] + 1e-9 and row[2] <= row[3] + 1e-9
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="STC hit rates vs STC size (%)",
        headers=["program", "half STC", "default", "double STC"],
        rows=rows,
        summary={"programs with monotone hit rate": f"{monotone}/{len(rows)}"},
    )
