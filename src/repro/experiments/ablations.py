"""Ablation studies of the design choices DESIGN.md calls out.

These go beyond the paper: they quantify how much each knob of MDM / RSM /
ProFess contributes at simulation scale.

* QAC bucket boundaries (Table 5),
* ``min_benefit`` (the swap-cost constant K),
* RSM hysteresis thresholds and the Case-3 product rule (Table 7),
* RSM smoothing parameter alpha.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import ProFessConfig, RSMConfig, SystemConfig
from repro.common.stats import geomean
from repro.experiments.accumulators import Cell
from repro.experiments.base import ExperimentResult
from repro.experiments.fig05 import single_program_ratios
from repro.experiments.runner import ExperimentRunner
from repro.workloads.table10 import FAIRNESS_DETAIL_WORKLOADS, WORKLOADS

QAC_VARIANTS = {
    "paper (1,8,32)": (1, 8, 32),
    "finer (1,4,16)": (1, 4, 16),
    "coarser (2,16,48)": (2, 16, 48),
}

MIN_BENEFIT_VALUES = (2.0, 4.0, 8.0, 16.0, 32.0)

RSM_THRESHOLD_VARIANTS = {
    "no hysteresis": ProFessConfig(sf_threshold=0.0),
    "paper (1/32)": ProFessConfig(sf_threshold=1.0 / 32.0),
    "wide (1/8)": ProFessConfig(sf_threshold=1.0 / 8.0),
    "no case 3": ProFessConfig(case3_enabled=False),
}

ALPHA_VALUES = (0.03125, 0.125, 0.5)


def run_qac(runner: ExperimentRunner) -> ExperimentResult:
    """MDM-vs-PoM gain under different QAC bucket boundaries."""
    rows = []
    for label, boundaries in QAC_VARIANTS.items():
        base = runner.single_config()
        config = replace(
            base,
            mdm=replace(base.mdm, qac_boundaries=boundaries),
        )
        ratios = single_program_ratios(runner, config=config)
        rows.append([label, geomean(list(ratios.values()))])
    return ExperimentResult(
        experiment_id="ablation-qac",
        title="QAC bucket-boundary ablation (MDM/PoM geomean IPC)",
        headers=["boundaries", "geomean MDM/PoM"],
        rows=rows,
    )


def run_min_benefit(runner: ExperimentRunner) -> ExperimentResult:
    """MDM-vs-PoM gain as min_benefit sweeps around the derived K."""
    rows = []
    best = None
    for value in MIN_BENEFIT_VALUES:
        base = runner.single_config()
        config = replace(base, mdm=replace(base.mdm, min_benefit=value))
        ratios = single_program_ratios(runner, config=config)
        gain = geomean(list(ratios.values()))
        rows.append([value, gain])
        if best is None or gain > best[1]:
            best = (value, gain)
    return ExperimentResult(
        experiment_id="ablation-min-benefit",
        title="min_benefit (K) sweep (MDM/PoM geomean IPC)",
        headers=["min_benefit", "geomean MDM/PoM"],
        rows=rows,
        summary={"best min_benefit": best[0], "best gain": best[1]},
    )


def _unfairness_rows(
    runner: ExperimentRunner, variants: dict[object, SystemConfig]
) -> list[list]:
    """[label, geomean ProFess/PoM max slowdown] per variant (label ->
    quad-core config) over the detail workloads, all cells in one wave."""
    cells = runner.run_cells(
        [
            Cell(name, WORKLOADS[name], "pom")
            for name in FAIRNESS_DETAIL_WORKLOADS
        ]
        + [
            Cell(f"{label}|{name}", WORKLOADS[name], "profess", config)
            for label, config in variants.items()
            for name in FAIRNESS_DETAIL_WORKLOADS
        ]
    ).raise_on_failure()
    rows = []
    for label in variants:
        ratios = [
            cells[f"{label}|{name}"].metrics.unfairness
            / cells[name].metrics.unfairness
            for name in FAIRNESS_DETAIL_WORKLOADS
        ]
        rows.append([label, geomean(ratios)])
    return rows


def run_rsm_thresholds(runner: ExperimentRunner) -> ExperimentResult:
    """ProFess fairness under hysteresis / Case-3 variants (w09/w16/w19)."""
    return ExperimentResult(
        experiment_id="ablation-rsm-thresholds",
        title="ProFess hysteresis / Case-3 ablation (unfairness vs PoM)",
        headers=["variant", "geomean max-slowdown ratio"],
        rows=_unfairness_rows(
            runner,
            {
                label: replace(runner.quad_config(), profess=profess_cfg)
                for label, profess_cfg in RSM_THRESHOLD_VARIANTS.items()
            },
        ),
    )


def run_alpha(runner: ExperimentRunner) -> ExperimentResult:
    """RSM smoothing-parameter ablation on the detail workloads."""
    base = runner.quad_config()
    return ExperimentResult(
        experiment_id="ablation-rsm-alpha",
        title="RSM smoothing alpha ablation (unfairness vs PoM)",
        headers=["alpha", "geomean max-slowdown ratio"],
        rows=_unfairness_rows(
            runner,
            {
                alpha: replace(
                    base, rsm=RSMConfig(m_samp=base.rsm.m_samp, alpha=alpha)
                )
                for alpha in ALPHA_VALUES
            },
        ),
    )
