"""Extension experiments beyond the paper's artifacts.

* ``ext-rsm-pom`` — Section 6 claims RSM "can be integrated with other
  migration algorithms instead of MDM".  This experiment decomposes
  ProFess's gains by racing four schemes against the PoM baseline on the
  Figure 2 workloads: PoM, RSM-guided PoM (guidance only), MDM (cost-
  benefit only), and ProFess (both).
* ``ext-policy-matrix`` — the cross-product of the registry's
  composition axes (base algorithm x RSM guidance x STC replacement) on
  one contended workload: the full Table 2 cast plus every guided and
  axis-varied composition, under identical conditions.

Both sweeps derive their policy sets from the composable registry
(:mod:`repro.policies.registry`) instead of hard-coded name tuples, so
registering a new policy automatically enrolls it.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.stats import geomean
from repro.exec import format_failure_table
from repro.experiments.accumulators import Cell
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.policies.registry import (
    PolicySpec,
    guided_bases,
    iter_registered,
)
from repro.workloads.generator import random_mixes
from repro.workloads.table10 import FAIRNESS_DETAIL_WORKLOADS, WORKLOADS

#: The contended Table 10 workload every matrix cell runs on.
MATRIX_WORKLOAD = "w09"
#: STC replacement axis values the matrix sweeps (``lru`` is the
#: registry default and reuses cached plain-policy runs).
MATRIX_STC_REPLACEMENTS = ("lru", "lfu")


def decomposition_policies() -> Tuple[str, ...]:
    """The ``ext-rsm-pom`` cast, derived from the registry.

    Every guided registration contributes its base algorithm (the
    cost-benefit-only arm, skipping the PoM baseline itself) and the
    guided composition; registering a new RSM-guided policy enrolls it
    automatically.
    """
    names: list[str] = []
    for entry in iter_registered():
        if not entry.guidance:
            continue
        if entry.base != "pom" and entry.base not in names:
            names.append(entry.base)
        names.append(entry.name)
    return tuple(names)


def matrix_cells() -> Tuple[PolicySpec, ...]:
    """The ``ext-policy-matrix`` cross-product as :class:`PolicySpec`.

    Axes: every registered base algorithm x RSM guidance (where a guided
    implementation exists) x :data:`MATRIX_STC_REPLACEMENTS`.  The
    ``lru`` column leaves the spec's STC axis at "inherit" so those
    cells canonicalize to plain registered names and share cache
    entries with the rest of the suite.
    """
    guided = set(guided_bases())
    cells: list[PolicySpec] = []
    for entry in iter_registered():
        if entry.guidance:
            continue
        for guidance in (False, True):
            if guidance and entry.base not in guided:
                continue
            for stc in MATRIX_STC_REPLACEMENTS:
                cells.append(
                    PolicySpec(
                        base=entry.base,
                        guidance=guidance,
                        stc_replacement="" if stc == "lru" else stc,
                    )
                )
    return tuple(cells)


def run_rsm_pom(runner: ExperimentRunner) -> ExperimentResult:
    """Decompose ProFess: guidance-only vs cost-benefit-only vs both."""
    policies = decomposition_policies()
    cells = runner.run_cells(
        Cell(f"{name}|{policy}", WORKLOADS[name], policy)
        for name in FAIRNESS_DETAIL_WORKLOADS
        for policy in ("pom", *policies)
    ).raise_on_failure()
    rows = []
    aggregates = {policy: {"unf": [], "ws": []} for policy in policies}
    for name in FAIRNESS_DETAIL_WORKLOADS:
        pom = cells[f"{name}|pom"].metrics
        for policy in policies:
            ours = cells[f"{name}|{policy}"].metrics
            unf = ours.unfairness / pom.unfairness
            ws = ours.weighted_speedup / pom.weighted_speedup
            aggregates[policy]["unf"].append(unf)
            aggregates[policy]["ws"].append(ws)
            rows.append([name, policy, unf, ws])
    summary = {}
    for policy in policies:
        summary[f"{policy} geomean unfairness vs PoM"] = geomean(
            aggregates[policy]["unf"]
        )
        summary[f"{policy} geomean weighted speedup vs PoM"] = geomean(
            aggregates[policy]["ws"]
        )
    return ExperimentResult(
        experiment_id="ext-rsm-pom",
        title="Decomposing ProFess: RSM guidance vs MDM cost-benefit",
        headers=["workload", "policy", "unfairness vs PoM", "WS vs PoM"],
        rows=rows,
        summary=summary,
        notes=(
            "Extension beyond the paper (Section 6 suggests RSM composes "
            "with other algorithms). Expected: rsm-pom improves fairness "
            "but less performance than MDM; profess combines both."
        ),
    )


def run_random_mixes(
    runner: ExperimentRunner, count: int = 6
) -> ExperimentResult:
    """ProFess vs PoM on random mixes beyond Table 10 (robustness).

    Expected: the average fairness and weighted-speedup improvements
    persist on mixes the policies were never tuned against.
    """
    mixes = random_mixes(seed=runner.seed + 17, count=count)
    cells = runner.run_cells(
        Cell(f"{label}|{policy}", programs, policy)
        for label, programs in mixes.items()
        for policy in ("pom", "profess")
    ).raise_on_failure()
    rows = []
    unf, ws = [], []
    for label, programs in mixes.items():
        pom = cells[f"{label}|pom"].metrics
        profess = cells[f"{label}|profess"].metrics
        unf_ratio = profess.unfairness / pom.unfairness
        ws_ratio = profess.weighted_speedup / pom.weighted_speedup
        unf.append(unf_ratio)
        ws.append(ws_ratio)
        rows.append(["+".join(programs), unf_ratio, ws_ratio])
    return ExperimentResult(
        experiment_id="ext-random-mixes",
        title="ProFess vs PoM on random program mixes",
        headers=["mix", "unfairness vs PoM", "WS vs PoM"],
        rows=rows,
        summary={
            "geomean unfairness ratio": geomean(unf),
            "geomean weighted-speedup ratio": geomean(ws),
        },
        notes="Robustness check on mixes outside Table 10.",
    )


def run_prediction_accuracy(runner: ExperimentRunner) -> ExperimentResult:
    """How well Eq. (8) predicts remaining accesses, per program class.

    Runs MDM with prediction recording on a streaming program (lbm), a
    hot-set program (zeusmp), and an irregular one (omnetpp), and reports
    calibration: bias, MAE, rank correlation, and hindsight decision
    accuracy at the min_benefit threshold.  Quantifies the paper's core
    mechanism directly — something the paper itself never measures.
    """
    from repro.analysis.decisions import calibrate
    from repro.policies.registry import build_policy
    from repro.sim.engine import SimulationDriver

    config = runner.single_config()
    rows = []
    accuracies = {}
    for program in ("lbm", "zeusmp", "omnetpp", "mcf"):
        policy = build_policy("mdm", config, record_predictions=True)
        driver = SimulationDriver(
            config,
            policy,
            runner.workload_traces([program], runner.single_requests),
            seed=runner.seed,
        )
        driver.run()
        report = calibrate(
            policy.prediction_log, min_benefit=config.mdm.min_benefit
        )
        accuracies[program] = report.decision_accuracy
        rows.append(
            [
                program,
                report.pairs,
                report.bias,
                report.mean_absolute_error,
                report.rank_correlation,
                report.decision_accuracy,
            ]
        )
    return ExperimentResult(
        experiment_id="ext-prediction-accuracy",
        title="MDM remaining-access predictor calibration (Eq. 8)",
        headers=[
            "program",
            "pairs",
            "bias",
            "MAE",
            "rank corr",
            "decision accuracy",
        ],
        rows=rows,
        summary={
            "mean decision accuracy": sum(accuracies.values())
            / len(accuracies)
        },
        notes=(
            "Extension: direct measurement of the paper's core mechanism. "
            "Actuals are right-censored at the 6-bit counter saturation."
        ),
    )


def run_policy_matrix(runner: ExperimentRunner) -> ExperimentResult:
    """Cross-product policy/axis sweep on one contended workload (w09).

    One cell per point of :func:`matrix_cells` (base algorithm x RSM
    guidance x STC replacement); the whole wave goes through the
    runner's :meth:`~ExperimentRunner.run_cells` so ``--jobs N`` fans the
    sweep out over the process pool with results identical to serial
    execution.  The CLI's repeatable ``--policy SPEC``
    (``runner.policy_specs``) restricts the sweep to explicit
    compositions.
    """
    if runner.policy_specs:
        cells = tuple(PolicySpec.parse(spec) for spec in runner.policy_specs)
    else:
        cells = matrix_cells()
    records = runner.run_cells(
        Cell(cell.canonical(), WORKLOADS[MATRIX_WORKLOAD], cell.canonical())
        for cell in cells
    ).cells
    rows = []
    speedups_by_axis: dict[str, dict[str, list[float]]] = {
        "base": {},
        "guidance": {},
        "stc": {},
    }
    failed_cells = 0
    for cell in cells:
        policy = cell.canonical()
        guidance = "rsm" if cell.guidance else "-"
        stc = cell.stc_replacement or "lru"
        record = records.get(policy)
        if record is None:
            # The cell lost a run after retries: a FAILED row, never a
            # figure abort (the failure table lands in the notes).
            rows.append(
                [policy, cell.base, guidance, stc,
                 "FAILED", "FAILED", "-", "-", "-"]
            )
            failed_cells += 1
            continue
        metrics = record.metrics
        rows.append(
            [
                policy,
                cell.base,
                guidance,
                stc,
                metrics.weighted_speedup,
                metrics.unfairness,
                record.total_swaps,
                record.stc_hit_rate,
                metrics.energy_efficiency,
            ]
        )
        for axis, value in (
            ("base", cell.base),
            ("guidance", guidance),
            ("stc", stc),
        ):
            speedups_by_axis[axis].setdefault(value, []).append(
                metrics.weighted_speedup
            )
    summary = {}
    for axis, groups in speedups_by_axis.items():
        if len(groups) < 2:
            continue  # a --policy restriction collapsed this axis
        for value, speedups in groups.items():
            summary[f"geomean WS [{axis}={value}]"] = geomean(speedups)
    notes = (
        "Cells derive from the composable policy registry; the lru "
        "column shares cache entries with the plain-policy suite."
    )
    if failed_cells:
        table = format_failure_table(runner.failures)
        notes = f"{notes}\n\n{table}"
    return ExperimentResult(
        experiment_id="ext-policy-matrix",
        title=(
            f"Policy/axis cross-product on {MATRIX_WORKLOAD} "
            "(identical organization)"
        ),
        headers=[
            "policy",
            "base",
            "guidance",
            "stc",
            "weighted speedup",
            "max slowdown",
            "swaps",
            "STC hit rate",
            "req/J",
        ],
        rows=rows,
        summary=summary,
        notes=notes,
    )
