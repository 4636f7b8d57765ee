"""EXPERIMENTS.md generation: paper-vs-measured for every artifact.

``generate_experiments_md(runner)`` runs (or loads) every registered
experiment and renders a markdown report pairing the paper's reported
values with the reproduction's measured ones, plus a pass/deviation note
per shape target.  The committed EXPERIMENTS.md is produced by this
module (see the header it writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore


@dataclass(frozen=True)
class PaperExpectation:
    """What the paper reports for one artifact, and how to check it."""

    paper_claim: str
    #: Extracts the comparable measured headline from the result.
    measured: Callable[[ExperimentResult], str]
    #: Optional pass/fail shape check.
    shape_holds: Optional[Callable[[ExperimentResult], bool]] = None


def _geomean_improvement(higher_is_better: bool):
    def extract(result: ExperimentResult) -> str:
        gmean = result.summary.get("geomean")
        if gmean is None:
            return "n/a"
        change = gmean - 1.0 if higher_is_better else 1.0 - gmean
        best = result.summary.get("best_improvement")
        best_key = result.summary.get("best_key", "")
        extra = f", up to {best:+.0%} ({best_key})" if best is not None else ""
        return f"{change:+.1%} avg{extra}"

    return extract


def _shape_gmean(higher_is_better: bool, threshold: float = 1.0):
    def check(result: ExperimentResult) -> bool:
        gmean = result.summary.get("geomean")
        if gmean is None:
            return False
        return gmean > threshold if higher_is_better else gmean < threshold

    return check


def _bool_summary_all_true(result: ExperimentResult) -> bool:
    return all(
        value for value in result.summary.values() if isinstance(value, bool)
    )


EXPECTATIONS: dict[str, PaperExpectation] = {
    "table1": PaperExpectation(
        "structural: PoM organization, Table 2 parameters",
        lambda r: "all structural checks pass",
        _bool_summary_all_true,
    ),
    "fig2": PaperExpectation(
        "slowdowns diverge under PoM (w09: soplex 3.7 vs ~2.2)",
        lambda r: "; ".join(
            f"{k.split()[0]} spread {v:.2f}x"
            for k, v in r.summary.items()
            if isinstance(v, float)
        ),
        lambda r: any(
            isinstance(v, float) and v > 1.1 for v in r.summary.values()
        ),
    ),
    "table4": PaperExpectation(
        "sigma falls with M_samp; smoothing cuts sigma of SF_A ~3-5x",
        lambda r: "all shape checks pass"
        if _bool_summary_all_true(r)
        else "some shape checks FAIL",
        _bool_summary_all_true,
    ),
    "fig5": PaperExpectation(
        "MDM vs PoM IPC: +14% avg, up to +38% (lbm); omnetpp ~-1.5%",
        _geomean_improvement(True),
        _shape_gmean(True),
    ),
    "fig6": PaperExpectation(
        "M1 fraction up for most; down where swaps are refused (mcf)",
        _geomean_improvement(True),
    ),
    "fig7": PaperExpectation(
        "STC hit rates high; omnetpp ~70% lowest, mcf ~85%",
        lambda r: "; ".join(
            f"{name} {rate:.0f}%"
            for name, rate in r.rows
            if name in ("mcf", "omnetpp")
        ),
        lambda r: all(
            isinstance(v, bool) and v
            for v in r.summary.values()
            if isinstance(v, bool)
        ),
    ),
    "fig8": PaperExpectation(
        "mostly insensitive; mcf/omnetpp lose ~8% with half STC",
        lambda r: "half-STC worst case "
        + f"{min(row[1] for row in r.rows):.3f}",
    ),
    "fig9": PaperExpectation(
        "hit rates grow with STC size",
        lambda r: str(r.summary.get("programs with monotone hit rate", "")),
    ),
    "sens-twr": PaperExpectation(
        "MDM advantage: 12% (0.5x tWR) / 14% (1x) / 18% (2x)",
        lambda r: "; ".join(f"{row[0]}: {row[1]:.3f}" for row in r.rows),
        _bool_summary_all_true,
    ),
    "sens-ratio": PaperExpectation(
        "1:4 shrinks advantage to 12%; 1:16 keeps ~14%",
        lambda r: "; ".join(f"{row[0]}: {row[1]:.3f}" for row in r.rows),
        _bool_summary_all_true,
    ),
    "fig10": PaperExpectation(
        "MDM max slowdown vs PoM: -6% avg (up to -19%, w12)",
        _geomean_improvement(False),
        _shape_gmean(False),
    ),
    "fig11": PaperExpectation(
        "MDM weighted speedup vs PoM: +7% avg (up to +16%, w12)",
        _geomean_improvement(True),
        _shape_gmean(True),
    ),
    "fig12": PaperExpectation(
        "MDM energy efficiency vs PoM: +7% avg (up to +26%, w18)",
        _geomean_improvement(True),
    ),
    "fig13": PaperExpectation(
        "ProFess max slowdown vs PoM: -15% avg (up to -29%, w12)",
        _geomean_improvement(False),
        _shape_gmean(False),
    ),
    "fig14": PaperExpectation(
        "ProFess weighted speedup vs PoM: +12% avg (up to +29%, w19)",
        _geomean_improvement(True),
        _shape_gmean(True),
    ),
    "fig15": PaperExpectation(
        "ProFess energy efficiency vs PoM: +11% avg (up to +30%, w19)",
        _geomean_improvement(True),
        _shape_gmean(True),
    ),
    "fig16": PaperExpectation(
        "ProFess trades light programs' speed to relieve the worst",
        lambda r: "; ".join(
            f"{key.split()[0]}: {value}" for key, value in r.summary.items()
        ),
    ),
    "mempod-vs-pom": PaperExpectation(
        "MemPod AMMAT ~19%/18% longer than PoM (single/multi)",
        lambda r: (
            f"single {r.summary['single-program geomean']:.3f}, "
            f"multi {r.summary['multi-program geomean']:.3f}"
        ),
        lambda r: r.summary["single-program geomean"] > 1.0,
    ),
}


def _header(description: str) -> list[str]:
    return [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `repro.experiments.paper_report`",
        f"({description}).",
        "",
        "Absolute magnitudes are not comparable to the paper (different",
        "substrate and scale); the *shape* annotation records whether the",
        "paper's qualitative claim holds in this reproduction.",
        "",
        "Profiling a run: `profess perf` measures kernel throughput on two",
        "fixed scenarios and writes `BENCH_kernel.json` (`--quick` for",
        "CI-sized traces, `--baseline <json>` to fail on a throughput",
        "regression); `profess run <id> --profile` prints the cProfile",
        "hot-function table for one experiment (use `--jobs 1` so the",
        "simulation stays in the profiled process).  See DESIGN.md §10.",
        "",
        "Reading the CI perf trend: every CI run's *Summary* page carries",
        "a kernel-benchmark table (one row per scenario: events/sec,",
        "requests/sec, and the delta against the checked-in",
        "`benchmarks/baselines/kernel_baseline.json`), plus the trace-",
        "decode before/after line (DESIGN.md §12).  Deltas are best-of-3",
        "on shared runners, so read the *trend across commits*, not one",
        "run; the hard gate only fails below 0.7× baseline.  A `:warning:`",
        "line flags a baseline recorded under a different Python minor",
        "version or machine — deltas there may reflect the interpreter,",
        "not the kernel.  The raw payload is the `BENCH_kernel-<sha>`",
        "artifact on each run.",
        "",
        "Resuming an interrupted sweep: run the long figure sweeps with a",
        "disk cache and a journal, e.g. `profess run fig10 fig11 fig12",
        "fig13 fig14 fig15 fig16 --jobs 8 --cache-dir .cache --retries 2",
        "--run-timeout 900`.  Every completed simulation lands in the",
        "cache and `.cache/journal.jsonl` records each submission and",
        "outcome, so a crash, an eviction, or a Ctrl-C loses at most the",
        "in-flight runs.  Rerun the identical command with `--resume`",
        "added: the journal replay prints a",
        "completed/failed/pending summary, completed runs are served",
        "from the cache (integrity-checked; corrupt entries are moved to",
        "`.cache/quarantine/` once and re-simulated), and only failures",
        "and pending work re-execute.  Runs that still fail after the",
        "retry budget render as FAILED rows with a failure table on",
        "stderr (exit 1) rather than aborting the sweep; add",
        "`--fail-fast` to abort on the first failure instead.  See",
        "DESIGN.md §15 for the full failure-handling contract.",
        "",
        "Measuring sweep memory footprint: `profess perf --sweep",
        "--sweep-specs 200 --jobs 4 --transport shm` runs a synthetic",
        "200-spec wave through the shared-memory transport with a",
        "streaming reducer and writes `BENCH_sweep.json` (aggregate",
        "requests/sec plus the parent's peak RSS in MiB); `--baseline",
        "benchmarks/baselines/sweep_rss_baseline.json` fails below",
        "0.7× baseline throughput or above the `--max-rss-ratio`",
        "(default 1.4×) RSS ceiling — a change that re-materializes",
        "full results in the parent scales RSS with spec count and",
        "trips it.  `profess run <id> --verbose` prints the same",
        "`parent peak RSS` line after any sweep, and `--transport",
        "pickle|shm` pins the transport for an A/B (results are",
        "byte-identical either way; only memory and speed move).  CI",
        "runs this as the `sweep-scale` job with a delta table on the",
        "run's *Summary* page.  See DESIGN.md §17.",
        "",
    ]


def _section(result: ExperimentResult) -> list[str]:
    experiment_id = result.experiment_id
    expectation = EXPECTATIONS.get(experiment_id)
    lines = [f"## {experiment_id} — {result.title}", ""]
    if expectation is not None:
        shape = ""
        if expectation.shape_holds is not None:
            shape = (
                " — **shape holds**"
                if expectation.shape_holds(result)
                else " — **shape DEVIATES**"
            )
        lines.append(f"* paper: {expectation.paper_claim}")
        lines.append(f"* measured: {expectation.measured(result)}{shape}")
    elif experiment_id.startswith("ablation"):
        lines.append("* ablation beyond the paper (no paper value)")
    else:
        lines.append("* extension beyond the paper (no paper value)")
    lines.extend(["", "```", result.render(), "```", ""])
    return lines


def generate_experiments_md(
    runner: ExperimentRunner,
    output_path: str | Path = "EXPERIMENTS.md",
    store: Optional[ResultStore] = None,
    experiment_ids: Optional[list[str]] = None,
) -> str:
    """Run every registered experiment and render EXPERIMENTS.md.

    The report file is rewritten incrementally after every experiment,
    so a partially complete run still leaves a usable document.
    """
    import time

    ids = experiment_ids if experiment_ids is not None else list(EXPERIMENTS)
    lines = _header(
        f"scale=1/{runner.scale}, {runner.multi_requests} requests/program "
        f"multiprogram, {runner.single_requests} single, seed={runner.seed}"
    )
    for experiment_id in ids:
        started = time.perf_counter()
        result = run_experiment(experiment_id, runner)
        if store is not None:
            store.save(result)
        if runner.verbose:
            print(
                f"[{experiment_id} done in "
                f"{time.perf_counter() - started:.1f}s; "
                f"{format_run_stats(runner)}]"
            )
        lines.extend(_section(result))
        Path(output_path).write_text("\n".join(lines))
    text = "\n".join(lines)
    Path(output_path).write_text(text)
    return text


def format_run_stats(runner: ExperimentRunner) -> str:
    """Cache-hit counters + simulation count, for --verbose output.

    A fully warm run reads ``simulations executed: 0`` — the acceptance
    signal that no re-simulation happened (asserted in CI).
    """
    stats = runner.run_stats()
    line = (
        f"cache: disk hits={stats['disk_hits']} "
        f"misses={stats['disk_misses']} stores={stats['disk_stores']} "
        f"memory hits={stats['memory_hits']}; "
        f"simulations executed: {stats['executed']}"
    )
    resilience = {
        key: stats[key]
        for key in ("retried", "failures", "quarantined", "store_errors")
        if stats[key]
    }
    if resilience:
        extras = " ".join(f"{k}={v}" for k, v in resilience.items())
        line += f"; resilience: {extras}"
    return line


def render_from_store(
    store: ResultStore,
    output_path: str | Path = "EXPERIMENTS.md",
    description: str = "rendered from stored results",
) -> str:
    """Render EXPERIMENTS.md from previously stored JSON results.

    Experiments without a stored result are listed as missing; no
    simulation runs.
    """
    lines = _header(description)
    for experiment_id in EXPERIMENTS:
        result = store.load(experiment_id)
        if result is None:
            lines.append(f"## {experiment_id} — (no stored result)")
            lines.append("")
            continue
        lines.extend(_section(result))
    text = "\n".join(lines)
    Path(output_path).write_text(text)
    return text
