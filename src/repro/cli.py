"""Command-line interface: ``profess list`` / ``profess run <id>``.

Examples::

    profess list
    profess run fig5
    profess run fig13 --scale 128 --requests 20000
    profess run all --out results/
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from pathlib import Path

from repro.experiments.registry import (
    EXPERIMENTS,
    UnknownExperimentError,
    resolve_experiment_ids,
    run_experiment,
)
from repro.experiments.runner import (
    DEFAULT_MULTI_REQUESTS,
    DEFAULT_SCALE,
    DEFAULT_SINGLE_REQUESTS,
    ExperimentRunner,
)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return number


def _directory(value: str) -> Path:
    """A directory flag's path: absent (made on first write) or a directory."""
    path = Path(value)
    if path.exists() and not path.is_dir():
        raise argparse.ArgumentTypeError(
            f"{value!r} exists and is not a directory"
        )
    return path


def _cannot_write(command: str, path: Path) -> bool:
    """Report an output file flag's path that cannot be written.

    Runs before the command does any work; the file may be absent (it
    is written at the end), its directory may not.
    """
    if path.is_dir():
        reason = os.strerror(errno.EISDIR)
    elif not path.parent.is_dir():
        reason = os.strerror(errno.ENOENT)
    else:
        return False
    print(f"profess {command}: cannot write {path}: {reason}", file=sys.stderr)
    return True


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return number


def _timeout_seconds(value: str) -> float:
    seconds = float(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError("must be > 0 seconds")
    return seconds


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every simulating subcommand."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for independent runs (1 = in-process serial)",
    )
    parser.add_argument(
        "--cache-dir",
        type=_directory,
        default=None,
        help="directory for the persistent result cache and run journal "
        "(shared across invocations; a rerun serves completed runs from "
        "the cache and re-attempts only failed and pending ones)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=1,
        metavar="N",
        help="re-attempts per run for transient failures (worker death, "
        "timeout, OS errors); simulation errors are never retried",
    )
    parser.add_argument(
        "--run-timeout",
        type=_timeout_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per simulation; an overdue run counts as "
        "a (retryable) failure and its worker is replaced",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the sweep on the first failed run instead of "
        "finishing the wave and reporting a failure table",
    )
    _add_transport_flag(parser)


def _add_transport_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transport",
        choices=("auto", "pickle", "shm"),
        default="auto",
        help="how workers return results: 'pickle' (full result over the "
        "pool pipe), 'shm' (length-prefixed frames in shared memory; the "
        "parent maps them lazily), or 'auto' (shm when --jobs > 1); "
        "results are byte-identical across transports and the choice "
        "never affects cache keys",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="profess",
        description="ProFess (HPCA 2018) reproduction experiment harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    policies_parser = subparsers.add_parser(
        "policies",
        help="list registered migration policies and composition axes",
        description="Print every policy in the composable registry "
        "(repro.policies.registry) with its base algorithm and RSM "
        "guidance, plus the axis grammar accepted by 'profess run "
        "--policy' (base[+rsm][+stc:POLICY]).",
    )
    policies_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the listing as markdown tables (README source)",
    )

    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment",
        nargs="+",
        help="experiment id(s) (e.g. fig5 table4) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        type=int,
        default=DEFAULT_SCALE,
        help="capacity divisor vs the paper system (power of two)",
    )
    run_parser.add_argument(
        "--requests",
        type=_positive_int,
        default=DEFAULT_MULTI_REQUESTS,
        help="trace length per program (multiprogram runs)",
    )
    run_parser.add_argument(
        "--single-requests",
        type=_positive_int,
        default=DEFAULT_SINGLE_REQUESTS,
        help="trace length per program (single-program runs)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="SPEC",
        help="restrict policy-sweep experiments (e.g. ext-policy-matrix) "
        "to these composable policy specs (repeatable; e.g. "
        "mdm+rsm+stc:lfu); see 'profess policies'",
    )
    run_parser.add_argument(
        "--validate-every",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="audit all simulator invariants (sim.validation) every N "
        "cycles during each run; corruption aborts the run instead of "
        "poisoning results (0 = off; does not affect cache keys)",
    )
    run_parser.add_argument(
        "--out",
        type=_directory,
        default=None,
        help="directory for .txt reports",
    )
    run_parser.add_argument("--verbose", action="store_true")
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions "
        "(profiles the driving process; use --jobs 1)",
    )
    _add_execution_flags(run_parser)

    report_parser = subparsers.add_parser(
        "report",
        help="run every paper artifact and generate EXPERIMENTS.md",
    )
    report_parser.add_argument(
        "--scale", type=int, default=DEFAULT_SCALE
    )
    report_parser.add_argument(
        "--requests", type=_positive_int, default=DEFAULT_MULTI_REQUESTS
    )
    report_parser.add_argument(
        "--single-requests",
        type=_positive_int,
        default=DEFAULT_SINGLE_REQUESTS,
    )
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--output", type=Path, default=Path("EXPERIMENTS.md")
    )
    report_parser.add_argument(
        "--store",
        type=_directory,
        default=None,
        help="directory for JSON results",
    )
    report_parser.add_argument("--verbose", action="store_true")
    _add_execution_flags(report_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="synthesize a program trace to a .npz file"
    )
    trace_parser.add_argument("program", help="Table 9 program name")
    trace_parser.add_argument("output", type=Path)
    trace_parser.add_argument("--requests", type=_positive_int, default=50_000)
    trace_parser.add_argument(
        "--scale", type=_positive_int, default=DEFAULT_SCALE
    )
    trace_parser.add_argument("--seed", type=int, default=0)

    char_parser = subparsers.add_parser(
        "characterize", help="summarize a trace file (or a program name)"
    )
    char_parser.add_argument(
        "trace", help="path to a .npz trace, or a Table 9 program name"
    )
    char_parser.add_argument("--requests", type=_positive_int, default=50_000)
    char_parser.add_argument(
        "--scale", type=_positive_int, default=DEFAULT_SCALE
    )
    char_parser.add_argument("--seed", type=int, default=0)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or maintain a persistent result cache directory",
        description="Report entry and quarantine counts for a "
        "--cache-dir, optionally deleting quarantined entries "
        "(--prune-quarantine) or every entry (--clear).  Quarantine "
        "holds corrupt/stale payloads moved aside for diagnosis; nothing "
        "expires them automatically, so long-lived shared caches need "
        "the occasional prune.",
    )
    cache_parser.add_argument(
        "--cache-dir",
        type=_directory,
        required=True,
        help="the cache directory to inspect (same flag as 'profess run')",
    )
    cache_parser.add_argument(
        "--prune-quarantine",
        action="store_true",
        help="delete quarantined entries and their .reason.txt notes",
    )
    cache_parser.add_argument(
        "--clear",
        action="store_true",
        help="delete every cached result (quarantine is left alone "
        "unless --prune-quarantine is also given)",
    )

    perf_parser = subparsers.add_parser(
        "perf",
        help="run the standard kernel benchmark (events/sec)",
        description="Measure simulation-kernel throughput on two fixed "
        "scenarios and write BENCH_kernel.json.  With --baseline, exits "
        "non-zero when events/sec regresses below --min-ratio times the "
        "recorded rates (the CI perf-smoke gate).  With --sweep, run the "
        "sweep-scale benchmark instead: a few hundred small specs "
        "through the executor under --transport, gating throughput "
        "(floor) and parent peak RSS (ceiling) against a baseline "
        "BENCH_sweep.json (the CI sweep-scale gate).",
    )
    perf_parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter traces (CI-sized; compare only against a quick baseline)",
    )
    perf_parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repeats per scenario; the best repeat is reported",
    )
    perf_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="where to write the benchmark payload (default "
        "BENCH_kernel.json, or BENCH_sweep.json with --sweep)",
    )
    perf_parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline BENCH_kernel.json (or BENCH_sweep.json with "
        "--sweep) to compare against",
    )
    perf_parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.7,
        help="fail when events/sec drops below this fraction of baseline",
    )
    perf_parser.add_argument(
        "--sweep",
        action="store_true",
        help="run the sweep-scale execution benchmark instead of the "
        "kernel benchmark (throughput floor + parent peak-RSS ceiling)",
    )
    perf_parser.add_argument(
        "--sweep-specs",
        type=int,
        default=200,
        metavar="N",
        help="wave width for --sweep (baselines only compare at equal N)",
    )
    perf_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for --sweep (1 = in-process serial)",
    )
    perf_parser.add_argument(
        "--max-rss-ratio",
        type=float,
        default=1.4,
        help="with --sweep and --baseline: fail when parent peak RSS "
        "exceeds this multiple of the baseline's",
    )
    _add_transport_flag(perf_parser)
    perf_parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        metavar="FILE",
        help="append a markdown delta-vs-baseline table to FILE (CI "
        "writes this to $GITHUB_STEP_SUMMARY)",
    )
    perf_parser.add_argument("--verbose", action="store_true")

    golden_parser = subparsers.add_parser(
        "golden",
        help="regenerate the golden determinism scenarios and digest them",
        description="Run every golden scenario (tests/golden/) and print "
        "its SHA-256 digest.  --check diffs the regenerated results "
        "byte-for-byte against the checked-in blobs; --out writes a "
        "digest JSON for the CI cross-version determinism gate.",
    )
    golden_parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="DIR",
        help="golden blob directory to verify against (e.g. tests/golden)",
    )
    golden_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write {python, scenarios: {name: sha256}} JSON to FILE",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repro static-analysis pass (determinism/hot-path/"
        "contract rules)",
        description="AST-based project lint (DESIGN.md Sec. 11): D-rules "
        "protect golden determinism, H-rules protect the kernel fast "
        "path via the hot-path manifest, C-rules enforce API contracts. "
        "Exit 0 when clean, 1 when findings remain, 2 on usage errors.",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json is one object with a findings array; "
        "sarif is a SARIF 2.1.0 log for GitHub code scanning)",
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids/prefixes to enable (e.g. D,H201)",
    )
    lint_parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids/prefixes to disable",
    )
    lint_parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed vs HEAD (pre-commit mode)",
    )
    lint_parser.add_argument(
        "--exclude",
        action="append",
        type=Path,
        default=[],
        metavar="PATH",
        help="file or directory subtree to skip (repeatable; used to "
        "keep deliberately-broken lint fixtures out of a tests/ sweep)",
    )
    lint_parser.add_argument(
        "--show-unused-noqa",
        action="store_true",
        help="also report `# repro: noqa` comments that no longer match "
        "any finding (rule W001)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its description and exit",
    )
    return parser


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        scale=args.scale,
        multi_requests=args.requests,
        single_requests=args.single_requests,
        seed=args.seed,
        verbose=getattr(args, "verbose", False),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        validate_every=getattr(args, "validate_every", 0),
        policies=getattr(args, "policy", None),
        retries=getattr(args, "retries", 1),
        run_timeout=getattr(args, "run_timeout", None),
        fail_fast=getattr(args, "fail_fast", False),
        transport=getattr(args, "transport", "auto"),
    )


def _run(args: argparse.Namespace) -> int:
    from repro.common.errors import (
        ConfigError,
        InvalidValueError,
        PolicySpecError,
        UnknownPolicyError,
    )
    from repro.exec import SweepFailure, format_failure_table
    from repro.policies.registry import canonical_policy

    # Validate the complete request before simulating anything: a typo
    # at the end of an id list must not waste the runs before it.
    try:
        ids = resolve_experiment_ids(args.experiment)
    except UnknownExperimentError as error:
        unknown = ", ".join(map(repr, error.unknown))
        print(
            f"unknown experiment(s) {unknown}; try 'profess list'",
            file=sys.stderr,
        )
        return 2
    try:
        for spec in args.policy or ():
            canonical_policy(spec)
    except (PolicySpecError, UnknownPolicyError) as error:
        print(f"bad --policy: {error}", file=sys.stderr)
        return 2
    try:
        runner = _make_runner(args)
    except InvalidValueError as error:
        print(f"profess run: {error}", file=sys.stderr)
        return 2
    _print_resume_summary(runner)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    for experiment_id in ids:
        started = time.time()
        try:
            result = run_experiment(experiment_id, runner)
        except SweepFailure as error:
            # Without --fail-fast a figure raises only when it cannot
            # render FAILED rows: every single-program figure, and a
            # multiprogram figure that needs all its cells.
            reason = "aborted: fail-fast" if args.fail_fast else "aborted"
            print(f"[{experiment_id} {reason}]", file=sys.stderr)
            print(format_failure_table(error.failures), file=sys.stderr)
            return 1
        except ConfigError as error:
            # The figure's config is built lazily, on first use; that is
            # where e.g. an unsupported --scale is caught.
            print(f"profess run: {error}", file=sys.stderr)
            return 2
        report = result.render()
        elapsed = time.time() - started
        print(report)
        print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{experiment_id}.txt").write_text(report + "\n")
    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    if args.verbose:
        _print_run_stats(runner)
    if runner.failures:
        print(format_failure_table(runner.failures), file=sys.stderr)
        print(
            f"{len(runner.failures)} run(s) failed; rerun with the same "
            "--cache-dir to retry only the failures",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_resume_summary(runner: ExperimentRunner) -> None:
    """What the cache dir's journal shows, if it has records: a rerun
    over a cache dir resumes its sweep, with completed runs served from
    the cache and only failed and pending ones re-attempted."""
    if runner.journal is None:
        return
    state = runner.journal.replay()
    if not (
        state.submitted or state.completed or state.failed or state.skipped_lines
    ):
        return
    pieces = (
        f"{len(state.completed)} completed, "
        f"{len(state.failed)} failed, "
        f"{len(state.pending())} pending"
    )
    if state.skipped_lines:
        pieces += f" ({state.skipped_lines} unreadable journal lines)"
    print(f"resume: journal shows {pieces}")


def _print_run_stats(runner: ExperimentRunner) -> None:
    """``--verbose``'s closing lines: cache counters, then parent RSS."""
    from repro.experiments.paper_report import format_run_stats, peak_rss_mb

    print(format_run_stats(runner))
    rss = peak_rss_mb()
    if rss > 0:
        print(f"parent peak RSS: {rss:,.1f} MiB")


def _report(args: argparse.Namespace) -> int:
    from repro.experiments.paper_report import generate_experiments_md
    from repro.common.errors import ConfigError, InvalidValueError
    from repro.exec import SweepFailure, format_failure_table

    if _cannot_write("report", args.output):
        return 2
    try:
        runner = _make_runner(args)
    except InvalidValueError as error:
        print(f"profess report: {error}", file=sys.stderr)
        return 2
    _print_resume_summary(runner)
    started = time.time()
    try:
        generate_experiments_md(runner, args.output, store=args.store)
    except SweepFailure as error:
        # As in ``profess run``: a figure that raises, or --fail-fast.
        reason = "aborted: fail-fast" if args.fail_fast else "aborted"
        print(f"[report {reason}]", file=sys.stderr)
        print(format_failure_table(error.failures), file=sys.stderr)
        return 1
    except ConfigError as error:
        print(f"profess report: {error}", file=sys.stderr)
        return 2
    print(f"wrote {args.output} in {time.time() - started:.0f}s")
    if args.verbose:
        _print_run_stats(runner)
    return 0


def _error_text(error: Exception) -> str:
    """An error's message (a KeyError subclass's str() quotes it)."""
    return str(error.args[0]) if error.args else str(error)


def _trace(args: argparse.Namespace) -> int:
    from repro.common.errors import ReproError
    from repro.traces.generator import synthesize_trace

    try:
        trace = synthesize_trace(
            args.program, args.requests, scale=args.scale, seed=args.seed
        )
    except ReproError as error:
        print(f"profess trace: {_error_text(error)}", file=sys.stderr)
        return 2
    try:
        trace.save(args.output)
    except OSError as error:
        print(
            f"profess trace: cannot write {args.output}: "
            f"{error.strerror or error}",
            file=sys.stderr,
        )
        return 2
    print(
        f"wrote {args.output}: {len(trace)} requests, "
        f"MPKI {trace.mpki:.1f}, writes {trace.write_fraction:.1%}"
    )
    return 0


def _characterize(args: argparse.Namespace) -> int:
    from repro.common.errors import ReproError
    from repro.cpu.trace import Trace
    from repro.traces.generator import synthesize_trace
    from repro.traces.spec import PROGRAM_PROFILES
    from repro.traces.stats import characterize

    try:
        if args.trace in PROGRAM_PROFILES:
            trace = synthesize_trace(
                args.trace, args.requests, scale=args.scale, seed=args.seed
            )
        else:
            trace = Trace.load(args.trace)
    except ReproError as error:
        print(f"profess characterize: {_error_text(error)}", file=sys.stderr)
        return 2
    summary = characterize(trace)
    print(f"requests:                  {summary.requests}")
    print(f"instructions:              {summary.instructions}")
    print(f"MPKI:                      {summary.mpki:.2f}")
    print(f"write fraction:            {summary.write_fraction:.1%}")
    print(f"footprint:                 {summary.footprint_bytes / 1024:.0f} KB")
    print(f"distinct 2-KB blocks:      {summary.distinct_blocks}")
    print(f"mean accesses per block:   {summary.mean_accesses_per_block:.1f}")
    print(f"top-decile access share:   {summary.top_decile_access_share:.1%}")
    print(f"same-block request pairs:  {summary.same_block_fraction:.1%}")
    reuse = summary.median_block_reuse_distance
    print(
        "median block reuse dist:   "
        + (f"{reuse:.0f}" if reuse is not None else "n/a (streaming)")
    )
    return 0


def _perf_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.perf.sweep_bench import (
        compare_sweep_to_baseline,
        run_sweep_benchmark,
        sweep_markdown_summary,
        write_sweep_json,
    )

    progress = print if args.verbose else None
    payload = run_sweep_benchmark(
        count=args.sweep_specs,
        jobs=args.jobs,
        transport=args.transport,
        progress=progress,
    )
    print(
        f"sweep    {payload['spec_count']} specs  "
        f"jobs={payload['jobs']} transport={payload['transport']}  "
        f"{payload['requests_per_sec']:>11,.0f} requests/sec  "
        f"peak RSS {payload['peak_rss_mb']:,.1f} MiB"
    )
    if payload["failed"]:
        print(
            f"PERF WARNING: {payload['failed']} spec(s) failed",
            file=sys.stderr,
        )
    out = args.out if args.out is not None else Path("BENCH_sweep.json")
    write_sweep_json(payload, out)
    print(f"wrote {out}")

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())

    if args.summary is not None:
        with args.summary.open("a") as handle:
            handle.write(sweep_markdown_summary(payload, baseline))
        print(f"appended summary to {args.summary}")

    if baseline is not None:
        failures = compare_sweep_to_baseline(
            payload,
            baseline,
            min_ratio=args.min_ratio,
            max_rss_ratio=args.max_rss_ratio,
        )
        if failures:
            for failure in failures:
                print(f"SWEEP REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"within {args.min_ratio:.2f}x throughput / "
            f"{args.max_rss_ratio:.2f}x RSS of baseline {args.baseline}"
        )
    return 0


def _perf(args: argparse.Namespace) -> int:
    import json

    if args.sweep:
        return _perf_sweep(args)

    from repro.perf.bench import (
        compare_to_baseline,
        compatibility_warnings,
        markdown_summary,
        run_kernel_benchmark,
        write_bench_json,
    )

    progress = print if args.verbose else None
    payload = run_kernel_benchmark(
        quick=args.quick, repeats=args.repeats, progress=progress
    )
    for scenario in payload["scenarios"]:
        print(
            f"{scenario['name']:<8}"
            f"{scenario['events']:>10,} events  "
            f"{scenario['events_per_sec']:>11,.0f} events/sec  "
            f"{scenario['requests_per_sec']:>10,.0f} requests/sec"
        )

    out = args.out if args.out is not None else Path("BENCH_kernel.json")
    write_bench_json(payload, out)
    print(f"wrote {out}")

    baseline = None
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())

    if args.summary is not None:
        with args.summary.open("a") as handle:
            handle.write(markdown_summary(payload, baseline))
        print(f"appended summary to {args.summary}")

    if baseline is not None:
        for warning in compatibility_warnings(payload, baseline):
            print(f"PERF WARNING: {warning}", file=sys.stderr)
        failures = compare_to_baseline(
            payload, baseline, min_ratio=args.min_ratio
        )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"within {args.min_ratio:.2f}x of baseline {args.baseline}")
    return 0


def _cache(args: argparse.Namespace) -> int:
    from repro.exec.cache import ResultCache

    if not args.cache_dir.is_dir():
        # Inspecting must not create: a typo'd path is an error, not an
        # empty cache.
        print(
            f"profess cache: no cache directory {str(args.cache_dir)!r}",
            file=sys.stderr,
        )
        return 2
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached result(s)")
    if args.prune_quarantine:
        pruned = cache.prune_quarantine()
        print(f"pruned {pruned} quarantined entr(ies)")
    print(f"cache {args.cache_dir}: {len(cache)} entr(ies), "
          f"{cache.quarantine_count()} quarantined")
    return 0


def _golden(args: argparse.Namespace) -> int:
    import json
    import platform

    import numpy

    from repro.sim.golden import check_against_blobs, golden_digests

    if args.out is not None and _cannot_write("golden", args.out):
        return 2
    if args.check is not None and not args.check.is_dir():
        # Exit 1 means drift from the blobs; a mistyped path is not that.
        print(
            f"profess golden: no golden directory {str(args.check)!r}",
            file=sys.stderr,
        )
        return 2
    digests = golden_digests()
    for name, digest in sorted(digests.items()):
        print(f"{name:<16} sha256:{digest}")
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    # Trace bytes rest on numpy's Generator transforms
                    # as well as on Python.
                    "numpy": numpy.__version__,
                    "python": platform.python_version(),
                    "scenarios": digests,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {args.out}")
    if args.check is not None:
        problems = check_against_blobs(args.check)
        if problems:
            for name, problem in sorted(problems.items()):
                print(f"GOLDEN MISMATCH: {name}: {problem}", file=sys.stderr)
            return 1
        print(f"all scenarios byte-identical to {args.check}")
    return 0


def _lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import RULES, LintError, lint_paths, render_sarif

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, description in sorted(RULES.items()):
            print(f"{rule.ljust(width)}  {description}")
        return 0
    paths = args.paths or [Path(__file__).parent]
    try:
        findings = lint_paths(
            paths,
            select=args.select,
            ignore=args.ignore,
            changed_only=args.changed,
            exclude=args.exclude,
            show_unused_noqa=args.show_unused_noqa,
        )
    except LintError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "count": len(findings),
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        print(json.dumps(render_sarif(findings), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            counts: dict[str, int] = {}
            for finding in findings:
                counts[finding.rule] = counts.get(finding.rule, 0) + 1
            summary = ", ".join(
                f"{rule} x{count}" for rule, count in sorted(counts.items())
            )
            print(f"{len(findings)} finding(s): {summary}", file=sys.stderr)
    return 1 if findings else 0


def _policies(args: argparse.Namespace) -> int:
    from repro.cache.sets import REPLACEMENT_POLICIES
    from repro.policies.registry import guided_bases, iter_registered

    entries = list(iter_registered())
    guided = ", ".join(guided_bases())
    stc_policies = ", ".join(REPLACEMENT_POLICIES)
    if args.markdown:
        print("| name | base | guidance | description |")
        print("| --- | --- | --- | --- |")
        for entry in entries:
            guidance = "RSM" if entry.guidance else "—"
            print(
                f"| `{entry.name}` | {entry.base} | {guidance} "
                f"| {entry.description} |"
            )
        print()
        print("| axis | values | default |")
        print("| --- | --- | --- |")
        print(f"| `+rsm` | guided bases: {guided} | off |")
        print(f"| `+stc:POLICY` | {stc_policies} | lru |")
    else:
        width = max(len(entry.name) for entry in entries)
        for entry in entries:
            tag = " [rsm]" if entry.guidance else ""
            print(f"{entry.name.ljust(width)}  {entry.description}{tag}")
        print()
        print("compose axes with '+': base[+rsm][+stc:POLICY]")
        print(f"  rsm guidance available for: {guided}")
        print(f"  stc replacement: {stc_policies}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(i) for i in EXPERIMENTS)
        for experiment_id, spec in EXPERIMENTS.items():
            print(f"{experiment_id.ljust(width)}  {spec.description}")
        return 0
    if args.command == "policies":
        return _policies(args)
    if args.command == "report":
        return _report(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "characterize":
        return _characterize(args)
    if args.command == "perf":
        return _perf(args)
    if args.command == "cache":
        return _cache(args)
    if args.command == "golden":
        return _golden(args)
    if args.command == "lint":
        return _lint(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
