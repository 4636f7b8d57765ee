"""Figure-regeneration benchmark: time a paper artifact, check it, report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig14-quad --seed 0 \\
        --seconds 60 --trace 0

Each repetition runs ``perfbench/rep.py`` in a fresh interpreter and the
run repeats until ``--seconds`` is spent (at least three times).  With
``--trace 0`` the last line reports the medians of the end-to-end metrics
(``wall_ref_s``, ``cpu_ref_s``, ``setup_s``, ``peak_rss_mb``; see
:mod:`perfbench.calibrate` for the reference seconds) and the lines above
it the measured ``wall_s``, ``cpu_s`` and ``failed_frac``; with
``--trace 1`` untraced and traced repetitions alternate and the last line
reports the per-layer metrics of :mod:`perfbench.layers`.  Every
repetition's spec
digests are checked against ``perfbench/digests.json`` when the seed was
recorded there, and against the run's first repetition otherwise.

``--record`` re-records the digests of the given seed for every workload.
All scratch files live under ``.perfbench_work/`` in the checkout and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(ROOT))

from perfbench.calibrate import speed_factor  # noqa: E402
from perfbench.layers import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOAD_NAMES = ("fig14-quad", "sweep-pool")
#: Recorded digests keep this many hex digits of each key and digest.
DIGEST_CHARS = 16
MIN_REPS = 3
#: Each repetition must finish within this many seconds.
REP_TIMEOUT = 150
#: End-to-end metrics: ``*_ref_s`` are each repetition's wall and CPU
#: seconds at the reference host speed (:func:`calibrate.speed_factor`).
E2E_UNITS = {
    "wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
}
#: Workloads that run a process pool; the others are pinned to one CPU
#: per repetition, alternating over the CPUs.
POOLED = {"sweep-pool"}
#: Paper headlines, printed beside the simulated ones (not gated).
PAPER_HEADLINES = {
    "fig14-quad": ("ProFess/PoM weighted speedup, avg improvement", 0.12),
}


class RepError(RuntimeError):
    """A repetition exited non-zero or printed no result."""


def _short(digests: dict) -> dict:
    return {
        key[:DIGEST_CHARS]: value[:DIGEST_CHARS]
        for key, value in digests.items()
    }


def spawn_rep(workdir: Path, *options: str) -> tuple[float, dict]:
    """Run one repetition; returns (monotonic spawn time, its result)."""
    command = [sys.executable, str(BENCH / "rep.py"), "--workdir",
               str(workdir), *options]
    spawned = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=REP_TIMEOUT, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RepError(
            f"repetition {' '.join(options)} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    return spawned, json.loads(lines[-1])


class Gate:
    """Counts spec failures and digest mismatches across repetitions."""

    def __init__(self, expected: dict | None) -> None:
        #: Recorded digests for this seed, or None (the first repetition
        #: becomes the reference).
        self.expected = expected
        self.recorded = expected is not None
        self.attempted = 0
        self.failed = 0
        self.artifact_ok = True

    def check(self, rep: dict) -> None:
        specs = _short(rep["specs"])
        artifact = rep["artifact"][:DIGEST_CHARS]
        if self.expected is None:
            self.expected = {"artifact": artifact, "specs": specs}
        want = self.expected["specs"]
        mismatched = sum(1 for key, value in want.items()
                         if specs.get(key) != value)
        mismatched += sum(1 for key in specs if key not in want)
        attempted = max(rep["attempted"], len(want), 1)
        self.attempted += attempted
        self.failed += min(mismatched + rep["failures"], attempted)
        if artifact != self.expected["artifact"]:
            self.artifact_ok = False

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.artifact_ok


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(args, workdir: Path, gate: Gate) -> tuple[dict, list[str]]:
    """Repeat the workload for ``args.seconds``; return metrics and notes."""
    options = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    deadline = started + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    headline = None
    index = 0
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        use_trace = args.trace == 1 and index % 2 == 1
        pin = []
        if args.workload not in POOLED:
            done = len(traced if use_trace else untraced)
            pin = ["--cpu", str(cpus[done % len(cpus)])]
        repdir = workdir / f"rep-{index}"
        spawned, rep = spawn_rep(
            repdir, *options, *pin, *(["--trace"] if use_trace else [])
        )
        shutil.rmtree(repdir, ignore_errors=True)
        durations.append(time.monotonic() - spawned)
        rep["setup_s"] = rep["submit_at"] - spawned
        gate.check(rep)
        headline = rep["headline"]
        (traced if use_trace else untraced).append(rep)
        index += 1
        enough = len(untraced) >= MIN_REPS - (args.trace == 1)
        if args.trace == 1:
            enough = enough and len(traced) >= 2
        if enough and time.monotonic() + _median(durations) > deadline:
            break

    notes = [f"repetitions: {len(untraced)} untraced, {len(traced)} traced "
             f"in {time.monotonic() - started:.1f} s"]
    if args.trace == 0:
        for rep in untraced:
            speed = speed_factor(rep["reference_s"])
            rep["wall_ref_s"] = rep["wall_s"] * speed
            rep["cpu_ref_s"] = rep["cpu_s"] * speed
        metrics = {
            name: _median([rep[name] for rep in untraced])
            for name in E2E_UNITS
        }
        units = E2E_UNITS
        for name in (*E2E_UNITS, "wall_s", "cpu_s", "reference_s"):
            values = [rep[name] for rep in untraced]
            notes.append(
                f"{name} ({E2E_UNITS.get(name, 's')}): median "
                f"{_median(values):.4f} min {min(values):.4f} "
                f"max {max(values):.4f}; samples "
                + " ".join(f"{value:.4f}" for value in values)
            )
    else:
        untraced_wall = _median([rep["wall_s"] for rep in untraced])
        per_rep = [
            layer_metrics(rep["trace"], rep["wall_s"], untraced_wall,
                          rep["jobs"])
            for rep in traced
        ]
        metrics = {
            name: _median([values[name] for values in per_rep])
            for name in LAYER_METRICS
        }
        units = LAYER_METRICS
        traced_wall = _median([rep["wall_s"] for rep in traced])
        notes.append(f"tracing overhead: traced wall {traced_wall:.3f} s vs "
                     f"untraced {untraced_wall:.3f} s "
                     f"({metrics['tracer.overhead_frac']:+.1%})")
        missing = traced[0]["trace"]["missing"]
        notes.append("missing entry points: " + (", ".join(missing) or "none"))
        notes.extend(_hot_boundaries(traced[0]["trace"]))
    if headline is not None:
        label, paper = PAPER_HEADLINES[args.workload]
        notes.append(f"{label}: simulated {headline:+.1%}, paper {paper:+.0%} "
                     "(information only)")
    return (
        {name: {"value": metrics[name], "unit": units[name]}
         for name in units},
        notes,
    )


def _hot_boundaries(trace: dict, count: int = 5) -> list[str]:
    """The boundaries with the most self time, each with its main caller."""
    callers: dict[str, tuple[int, str]] = {}
    for edge, calls in trace["edges"].items():
        parent, child = edge.split(">")
        if calls > callers.get(child, (0, ""))[0]:
            callers[child] = (calls, parent or "(root)")
    rows = sorted(trace["boundaries"].items(),
                  key=lambda item: item[1]["self_s"], reverse=True)
    return [
        f"self {row['self_s']:.3f} s in {row['calls']} calls: {name} "
        f"(mostly from {callers.get(name, (0, '?'))[1]})"
        for name, row in rows[:count]
        if row["calls"]
    ]


def _environment() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    load = " ".join(f"{value:.2f}" for value in os.getloadavg())
    return (f"python {platform.python_version()} numpy {numpy_version} "
            f"nproc {os.cpu_count()} loadavg {load}")


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def record(seed: int, workdir: Path) -> None:
    """Re-record every workload's digests for ``seed``."""
    digests = _load_digests()
    for workload in WORKLOAD_NAMES:
        _, rep = spawn_rep(workdir / workload, "--workload", workload,
                           "--seed", str(seed))
        if rep["failures"]:
            raise RepError(f"{workload}: {rep['failures']} specs failed")
        group = digests.setdefault(workload, {})
        group[str(seed)] = {
            "artifact": rep["artifact"][:DIGEST_CHARS],
            "specs": _short(rep["specs"]),
        }
        print(f"recorded {workload} seed {seed}: {len(rep['specs'])} specs")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record digests.json for --seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.record:
            record(args.seed, workdir)
            return 0
        environment = _environment()
        expected = _load_digests().get(args.workload, {}).get(str(args.seed))
        gate = Gate(expected)
        metrics, notes = measure(args, workdir, gate)
    except (RepError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still owns a directory here

    print(f"perfbench: {args.workload} seed {args.seed}; {environment}")
    for note in notes:
        print(f"perfbench: {note}")
    gate_kind = "recorded digests" if gate.recorded else "first repetition"
    print(f"perfbench: failed_frac {gate.failed / gate.attempted:.4f} "
          f"({gate.failed}/{gate.attempted} spec runs; gate: {gate_kind})")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
