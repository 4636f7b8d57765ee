"""One benchmark repetition, in a fresh interpreter.

Run by ``perfbench/run.py``; prints one JSON object on its last line::

    python3 perfbench/rep.py --workload fig14-quad --seed 0 \\
        --workdir .perfbench_work/run-1/rep-0 [--cpu 0] [--trace]

``submit_at`` is the ``time.monotonic()`` reading when the first spec is
submitted (setup ends there); ``wall_s`` and ``cpu_s`` cover the timed
run only, ``cpu_s`` including reaped pool workers.  ``reference_s`` is
the reference loop's time on the CPUs the run used (see
:mod:`perfbench.calibrate`; untraced repetitions only).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    )


def _confine_frames(workdir: Path) -> None:
    """Keep the pooled sweep's result frames inside the work directory
    (a no-op once the frame transport is gone)."""
    try:
        from repro.exec import transport
    except ImportError:
        return
    if hasattr(transport, "shm_root"):
        frames = workdir / "frames"
        frames.mkdir(parents=True, exist_ok=True)
        transport.shm_root = lambda: str(frames)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int,
                        help="pin the repetition to this CPU (serial runs)")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        spill = args.workdir / "spill"
        spill.mkdir(exist_ok=True)
        tracer = Tracer(spill_dir=spill)
        tracer.install()

    from perfbench import workloads

    _confine_frames(args.workdir)
    prepare, _why = workloads.WORKLOADS[args.workload]
    prepared = prepare(args.seed, args.workdir)

    submit_at = time.monotonic()
    cpu_start = _cpu_seconds()
    started = time.perf_counter()
    artifact = prepared.run()
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu_start

    trace = None
    if tracer is not None:
        from perfbench.tracer import merge, spilled

        tracer.uninstall()
        trace = merge([tracer.snapshot(), *spilled(tracer.spill_dir)])
    outcome = prepared.finish(artifact)
    reference = None
    if tracer is None:
        from perfbench import calibrate

        reference = (
            calibrate.reference_seconds()
            if args.cpu is not None
            else calibrate.parallel_reference_seconds(
                sorted(os.sched_getaffinity(0))
            )
        )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "submit_at": submit_at,
                "wall_s": wall,
                "cpu_s": cpu,
                "peak_rss_mb": peak_kib / 1024.0,
                "reference_s": reference,
                "jobs": prepared.jobs,
                "artifact": outcome.artifact,
                "specs": outcome.specs,
                "failures": outcome.failures,
                "attempted": outcome.attempted,
                "headline": outcome.headline,
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
