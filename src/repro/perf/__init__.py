"""Kernel performance instrumentation and benchmarking.

The simulator's value scales with simulated requests per wall-second;
this package is the layer that measures it: :class:`KernelProfile`
accumulates throughput counters for one or more runs, and
:mod:`repro.perf.bench` defines the
standard kernel benchmark behind ``profess perf`` / ``BENCH_kernel.json``.
"""

from repro.perf.profile import KernelProfile
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    KernelBenchResult,
    compare_to_baseline,
    compatibility_warnings,
    markdown_summary,
    run_kernel_benchmark,
    standard_scenarios,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "KernelBenchResult",
    "KernelProfile",
    "compare_to_baseline",
    "compatibility_warnings",
    "markdown_summary",
    "run_kernel_benchmark",
    "standard_scenarios",
]
