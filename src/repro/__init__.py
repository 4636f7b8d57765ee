"""repro — a reproduction of *ProFess: A Probabilistic Hybrid Main Memory
Management Framework for High Performance and Fairness* (HPCA 2018).

The package implements the paper's full system in Python: a flat
migrating DRAM+NVM hybrid memory with the PoM organization, the baseline
migration policies of Table 2 (CAMEO, PoM, SILC-FM, MemPod), and the
paper's contribution — the probabilistic Migration-Decision Mechanism
(MDM), the Relative-Slowdown Monitor (RSM), and their integration,
ProFess — together with a trace-driven multicore simulator, synthetic
SPEC CPU2006 workloads, and experiment drivers regenerating every table
and figure of the evaluation.

Quick start::

    from repro import ExperimentRunner

    runner = ExperimentRunner(scale=128, multi_requests=20_000)
    metrics = runner.workload_metrics("w09", "profess")
    print(metrics.unfairness, metrics.weighted_speedup)
"""

from repro.common.config import (
    SystemConfig,
    paper_quad_core,
    paper_single_core,
)
from repro.core.mdm import MDMPolicy
from repro.core.profess import ProFessPolicy
from repro.core.rsm import RSM
from repro.cpu.trace import Trace
from repro.exec import Executor, ResultCache, RunSpec
from repro.experiments.runner import ExperimentRunner
from repro.policies.registry import (
    PolicySpec,
    build_policy,
    canonical_policy,
)
from repro.sim.engine import SimulationDriver
from repro.sim.metrics import (
    WorkloadMetrics,
    slowdown,
    unfairness,
    weighted_speedup,
)
from repro.traces.generator import synthesize_trace
from repro.workloads import PROGRAMS, WORKLOADS

__version__ = "1.0.0"

__all__ = [
    "ExperimentRunner",
    "Executor",
    "MDMPolicy",
    "PROGRAMS",
    "PolicySpec",
    "ProFessPolicy",
    "RSM",
    "ResultCache",
    "RunSpec",
    "SimulationDriver",
    "SystemConfig",
    "Trace",
    "WORKLOADS",
    "WorkloadMetrics",
    "build_policy",
    "canonical_policy",
    "paper_quad_core",
    "paper_single_core",
    "slowdown",
    "synthesize_trace",
    "unfairness",
    "weighted_speedup",
    "__version__",
]
