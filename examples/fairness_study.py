"""Fairness study: how RSM steers migration decisions.

Reproduces the paper's Figure 16 story on one workload: per-program
slowdowns under PoM, MDM alone, and ProFess, plus a look inside RSM —
the slowdown factors SF_A and SF_B it computes per program and the
Table 7 case counts showing how often each guidance rule fired.

Run with::

    python examples/fairness_study.py [workload]
"""

import sys

from repro import ExperimentRunner
from repro.workloads import WORKLOADS


def main(workload: str = "w19") -> None:
    runner = ExperimentRunner(
        scale=128, multi_requests=12_000, single_requests=12_000
    )
    programs = WORKLOADS[workload]
    print(f"Workload {workload}: {' + '.join(programs)}\n")

    # Fetch the ProFess run first: the runner memoizes it, and its cell
    # below reuses it (a cell keeps only metrics, never the mix run).
    profess_run = runner.execute(runner.spec_workload(workload, "profess"))
    metrics = {}
    for policy in ("pom", "mdm", "profess"):
        print(f"running {policy}...")
        metrics[policy] = runner.workload_metrics(workload, policy)

    print(f"\n{'program':12}{'pom':>8}{'mdm':>8}{'profess':>9}")
    for index, program in enumerate(programs):
        print(
            f"{program:12}"
            f"{metrics['pom'].slowdowns[index]:8.2f}"
            f"{metrics['mdm'].slowdowns[index]:8.2f}"
            f"{metrics['profess'].slowdowns[index]:9.2f}"
        )
    print(
        f"{'max':12}"
        + "".join(
            f"{metrics[p].unfairness:{w}.2f}"
            for p, w in (("pom", 8), ("mdm", 8), ("profess", 9))
        )
    )

    # Look inside ProFess: final slowdown factors and case counts.
    stats = profess_run.policy_stats
    history = profess_run.extra["rsm_history"]
    print("\nRSM slowdown factors (last sample per program):")
    for core, program in enumerate(programs):
        samples = [s for s in history if s.program == core]
        if samples:
            last = samples[-1]
            print(
                f"  core {core} ({program:10}): "
                f"SF_A={last.smoothed_sf_a:6.3f}  "
                f"SF_B={last.smoothed_sf_b:6.3f}"
            )
    print("\nTable 7 decision-case counts:")
    for case, count in stats.case_counts.items():
        label = {
            "1": "case 1 (help c_M2: consider M1 vacant)",
            "2": "case 2 (protect c_M1: no swap)",
            "3": "case 3 (product rule: no swap)",
            "default": "default (plain MDM)",
            "same": "same owner / vacant M1 (plain MDM)",
        }[case]
        print(f"  {label:42} {count:8d}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "w19")
