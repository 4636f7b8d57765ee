"""Table 4: RSM sampling-accuracy estimates.

For bwaves, milc, and omnetpp running alone, measure across all sampling
periods: the mean per-region request-count deviation (sigma_req), the
standard deviation of raw SF_A estimates, and that of the exponentially
smoothed SF_A estimates, for sampling periods of 64K, 128K, and 256K
requests (scaled by the runner's capacity divisor).  The paper's shape:
sigma falls as M_samp grows, and smoothing cuts the SF_A deviation by
several times (milc at 128K: 13% raw vs 3.3% averaged).
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.config import RSMConfig
from repro.common.stats import mean, stddev
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner

PROGRAMS = ("bwaves", "milc", "omnetpp")
PAPER_M_SAMP = (64 * 1024, 128 * 1024, 256 * 1024)


def run(runner: ExperimentRunner) -> ExperimentResult:
    """Reproduce Table 4 at simulation scale."""
    base = runner.single_config()
    specs = {}
    for program in PROGRAMS:
        for paper_m_samp in PAPER_M_SAMP:
            m_samp = max(paper_m_samp // runner.scale, 256)
            config = replace(
                base, rsm=RSMConfig(m_samp=m_samp, alpha=base.rsm.alpha)
            )
            specs[program, paper_m_samp] = runner.spec_single(
                program, "pom", config=config, track_rsm_regions=True
            )
    results = runner.run_specs(specs.values()).raise_on_failure()
    rows = []
    summary = {}
    for (program, paper_m_samp), spec in specs.items():
        m_samp = spec.config.rsm.m_samp
        result = results[spec.cache_key()]
        samples = [s for s in result.extra["rsm_history"] if s.program == 0]
        sigma_req = [s.sigma_req for s in samples if s.sigma_req is not None]
        raw = [s.raw_sf_a for s in samples if s.raw_sf_a is not None]
        smoothed = [s.smoothed_sf_a for s in samples]
        if len(raw) < 2 or len(smoothed) < 2:
            rows.append(
                [program, paper_m_samp // 1024, m_samp, None, None, None]
            )
            continue
        rows.append(
            [
                program,
                paper_m_samp // 1024,
                m_samp,
                100 * mean(sigma_req) if sigma_req else float("nan"),
                100 * stddev(raw),
                100 * stddev(smoothed),
            ]
        )
    # Shape checks the paper emphasizes.
    by_program: dict[str, list] = {}
    for row in rows:
        by_program.setdefault(row[0], []).append(row)
    for program, program_rows in by_program.items():
        sigmas = [r[3] for r in program_rows if r[3] is not None]
        if len(sigmas) == len(PAPER_M_SAMP):
            summary[f"{program} sigma_req falls with M_samp"] = (
                sigmas[0] >= sigmas[-1]
            )
        pairs = [
            (r[4], r[5]) for r in program_rows if r[4] is not None
        ]
        if pairs:
            summary[f"{program} smoothing reduces sigma"] = all(
                smoothed <= raw + 1e-9 for raw, smoothed in pairs
            )
    return ExperimentResult(
        experiment_id="table4",
        title="RSM sampling accuracy (Table 4)",
        headers=[
            "program",
            "paper M_samp (K)",
            "scaled M_samp",
            "mean sigma_req (%)",
            "sigma raw SF_A (%)",
            "sigma avg SF_A (%)",
        ],
        rows=rows,
        summary=summary,
    )
