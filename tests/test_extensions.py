"""Extension-experiment driver tests with a stubbed runner."""

from repro.experiments.accumulators import CellMetrics, StreamedMetricsSweep
from repro.experiments.extensions import (
    run_policy_matrix,
    run_random_mixes,
    run_rsm_pom,
)
from repro.sim.metrics import WorkloadMetrics


def _metrics(policy, unfairness, speedup):
    return WorkloadMetrics(
        policy=policy,
        program_names=("a", "b", "c", "d"),
        slowdowns=(unfairness, 2.0, 2.0, 2.0),
        weighted_speedup=speedup,
        unfairness=unfairness,
        energy_efficiency=1e6,
        average_read_latency=100.0,
        swap_fraction=0.02,
    )


#: Canned relative quality: guidance alone helps fairness, MDM helps
#: performance, ProFess both.
QUALITY = {
    "static": (5.0, 0.8),
    "cameo": (4.5, 0.9),
    "silcfm": (4.4, 0.95),
    "mempod": (4.6, 0.85),
    "pom": (4.0, 1.0),
    "rsm-pom": (3.5, 1.02),
    "mdm": (3.8, 1.1),
    "profess": (3.3, 1.12),
}


class StubRunner:
    scale = 128
    seed = 0
    policy_specs = None

    def run_cells(self, cells):
        wave = StreamedMetricsSweep()
        for cell_id, _programs, policy, _config in cells:
            # Composed specs ("mdm+stc:lfu") fall back to their base
            # name's canned quality.
            unfairness, speedup = QUALITY.get(policy) or QUALITY[
                policy.split("+")[0]
            ]
            wave.cells[cell_id] = CellMetrics(
                metrics=_metrics(policy, unfairness, speedup),
                total_swaps=3,
                stc_hit_rate=0.9,
            )
        return wave


class TestRSMPoMDecomposition:
    def test_rows_cover_policies_and_workloads(self):
        result = run_rsm_pom(StubRunner())
        policies = {row[1] for row in result.rows}
        assert policies == {"rsm-pom", "mdm", "profess"}
        assert len(result.rows) == 9  # 3 workloads x 3 policies

    def test_summary_shows_decomposition(self):
        result = run_rsm_pom(StubRunner())
        summary = result.summary
        # Guidance improves fairness more than MDM alone; ProFess most.
        assert (
            summary["profess geomean unfairness vs PoM"]
            < summary["rsm-pom geomean unfairness vs PoM"]
            < 1.0
        )
        assert summary["mdm geomean weighted speedup vs PoM"] > 1.0


class TestPolicyMatrix:
    def test_cross_product_covers_all_axes(self):
        result = run_policy_matrix(StubRunner())
        policies = [row[0] for row in result.rows]
        bases = {row[1] for row in result.rows}
        stcs = [row[3] for row in result.rows]
        # 6 bases x guidance (2 guided bases) x 2 STC replacements.
        assert len(result.rows) == 16
        assert bases == {"static", "cameo", "pom", "silcfm", "mempod", "mdm"}
        # Guided compositions canonicalize to their registered names.
        assert "profess" in policies
        assert "rsm-pom" in policies
        assert "profess+stc:lfu" in policies
        assert "mdm+stc:lfu" in policies
        assert stcs.count("lru") == 8 and stcs.count("lfu") == 8

    def test_summary_rolls_up_each_axis(self):
        result = run_policy_matrix(StubRunner())
        assert "geomean WS [base=mdm]" in result.summary
        assert "geomean WS [guidance=rsm]" in result.summary
        assert "geomean WS [stc=lfu]" in result.summary

    def test_policy_specs_restrict_the_sweep(self):
        runner = StubRunner()
        runner.policy_specs = ("pom", "profess+stc:lfu")
        result = run_policy_matrix(runner)
        assert [row[0] for row in result.rows] == ["pom", "profess+stc:lfu"]


class TestRandomMixes:
    def test_counts_and_summary(self):
        result = run_random_mixes(StubRunner(), count=4)
        assert len(result.rows) == 4
        assert result.summary["geomean unfairness ratio"] < 1.0
        assert result.summary["geomean weighted-speedup ratio"] > 1.0
