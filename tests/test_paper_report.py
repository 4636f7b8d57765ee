"""EXPERIMENTS.md generator tests (simulation-free via monkeypatching)."""

from repro.experiments import paper_report
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner


def fake_result(experiment_id):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"title of {experiment_id}",
        headers=["a", "b"],
        rows=[["x", 1.1]],
        summary={"geomean": 1.1, "best_key": "x", "best_improvement": 0.1},
    )


class TestGeneration:
    def _generate(self, tmp_path, monkeypatch, ids):
        monkeypatch.setattr(
            paper_report,
            "run_experiment",
            lambda experiment_id, runner: fake_result(experiment_id),
        )
        runner = ExperimentRunner(scale=128, multi_requests=10, single_requests=10)
        output = tmp_path / "EXPERIMENTS.md"
        text = paper_report.generate_experiments_md(
            runner, output, experiment_ids=ids
        )
        return output, text

    def test_writes_file(self, tmp_path, monkeypatch):
        output, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert output.read_text() == text
        assert "# EXPERIMENTS" in text

    def test_includes_paper_claim_and_measured(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert "paper: MDM vs PoM IPC" in text
        assert "measured:" in text
        assert "+10.0% avg" in text

    def test_shape_annotation(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert "shape holds" in text

    def test_extension_marked(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["ext-rsm-pom"])
        assert "extension beyond the paper" in text

    def test_store_populated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            paper_report,
            "run_experiment",
            lambda experiment_id, runner: fake_result(experiment_id),
        )
        runner = ExperimentRunner(scale=128, multi_requests=10, single_requests=10)
        store = tmp_path / "store"
        paper_report.generate_experiments_md(
            runner, tmp_path / "E.md", store=store, experiment_ids=["fig5"]
        )
        assert [path.name for path in store.iterdir()] == ["fig5.json"]

    def test_scale_recorded_in_header(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert "scale=1/128" in text


class TestRunStats:
    def test_cell_memory_hits_are_reported(self):
        # The second call of the same cell is served from the cell memo,
        # and the counter precedes the executed count on the stats line.
        runner = ExperimentRunner(
            scale=128, multi_requests=300, single_requests=300
        )
        runner.workload_metrics("w16", "pom")
        runner.workload_metrics("w16", "pom")
        assert runner.run_stats()["metrics_memory_hits"] == 1
        executed = runner.executor.executed
        assert executed == 4  # the mix and three distinct references
        assert paper_report.format_run_stats(runner).endswith(
            f"cell memory hits=1; simulations executed: {executed}"
        )

    def test_peak_rss_is_positive_here(self):
        assert paper_report.peak_rss_mb() > 0
