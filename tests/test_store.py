"""Result persistence and paper-report tests."""

import json

from repro.experiments.base import ExperimentResult
from repro.experiments.paper_report import EXPECTATIONS
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.store import save_result


def sample_result():
    return ExperimentResult(
        experiment_id="fig5",
        title="test",
        headers=["program", "ratio"],
        rows=[["lbm", 1.38], ["omnetpp", 0.985]],
        summary={"geomean": 1.14, "best_key": "lbm", "best_improvement": 0.38},
        notes="note",
    )


def saved_payload(result, directory):
    return json.loads(save_result(result, directory).read_text())


class TestStore:
    def test_roundtrip(self, tmp_path):
        payload = saved_payload(sample_result(), tmp_path)
        assert payload["experiment_id"] == "fig5"
        assert payload["rows"][0] == ["lbm", 1.38]
        assert payload["summary"]["geomean"] == 1.14
        assert payload["notes"] == "note"

    def test_store_by_id(self, tmp_path):
        path = save_result(sample_result(), tmp_path / "results")
        assert path == tmp_path / "results" / "fig5.json"
        assert json.loads(path.read_text())["title"] == "test"

    def test_non_jsonable_values_stringified(self, tmp_path):
        result = sample_result()
        result.summary["obj"] = object()
        assert isinstance(saved_payload(result, tmp_path)["summary"]["obj"], str)


class TestExpectations:
    def test_every_paper_artifact_has_expectation(self):
        paper_ids = {
            experiment_id
            for experiment_id in EXPERIMENTS
            if not experiment_id.startswith(("ablation", "ext"))
        }
        assert paper_ids <= set(EXPECTATIONS)

    def test_measured_extractors_run(self):
        expectation = EXPECTATIONS["fig5"]
        text = expectation.measured(sample_result())
        assert "+14" in text and "lbm" in text

    def test_shape_check_fig5(self):
        assert EXPECTATIONS["fig5"].shape_holds(sample_result())

    def test_shape_check_fails_below_one(self):
        bad = sample_result()
        bad.summary["geomean"] = 0.9
        assert not EXPECTATIONS["fig5"].shape_holds(bad)
