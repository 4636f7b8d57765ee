"""Examples stay importable (full runs are exercised manually; each
example guards its work behind ``if __name__ == "__main__"``)."""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parent.parent.glob("examples/*.py")
)


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main"), f"{path.stem} must expose main()"


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "fairness_study",
        "custom_policy",
        "capacity_sweep",
    } <= names
