"""The lowest supported Python is named in four places; they agree.

``requires-python`` in ``pyproject.toml`` (and the tracked
``src/repro.egg-info/PKG-INFO`` built from it), mypy's
``python_version``, and the lowest leg of every CI Python matrix.  The
floor is 3.10 because ``@dataclass(slots=True)`` needs it.  The configs
are read as text, as in ``test_strict_packages.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
FLOOR = "3.10"


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_pyproject_requires_the_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^requires-python = "(.*)"$', pyproject, re.M) == [
        f">={FLOOR}"
    ]


def test_tracked_package_metadata_requires_the_floor():
    pkg_info = (ROOT / "src" / "repro.egg-info" / "PKG-INFO").read_text(
        encoding="utf-8"
    )
    assert re.findall(r"^Requires-Python: (.*)$", pkg_info, re.M) == [
        f">={FLOOR}"
    ]


def test_mypy_checks_the_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^python_version = "(.*)"$', pyproject, re.M) == [
        FLOOR
    ]


def test_every_ci_matrix_starts_at_the_floor():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    matrices = re.findall(r"python-version: \[([^\]]*)\]", ci)
    assert matrices
    for matrix in matrices:
        legs = re.findall(r'"([\d.]+)"', matrix)
        assert min(legs, key=_version) == FLOOR
