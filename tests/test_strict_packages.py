"""The strict-typing package list is named in four places; they agree.

C304 (``ANNOTATED_PACKAGES`` in ``repro/lint/rules.py``) demands full
annotations on public functions, and mypy runs strict on the same
packages from three configs: the CI lint job, the pre-commit hook and
``[[tool.mypy.overrides]]`` in ``pyproject.toml``.  The configs are
read as text: Python 3.10 has no ``tomllib``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint.rules import ANNOTATED_PACKAGES

ROOT = Path(__file__).parent.parent


def _section(text: str, start: str, end: str) -> str:
    """``text`` from the first ``start`` up to the next ``end`` after it."""
    head = text.index(start)
    tail = text.find(end, head + len(start))
    return text[head:] if tail < 0 else text[head:tail]


def _mypy_flags(section: str) -> set[str]:
    return set(re.findall(r"-p\s+([\w.]+)", section))


def test_ci_mypy_step_matches():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    step = _section(ci, "name: mypy", "- name:")
    assert _mypy_flags(step) == set(ANNOTATED_PACKAGES)


def test_pre_commit_mypy_hook_matches():
    config = (ROOT / ".pre-commit-config.yaml").read_text(encoding="utf-8")
    hook = _section(config, "id: mypy", "- id:")
    assert _mypy_flags(hook) == set(ANNOTATED_PACKAGES)


def test_pyproject_mypy_overrides_match():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    overrides = _section(pyproject, "[[tool.mypy.overrides]]", "\n[")
    modules = _section(overrides, "module = [", "]")
    assert set(re.findall(r'"([\w.]+)\.\*"', modules)) == set(
        ANNOTATED_PACKAGES
    )
