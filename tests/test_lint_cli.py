"""CLI surface tests: SARIF output, ``--exclude``, ``--show-unused-noqa``,
and the git-state matrix behind ``profess lint --changed``."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro import cli
from repro.lint import lint_paths
from repro.lint.engine import changed_files

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _sim_module(tmp_path: Path, fixture: str) -> Path:
    """Copy a fixture into a ``repro.sim`` package so scoped rules apply
    when the file is linted by path (module names come from __init__.py
    nesting, and the loose fixture directory is not a package)."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    target = pkg / "engine.py"
    target.write_text(
        (FIXTURES / f"{fixture}.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    return target


class TestSarif:
    """SARIF output, on D103 under ``repro.sim`` (a module-scoped rule, so
    the fixture must be linted inside a ``repro.sim`` package)."""

    def test_cli_emits_valid_sarif(self, tmp_path, capsys):
        target = _sim_module(tmp_path, "d103_bad")
        code = cli.main(
            ["lint", str(target), "--select", "D103", "--format", "sarif"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "profess-lint"
        results = run["results"]
        # time.time, datetime.now, os.urandom, the alias, the from-import
        # reference and the helper's clock read
        assert [r["ruleId"] for r in results] == ["D103"] * 6
        for result in results:
            (location,) = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == str(target)
            assert physical["region"]["startLine"] >= 1
        # Every reported ruleId is described in the driver's rule table.
        described = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in results} <= described

    def test_clean_input_sarif_exits_0(self, tmp_path, capsys):
        target = _sim_module(tmp_path, "d103_good")
        code = cli.main(["lint", str(target), "--format", "sarif"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []


class TestExclude:
    def test_exclude_prunes_subtree(self, tmp_path):
        good = tmp_path / "ok.py"
        good.write_text("VALUE = 1\n", encoding="utf-8")
        bad_dir = tmp_path / "fixtures"
        bad_dir.mkdir()
        (bad_dir / "bad.py").write_text("import random\n", encoding="utf-8")
        assert lint_paths([tmp_path], select="D101")
        assert lint_paths([tmp_path], select="D101", exclude=[bad_dir]) == []

    def test_exclude_single_file_via_cli(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n", encoding="utf-8")
        code = cli.main(
            [
                "lint",
                str(tmp_path),
                "--select",
                "D101",
                "--exclude",
                str(tmp_path / "bad.py"),
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestShowUnusedNoqa:
    def test_cli_flag_surfaces_w001(self, capsys):
        path = str(FIXTURES / "w001_bad.py")
        assert cli.main(["lint", path]) == 0
        capsys.readouterr()
        code = cli.main(["lint", path, "--show-unused-noqa"])
        assert code == 1
        assert "W001" in capsys.readouterr().out

    def test_used_noqa_not_reported(self, capsys):
        code = cli.main(
            ["lint", str(FIXTURES / "noqa_line.py"), "--show-unused-noqa"]
        )
        assert code == 0
        capsys.readouterr()


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=lint@test", "-c", "user.name=lint", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def git_repo(tmp_path, monkeypatch):
    _git(tmp_path, "init", "-q")
    committed = tmp_path / "committed.py"
    committed.write_text("A = 1\n", encoding="utf-8")
    _git(tmp_path, "add", "committed.py")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestChanged:
    """--changed picks up staged, unstaged, and untracked .py files."""

    def test_clean_tree_reports_nothing(self, git_repo):
        assert changed_files([Path(".")]) == []

    def test_unstaged_modification_is_included(self, git_repo):
        (git_repo / "committed.py").write_text("A = 2\n", encoding="utf-8")
        assert [p.name for p in changed_files([Path(".")])] == ["committed.py"]

    def test_staged_modification_is_included(self, git_repo):
        (git_repo / "committed.py").write_text("A = 3\n", encoding="utf-8")
        _git(git_repo, "add", "committed.py")
        assert [p.name for p in changed_files([Path(".")])] == ["committed.py"]

    def test_untracked_file_is_included(self, git_repo):
        (git_repo / "fresh.py").write_text("B = 1\n", encoding="utf-8")
        assert [p.name for p in changed_files([Path(".")])] == ["fresh.py"]

    def test_staged_delete_is_skipped(self, git_repo):
        _git(git_repo, "rm", "-q", "committed.py")
        assert changed_files([Path(".")]) == []

    def test_non_python_changes_are_skipped(self, git_repo):
        (git_repo / "notes.txt").write_text("hi\n", encoding="utf-8")
        assert changed_files([Path(".")]) == []

    def test_scope_intersection(self, git_repo):
        sub = git_repo / "pkg"
        sub.mkdir()
        (sub / "inside.py").write_text("C = 1\n", encoding="utf-8")
        (git_repo / "outside.py").write_text("D = 1\n", encoding="utf-8")
        names = [p.name for p in changed_files([Path("pkg")])]
        assert names == ["inside.py"]

    def test_lint_paths_changed_only_lints_the_diff(self, git_repo):
        (git_repo / "fresh.py").write_text(
            "import random\n", encoding="utf-8"
        )
        findings = lint_paths(
            [Path(".")], select="D101", changed_only=True
        )
        assert [f.rule for f in findings] == ["D101"]
        # committed.py (clean in git) is not even read.
        assert all("fresh.py" in f.path for f in findings)

    def test_changed_respects_exclude(self, git_repo):
        (git_repo / "fresh.py").write_text(
            "import random\n", encoding="utf-8"
        )
        findings = lint_paths(
            [Path(".")],
            select="D101",
            changed_only=True,
            exclude=[Path("fresh.py")],
        )
        assert findings == []
