"""The ``repro.lint`` meta-suite.

Three layers:

* every rule fires on its bad fixture and stays silent on its good one
  (``tests/lint_fixtures/``),
* the suppression / selection machinery behaves (``# repro: noqa``,
  ``--select`` / ``--ignore``),
* ``src/repro`` itself is lint-clean — the repo must always pass its own
  static analysis (this is what CI enforces via ``profess lint``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from repro import cli
from repro.lint import RULES, Finding, LintError, lint_paths, lint_sources

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"

NO_HOT = frozenset()


@dataclass(frozen=True)
class Case:
    """How to lint one rule's fixture pair."""

    #: Module name the fixture is linted under (rule scopes depend on it).
    module: str
    #: Hot-class manifest entries (qualnames, relative to ``module``).
    bad_classes: tuple[str, ...] = ()
    good_classes: tuple[str, ...] = ()
    #: Hot-function manifest entries (qualnames, relative to ``module``).
    bad_functions: tuple[str, ...] = ()
    good_functions: tuple[str, ...] = ()
    #: Batched tick-loop entries (H204; qualnames, relative to ``module``).
    bad_batch: tuple[str, ...] = ()
    good_batch: tuple[str, ...] = ()
    #: Lint with ``--show-unused-noqa`` (the W001 fixtures need it).
    show_unused: bool = False

    def manifests(self, kind: str) -> tuple[frozenset, frozenset, frozenset]:
        classes = self.bad_classes if kind == "bad" else self.good_classes
        functions = self.bad_functions if kind == "bad" else self.good_functions
        batch = self.bad_batch if kind == "bad" else self.good_batch
        return (
            frozenset(f"{self.module}.{name}" for name in classes),
            frozenset(f"{self.module}.{name}" for name in functions),
            frozenset(f"{self.module}.{name}" for name in batch),
        )


CASES: dict[str, Case] = {
    "D101": Case(module="repro.analysis.fixture"),
    "D102": Case(module="repro.analysis.fixture"),
    "D103": Case(module="repro.sim.fixture"),
    "D104": Case(module="repro.sim.fixture"),
    "D105": Case(module="repro.sim.fixture"),
    "H200": Case(
        module="repro.sim.fixture",
        bad_classes=("Missing",),
        good_classes=("Present",),
    ),
    "H201": Case(
        module="repro.sim.fixture",
        bad_classes=("HotThing",),
        good_classes=("HotThing",),
    ),
    "H202": Case(module="repro.sim.fixture"),
    "H203": Case(
        module="repro.sim.fixture",
        bad_functions=("Loop.run",),
        good_functions=("Loop.run",),
    ),
    "H204": Case(
        module="repro.mem.fixture",
        bad_batch=("Kernel.tick",),
        good_batch=("Kernel.tick",),
    ),
    "C301": Case(module="repro.analysis.fixture"),
    "C302": Case(module="repro.analysis.fixture"),
    "C303": Case(module="repro.analysis.fixture"),
    "C304": Case(module="repro.common.fixture"),
    "C305": Case(module="repro.experiments.fixture"),
    "C306": Case(module="repro.analysis.fixture"),
    "W001": Case(module="repro.analysis.fixture", show_unused=True),
    "E999": Case(module="repro.analysis.fixture"),
}


def lint_fixture(
    name: str,
    module: str,
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    hot_classes: frozenset = NO_HOT,
    hot_functions: frozenset = NO_HOT,
    batch_functions: frozenset = NO_HOT,
    show_unused_noqa: bool = False,
) -> list[Finding]:
    path = FIXTURES / f"{name}.py"
    return lint_sources(
        {module: (str(path), path.read_text(encoding="utf-8"))},
        select=select,
        ignore=ignore,
        hot_classes=hot_classes,
        hot_functions=hot_functions,
        batch_functions=batch_functions,
        show_unused_noqa=show_unused_noqa,
    )


def lint_case(rule: str, kind: str) -> list[Finding]:
    case = CASES[rule]
    hot_classes, hot_functions, batch_functions = case.manifests(kind)
    return lint_fixture(
        f"{rule.lower()}_{kind}",
        case.module,
        select=rule,
        hot_classes=hot_classes,
        hot_functions=hot_functions,
        batch_functions=batch_functions,
        show_unused_noqa=case.show_unused,
    )


class TestRegistry:
    def test_every_rule_has_a_case(self):
        assert set(CASES) == set(RULES)

    def test_every_case_has_fixture_files(self):
        for rule in RULES:
            assert (FIXTURES / f"{rule.lower()}_bad.py").exists(), rule
            if rule != "E999":  # a "good" parse failure cannot exist
                assert (FIXTURES / f"{rule.lower()}_good.py").exists(), rule


class TestRulesFire:
    """Each rule fires on its bad fixture and is silent on its good one."""

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_bad_fixture_fires(self, rule):
        findings = lint_case(rule, "bad")
        assert findings, f"{rule} did not fire on its bad fixture"
        assert all(f.rule == rule for f in findings)
        assert all(f.line >= 1 and f.col >= 1 for f in findings)

    @pytest.mark.parametrize("rule", sorted(set(RULES) - {"E999"}))
    def test_good_fixture_silent(self, rule):
        findings = lint_case(rule, "good")
        assert findings == [], (
            f"{rule} fired on its good fixture: "
            + "; ".join(f.render() for f in findings)
        )

    def test_bad_fixture_counts(self):
        # Spot-check multiplicity: every banned site is reported, not
        # just the first one per file.
        assert len(lint_case("D101", "bad")) == 2  # import + from-import
        # time, datetime, urandom; alias binding; from-import reference;
        # clock read inside a helper
        assert len(lint_case("D103", "bad")) == 6
        # for + comprehension over a set; two set-bound locals iterated
        assert len(lint_case("D104", "bad")) == 4
        assert len(lint_case("D105", "bad")) == 2  # subscript + dict key
        assert len(lint_case("H202", "bad")) == 2  # __init__ + method
        assert len(lint_case("H203", "bad")) == 3  # print, f-string, try
        # list + dict display, comprehension, lambda, nested def,
        # project class, partial
        assert len(lint_case("H204", "bad")) == 7
        assert len(lint_case("C302", "bad")) == 3  # list, dict, set
        assert len(lint_case("C303", "bad")) == 2  # local class + builtin
        assert len(lint_case("C306", "bad")) == 2  # plain + inside tuple


class TestSuppressions:
    def test_line_noqa_suppresses_named_rule(self):
        assert lint_fixture("noqa_line", "repro.analysis.fixture") == []

    def test_blanket_noqa_suppresses_everything_on_line(self):
        assert lint_fixture("noqa_blanket", "repro.analysis.fixture") == []

    def test_file_noqa_suppresses_rule_everywhere(self):
        assert lint_fixture("noqa_file", "repro.analysis.fixture") == []

    def test_wrong_rule_noqa_does_not_suppress(self):
        findings = lint_fixture("noqa_wrong_rule", "repro.analysis.fixture")
        assert [f.rule for f in findings] == ["D101"]

    def test_noqa_on_any_line_of_multiline_statement(self):
        # The call spans three physical lines; the comment sits on the
        # closing paren's line and must still suppress the finding.
        assert lint_fixture("noqa_multiline", "repro.sim.fixture") == []

    def test_marker_inside_string_literal_is_inert(self):
        # Documentation *about* the marker is not a suppression: it must
        # neither hide the finding nor count as stale under W001.
        source = 'import random; DOC = "# repro: noqa"\n'
        findings = lint_sources(
            {"repro.analysis.fixture": ("<inline>", source)},
            show_unused_noqa=True,
        )
        assert [f.rule for f in findings] == ["D101"]

    def test_unused_noqa_reported_only_on_request(self):
        silent = lint_fixture("w001_bad", "repro.analysis.fixture")
        assert silent == []
        reported = lint_fixture(
            "w001_bad", "repro.analysis.fixture", show_unused_noqa=True
        )
        assert [f.rule for f in reported] == ["W001"]


class TestSelection:
    def test_select_family_prefix(self):
        assert lint_fixture("d101_bad", "repro.analysis.fixture", select="D")
        assert (
            lint_fixture("d101_bad", "repro.analysis.fixture", select="C")
            == []
        )

    def test_ignore_specific_rule(self):
        assert (
            lint_fixture("d101_bad", "repro.analysis.fixture", ignore="D101")
            == []
        )

    def test_rng_module_is_exempt(self):
        # The one module allowed to import random: repro.common.rng.
        assert (
            lint_fixture("d101_bad", "repro.common.rng", select="D101") == []
        )

    def test_sim_rules_only_in_sim_scope(self):
        # The simulation scope spans repro.common and repro.policies but
        # not repro.perf, repro.exec or repro.analysis, where the same
        # clock reads and set iteration are legal.
        for rule in ("D103", "D104"):
            fixture = f"{rule.lower()}_bad"
            for package in ("common", "policies"):
                module = f"repro.{package}.fixture"
                assert lint_fixture(fixture, module, select=rule), module
            for package in ("perf", "exec", "analysis"):
                module = f"repro.{package}.fixture"
                assert lint_fixture(fixture, module, select=rule) == [], module


class TestFindingShape:
    def test_render_and_to_dict(self):
        finding = lint_case("C301", "bad")[0]
        assert finding.rule == "C301"
        rendered = finding.render()
        assert f":{finding.line}:" in rendered and "C301" in rendered
        payload = finding.to_dict()
        assert payload["rule"] == "C301"
        assert payload["path"].endswith("c301_bad.py")
        assert isinstance(payload["line"], int)


class TestCli:
    def test_findings_exit_1_and_json(self, capsys):
        code = cli.main(
            ["lint", str(FIXTURES / "c301_bad.py"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1
        assert any(f["rule"] == "C301" for f in payload["findings"])

    def test_clean_file_exits_0(self, capsys):
        code = cli.main(["lint", str(FIXTURES / "c301_good.py")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_select_filters_cli(self, capsys):
        code = cli.main(
            ["lint", str(FIXTURES / "c301_bad.py"), "--select", "D"]
        )
        assert code == 0
        capsys.readouterr()

    def test_missing_path_exits_2(self, capsys):
        code = cli.main(["lint", str(FIXTURES / "does_not_exist.py")])
        assert code == 2
        assert "lint:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_lint_error_from_api(self):
        with pytest.raises(LintError):
            lint_paths([FIXTURES / "does_not_exist.py"])


class TestRepoClean:
    def test_src_repro_is_lint_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "src/repro must stay lint-clean:\n" + "\n".join(
            f.render() for f in findings
        )

    def test_hot_path_manifest_resolves_in_src_repro(self):
        # H200 skips entries whose module was not linted, so an entry
        # naming a deleted module would linger unflagged.  Against an
        # index of the whole tree every entry must name a definition.
        from repro.lint.engine import _build_module, discover_files, module_name_for
        from repro.lint.hotpath import (
            HOT_BATCH_FUNCTIONS,
            HOT_CLASSES,
            HOT_FUNCTIONS,
        )

        modules = {}
        for path in discover_files([SRC]):
            info = _build_module(
                module_name_for(path), str(path), path.read_text(encoding="utf-8")
            )
            modules[info.module] = info
        unresolved = []
        for entry in sorted(HOT_CLASSES | HOT_FUNCTIONS | HOT_BATCH_FUNCTIONS):
            module, _, qualname = entry.rpartition(".")
            while module and module not in modules:
                module, _, head = module.rpartition(".")
                qualname = f"{head}.{qualname}"
            info = modules.get(module)
            if info is None or (
                qualname not in info.classes and entry not in info.functions
            ):
                unresolved.append(entry)
        assert unresolved == []

    def test_src_repro_has_no_stale_noqa(self):
        # Every suppression comment in the tree must still match a
        # finding — stale ones get deleted, not accumulated.
        findings = lint_paths([SRC], show_unused_noqa=True)
        assert findings == [], "stale noqa in src/repro:\n" + "\n".join(
            f.render() for f in findings
        )
