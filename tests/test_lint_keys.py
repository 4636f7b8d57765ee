"""Unit tests for the cache-key soundness checker (K4xx).

The acceptance contract for the rule family: deleting a field from a
``cache_token()`` walk without recording it on ``_CACHE_NEUTRAL_FIELDS``
must produce a K401 finding whose trace names the uncovered read site.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.lint import Finding, lint_sources

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _lint(
    name: str,
    module: str = "repro.sim.fixture",
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    extra: Optional[dict[str, str]] = None,
) -> list[Finding]:
    path = FIXTURES / f"{name}.py"
    sources = {module: (str(path), path.read_text(encoding="utf-8"))}
    if extra:
        for mod, text in extra.items():
            sources[mod] = (f"<{mod}>", text)
    return lint_sources(
        sources,
        select=select,
        ignore=ignore,
        hot_classes=frozenset(),
        hot_functions=frozenset(),
        batch_functions=frozenset(),
    )


class TestK401:
    def test_deleted_field_read_is_reported_with_trace(self):
        # The acceptance check: drop a field from the token walk, read
        # it elsewhere — K401 must point at the read site by name.
        (finding,) = _lint("k401_bad", select="K401")
        assert finding.rule == "K401"
        assert "debug_level" in finding.message
        assert "cache_token" in finding.message
        assert finding.line == 24  # the `config.debug_level` read
        notes = [step.note for step in finding.trace]
        assert any("declared" in note for note in notes)
        assert any("excludes" in note for note in notes)

    def test_allowlisted_exclusion_is_silent(self):
        assert _lint("k401_good", select="K401") == []

    def test_trace_lines_are_positive_and_pathed(self):
        (finding,) = _lint("k401_bad", select="K401")
        assert finding.trace
        for step in finding.trace:
            assert step.line >= 1
            assert step.path.endswith(".py")

    def test_render_trace_includes_steps(self):
        (finding,) = _lint("k401_bad", select="K401")
        rendered = finding.render_trace()
        assert rendered.startswith(finding.render())
        for step in finding.trace:
            assert step.note in rendered

    def test_read_in_other_module_is_still_found(self):
        # K401 is a whole-project pass: the key class and the read may
        # live in different modules.
        reader = (
            "def consume(config: 'MiniConfig'):\n"
            "    return config.debug_level\n"
        )
        findings = _lint(
            "k401_good",
            select="K401",
            extra={"repro.sim.other": reader},
        )
        # k401_good allowlists debug_level, so even the remote read is
        # fine; drop the allowlist (k401_bad) and it is not.
        assert findings == []
        findings = _lint(
            "k401_bad",
            select="K401",
            extra={"repro.sim.other": reader},
        )
        assert len(findings) == 2  # both read sites reported


class TestK402:
    def test_stale_entries_fire_once_each(self):
        findings = _lint("k402_bad", select="K402")
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "ghost" in messages  # names no dataclass field
        assert "size" in messages  # covered by the walk already

    def test_exact_allowlist_is_silent(self):
        assert _lint("k402_good", select="K402") == []


class TestK403:
    def test_impure_helper_reachable_from_token(self):
        findings = _lint("k403_bad", select="K403")
        assert findings
        assert any("os.environ" in f.message for f in findings)
        for finding in findings:
            assert "cache_token" in finding.message

    def test_pure_fold_is_silent(self):
        assert _lint("k403_good", select="K403") == []

    def test_ignore_k_family_silences_all(self):
        assert _lint("k403_bad", select="K", ignore="K") == []
