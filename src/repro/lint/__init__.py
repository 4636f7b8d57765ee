"""Project-specific static analysis (``profess lint``).

An AST-based pass over the ``repro`` tree enforcing the guarantees the
test suite can only spot-check at runtime: determinism (D-rules),
hot-path slimness (H-rules, driven by the :mod:`repro.lint.hotpath`
manifest), API contracts (C-rules), and cache-key soundness (K4xx, the
one whole-project pass).  See DESIGN.md §11 and §16.
"""

from repro.lint.engine import (
    Finding,
    LintError,
    TraceStep,
    lint_paths,
    lint_sources,
    render_sarif,
)
from repro.lint.hotpath import HOT_CLASSES, HOT_FUNCTIONS
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintError",
    "TraceStep",
    "HOT_CLASSES",
    "HOT_FUNCTIONS",
    "RULES",
    "lint_paths",
    "lint_sources",
    "render_sarif",
]
