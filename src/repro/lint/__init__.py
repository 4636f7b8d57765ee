"""Project-specific static analysis (``profess lint``).

An AST-based pass over the ``repro`` tree enforcing the guarantees the
test suite can only spot-check at runtime: determinism (D-rules),
hot-path slimness (H-rules, driven by the :mod:`repro.lint.hotpath`
manifest) and API contracts (C-rules).  See DESIGN.md §11.  Cache-key
soundness needs no rule: ``RunSpec.cache_key()`` digests every field
except those named in ``RunSpec._CACHE_NEUTRAL_FIELDS`` (DESIGN.md §16).
"""

from repro.lint.engine import (
    Finding,
    LintError,
    lint_paths,
    lint_sources,
    render_sarif,
)
from repro.lint.hotpath import HOT_CLASSES, HOT_FUNCTIONS
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintError",
    "HOT_CLASSES",
    "HOT_FUNCTIONS",
    "RULES",
    "lint_paths",
    "lint_sources",
    "render_sarif",
]
