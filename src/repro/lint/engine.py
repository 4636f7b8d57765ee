"""Infrastructure for the ``repro.lint`` static-analysis pass.

The engine owns everything that is not a rule: file discovery, module
naming, the two-pass project index (class/base/slots/exception
information that rules resolve across files), ``# repro: noqa``
suppression handling, and finding selection.  The rules themselves live
in :mod:`repro.lint.rules`.

Entry points:

* :func:`lint_paths` — lint files or directory trees on disk.
* :func:`lint_sources` — lint in-memory sources under explicit module
  names (what the fixture tests use).
"""

from __future__ import annotations

import ast
import io
import re
import subprocess
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.common.errors import ReproError
from repro.lint.hotpath import (
    HOT_BATCH_FUNCTIONS,
    HOT_CLASSES,
    HOT_FUNCTIONS,
)


class LintError(ReproError):
    """A lint invocation could not run (bad paths, bad rule selection)."""


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    ``end_line`` is the last line of the offending statement (0 when
    unknown); a ``# repro: noqa`` anywhere on the statement's lines
    suppresses the finding, so multi-line statements can carry the
    comment on any of their physical lines.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    end_line: int = 0

    def render(self) -> str:
        """The one-line human-readable form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """The machine-readable (``--format=json``) form."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(slots=True)
class ClassInfo:
    """What the cross-file index records about one class definition."""

    module: str
    qualname: str
    #: Base-class expressions resolved to dotted names where possible.
    bases: tuple[str, ...]
    #: Explicit ``__slots__`` names, or dataclass field names under
    #: ``@dataclass(slots=True)``; None when the class is unslotted.
    slots: Optional[tuple[str, ...]]
    #: True when ``slots`` is authoritative (an explicit literal tuple or
    #: a slots dataclass); False when ``__slots__`` exists but could not
    #: be parsed statically.
    slots_exact: bool

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass(slots=True)
class ModuleInfo:
    """Per-module facts shared by the rules."""

    module: str
    path: str
    tree: ast.Module
    source: str
    #: Local name -> dotted target for every import in the module.
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: Qualified names of every function/method defined in the module.
    functions: set[str] = field(default_factory=set)


class ProjectIndex:
    """Cross-file class/exception/slots knowledge for one lint run."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._repro_error_cache: dict[str, bool] = {}

    # ------------------------------------------------------------------
    def add_module(self, info: ModuleInfo) -> None:
        self.modules[info.module] = info
        for cls in info.classes.values():
            self.classes[cls.qualified] = cls

    # ------------------------------------------------------------------
    def derives_from_repro_error(self, qualified: str) -> bool:
        """Whether the indexed class reaches ``ReproError`` via bases."""
        cached = self._repro_error_cache.get(qualified)
        if cached is not None:
            return cached
        self._repro_error_cache[qualified] = False  # cycle guard
        result = self._walk_repro_error(qualified, set())
        self._repro_error_cache[qualified] = result
        return result

    def _walk_repro_error(self, qualified: str, seen: set[str]) -> bool:
        if qualified in seen:
            return False
        seen.add(qualified)
        cls = self.classes.get(qualified)
        if cls is None:
            # Unindexed (external) base: only the canonical root counts.
            return qualified.rsplit(".", 1)[-1] == "ReproError"
        for base in cls.bases:
            if base.rsplit(".", 1)[-1] == "ReproError":
                return True
            if self._walk_repro_error(base, seen):
                return True
        return False

    # ------------------------------------------------------------------
    def slots_union(self, qualified: str) -> Optional[frozenset[str]]:
        """Every legal instance attribute of a fully slotted class.

        Returns None when the attribute set cannot be known exactly —
        the class (or an ancestor) is unslotted, has an unparseable
        ``__slots__``, or an ancestor is outside the linted tree — in
        which case H202 stays silent for the class.
        """
        names: set[str] = set()
        stack = [qualified]
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                return None  # external ancestor: unknown attribute set
            if cls.slots is None or not cls.slots_exact:
                return None
            names.update(cls.slots)
            stack.extend(cls.bases)
        return frozenset(names)


# ----------------------------------------------------------------------
# Source scanning: imports, classes, suppressions
# ----------------------------------------------------------------------
def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_dotted(module: ModuleInfo, node: ast.expr) -> Optional[str]:
    """Resolve a Name/Attribute chain through the module's imports.

    ``np.random.default_rng`` becomes ``numpy.random.default_rng`` when
    the module did ``import numpy as np``; unimported heads resolve to
    themselves (locals, builtins).
    """
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = module.imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _literal_str_tuple(node: ast.expr) -> tuple[Optional[tuple[str, ...]], bool]:
    """Parse a ``__slots__`` value; (names, exact)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,), True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        names = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None, False
            names.append(element.value)
        return tuple(names), True
    return None, False


def _dataclass_slots(node: ast.ClassDef, module: ModuleInfo) -> Optional[bool]:
    """None when not a dataclass; else whether ``slots=True`` was passed."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call is not None else decorator
        resolved = resolve_dotted(module, target)
        if resolved in ("dataclasses.dataclass", "dataclass"):
            if call is not None:
                for keyword in call.keywords:
                    if keyword.arg == "slots":
                        value = keyword.value
                        return (
                            isinstance(value, ast.Constant)
                            and value.value is True
                        )
            return False
    return None


def _dataclass_field_names(node: ast.ClassDef) -> tuple[str, ...]:
    names = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            names.append(statement.target.id)
    return tuple(names)


def _collect_classes(module: ModuleInfo) -> None:
    """Record every class (and function qualname) defined in the module."""

    def visit(body: Sequence[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}"
                # Bases resolve through imports here; bare names that
                # turn out to be local classes are qualified in the
                # second pass below (they may be defined later).
                bases = [
                    resolved
                    for resolved in (
                        resolve_dotted(module, base) for base in node.bases
                    )
                    if resolved is not None
                ]
                slots: Optional[tuple[str, ...]] = None
                exact = False
                dc_slots = _dataclass_slots(node, module)
                if dc_slots:
                    slots = _dataclass_field_names(node)
                    exact = True
                for statement in node.body:
                    if (
                        isinstance(statement, ast.Assign)
                        and len(statement.targets) == 1
                        and isinstance(statement.targets[0], ast.Name)
                        and statement.targets[0].id == "__slots__"
                    ):
                        slots, exact = _literal_str_tuple(statement.value)
                        if slots is None:
                            slots, exact = (), False
                module.classes[qualname] = ClassInfo(
                    module=module.module,
                    qualname=qualname,
                    bases=tuple(bases),
                    slots=slots,
                    slots_exact=exact,
                )
                visit(node.body, f"{qualname}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{module.module}.{prefix}{node.name}"
                module.functions.add(qualified)
                visit(node.body, f"{prefix}{node.name}.")

    visit(module.tree.body, "")
    # Second pass over bases: qualify bare names that name local classes.
    local = set(module.classes)
    for cls in module.classes.values():
        cls.bases = tuple(
            f"{module.module}.{base}" if base in local else base
            for base in cls.bases
        )


_NOQA_LINE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)
_NOQA_FILE = re.compile(
    r"#\s*repro:\s*noqa-file\[(?P<rules>[A-Za-z0-9_,\s]+)\]"
)


@dataclass(slots=True)
class Suppressions:
    """Parsed ``# repro: noqa`` state for one file.

    ``suppressed`` records which comments actually matched a finding, so
    the engine can report stale suppressions afterwards (rule W001,
    ``--show-unused-noqa``).
    """

    #: line -> None (blanket) or set of rule ids.
    lines: dict[int, Optional[frozenset[str]]]
    #: Rule id suppressed for the whole file -> lineno of its comment.
    file_rules: dict[str, int]
    #: Keys of comments that matched at least one finding: line numbers
    #: for line comments, ``("file", rule)`` for file-level ones.
    used: set[object] = field(default_factory=set)

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_rules:
            self.used.add(("file", finding.rule))
            return True
        last = max(finding.line, finding.end_line or 0)
        for lineno in range(finding.line, last + 1):
            rules = self.lines.get(lineno, _NO_ENTRY)
            if rules is _NO_ENTRY:
                continue
            if rules is None or finding.rule in rules:  # type: ignore[operator]
                self.used.add(lineno)
                return True
        return False

    def unused(self) -> list[tuple[int, str]]:
        """``(lineno, description)`` for comments that matched nothing."""
        stale: list[tuple[int, str]] = []
        for lineno in self.lines:
            if lineno in self.used:
                continue
            rules = self.lines[lineno]
            description = (
                "blanket `# repro: noqa`"
                if rules is None
                else f"`# repro: noqa[{','.join(sorted(rules))}]`"
            )
            stale.append((lineno, description))
        for rule, lineno in self.file_rules.items():
            if ("file", rule) not in self.used:
                stale.append((lineno, f"`# repro: noqa-file[{rule}]`"))
        stale.sort()
        return stale


#: Sentinel distinguishing "no noqa on this line" from a blanket (None).
_NO_ENTRY: object = object()


def _comment_lines(source: str) -> list[tuple[int, str]]:
    """``(lineno, comment_text)`` for every real comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps the marker
    inert inside string literals and docstrings — documentation *about*
    ``# repro: noqa`` must neither suppress anything nor show up as a
    stale suppression under W001.
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError, ValueError):
        # Unparseable file (E999 territory): fall back to raw lines so a
        # noqa near the damage still behaves predictably.
        return [
            (lineno, text)
            for lineno, text in enumerate(source.splitlines(), start=1)
            if "#" in text
        ]


def parse_suppressions(source: str) -> Suppressions:
    """Scan a file's comments for line and file-level suppressions."""
    lines: dict[int, Optional[frozenset[str]]] = {}
    file_rules: dict[str, int] = {}
    for lineno, text in _comment_lines(source):
        file_match = _NOQA_FILE.search(text)
        if file_match is not None:
            for rule in file_match.group("rules").split(","):
                if rule.strip():
                    file_rules.setdefault(rule.strip(), lineno)
            continue
        match = _NOQA_LINE.search(text)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            lines[lineno] = None
        else:
            rules = frozenset(r.strip() for r in raw.split(",") if r.strip())
            previous = lines.get(lineno)
            if previous is None and lineno in lines:
                continue  # blanket already recorded
            lines[lineno] = (
                rules if previous is None else frozenset(previous | rules)
            )
    return Suppressions(lines=lines, file_rules=file_rules)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def _parse_rule_list(raw: Optional[str]) -> Optional[tuple[str, ...]]:
    if raw is None:
        return None
    entries = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not entries:
        return None
    return entries


def rule_selected(
    rule: str,
    select: Optional[tuple[str, ...]],
    ignore: Optional[tuple[str, ...]],
) -> bool:
    """ruff-style prefix selection: ``--select D --ignore D104``."""
    if select is not None and not any(rule.startswith(s) for s in select):
        return False
    if ignore is not None and any(rule.startswith(s) for s in ignore):
        return False
    return True


# ----------------------------------------------------------------------
# Module naming and discovery
# ----------------------------------------------------------------------
def module_name_for(path: Path) -> str:
    """Dotted module name from package ``__init__.py`` nesting."""
    parts: list[str] = []
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if path.name != "__init__.py":
        parts.append(path.stem)
    return ".".join(parts) if parts else path.stem


def discover_files(
    paths: Sequence[Path], exclude: Sequence[Path] = ()
) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``exclude`` prunes whole subtrees (or single files) from the result —
    the CI lint job uses it to keep the deliberately-broken lint
    fixtures out of a ``tests/`` sweep.
    """
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            files.add(path)
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")
    if exclude:
        roots = [e.resolve() for e in exclude]
        files = {
            f
            for f in files
            if not any(
                f.resolve() == root or root in f.resolve().parents
                for root in roots
            )
        }
    return sorted(files)


def changed_files(paths: Sequence[Path]) -> list[Path]:
    """``.py`` files changed vs HEAD (staged, unstaged, and untracked).

    Used by ``profess lint --changed`` (the pre-commit hook); returns
    the intersection with the requested ``paths``.
    """
    try:
        output = subprocess.run(
            # -uall: list files inside untracked directories (the default
            # collapses them to "pkg/", which hides the .py files).
            ["git", "status", "--porcelain", "--untracked-files=all"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        raise LintError(f"--changed requires a git checkout: {error}") from error
    candidates: list[Path] = []
    for line in output.splitlines():
        if len(line) < 4 or line[:2] == "D " or line[:2] == " D":
            continue
        name = line[3:].split(" -> ")[-1].strip().strip('"')
        if name.endswith(".py"):
            candidates.append(Path(name))
    scope = {file.resolve() for file in discover_files(paths)}
    return sorted(c for c in candidates if c.resolve() in scope)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def _build_module(module: str, path: str, source: str) -> ModuleInfo:
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(module=module, path=path, tree=tree, source=source)
    info.imports = _collect_imports(tree)
    _collect_classes(info)
    return info


def lint_sources(
    sources: dict[str, tuple[str, str]],
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    hot_classes: Optional[frozenset[str]] = None,
    hot_functions: Optional[frozenset[str]] = None,
    batch_functions: Optional[frozenset[str]] = None,
    show_unused_noqa: bool = False,
) -> list[Finding]:
    """Lint in-memory sources: ``{module: (display_path, source)}``."""
    from repro.lint.rules import check_manifest, check_module

    select_rules = _parse_rule_list(select)
    ignore_rules = _parse_rule_list(ignore)
    hot_classes = HOT_CLASSES if hot_classes is None else hot_classes
    hot_functions = HOT_FUNCTIONS if hot_functions is None else hot_functions
    batch_functions = (
        HOT_BATCH_FUNCTIONS if batch_functions is None else batch_functions
    )

    index = ProjectIndex()
    infos: list[ModuleInfo] = []
    findings: list[Finding] = []
    for module, (path, source) in sorted(sources.items()):
        try:
            info = _build_module(module, path, source)
        except SyntaxError as error:
            findings.append(
                Finding(
                    rule="E999",
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1),
                    message=f"syntax error: {error.msg}",
                )
            )
            continue
        infos.append(info)
        index.add_module(info)

    raw: list[Finding] = []
    for info in infos:
        raw.extend(
            check_module(
                info, index, hot_classes, hot_functions, batch_functions
            )
        )
    # Batch functions are (by construction) also hot functions, but the
    # union keeps H200 honest for custom manifests where they diverge.
    raw.extend(
        check_manifest(index, hot_classes, hot_functions | batch_functions)
    )

    # Apply suppressions uniformly, by finding path, then report stale
    # comments (W001) — those never self-suppress.
    suppressions = {info.path: parse_suppressions(info.source) for info in infos}
    for finding in raw:
        file_suppressions = suppressions.get(finding.path)
        if file_suppressions is None or not file_suppressions.suppressed(
            finding
        ):
            findings.append(finding)
    if show_unused_noqa:
        for info in infos:
            for lineno, description in suppressions[info.path].unused():
                findings.append(
                    Finding(
                        rule="W001",
                        path=info.path,
                        line=lineno,
                        col=1,
                        message=f"unused suppression {description}: no "
                        "finding matches it any more; delete the comment",
                    )
                )

    findings = [
        f
        for f in findings
        if rule_selected(f.rule, select_rules, ignore_rules)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(
    paths: Sequence[Path],
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    changed_only: bool = False,
    exclude: Sequence[Path] = (),
    show_unused_noqa: bool = False,
) -> list[Finding]:
    """Lint files or trees on disk; the ``profess lint`` entry point."""
    files = (
        changed_files(paths)
        if changed_only
        else discover_files(paths, exclude=exclude)
    )
    if changed_only and exclude:
        roots = [e.resolve() for e in exclude]
        files = [
            f
            for f in files
            if not any(
                f.resolve() == root or root in f.resolve().parents
                for root in roots
            )
        ]
    sources: dict[str, tuple[str, str]] = {}
    for file in files:
        module = module_name_for(file)
        # Duplicate module names (e.g. two loose scripts both named
        # conftest) get disambiguated by path so neither is dropped.
        key = module if module not in sources else f"{module}:{file}"
        sources[key] = (str(file), file.read_text(encoding="utf-8"))
    return lint_sources(
        sources,
        select=select,
        ignore=ignore,
        show_unused_noqa=show_unused_noqa,
    )


# ----------------------------------------------------------------------
# SARIF (GitHub code scanning) rendering
# ----------------------------------------------------------------------
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(findings: Sequence[Finding]) -> dict[str, object]:
    """SARIF 2.1.0 payload for ``profess lint --format sarif``."""
    from repro.lint.rules import RULES

    results: list[dict[str, object]] = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "version": "2.1.0",
        "$schema": _SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "profess-lint",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": description},
                            }
                            for rule, description in sorted(RULES.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
