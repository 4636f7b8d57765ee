"""Cache-key soundness analysis (rules K401/K402/K403).

The disk :class:`~repro.exec.cache.ResultCache` is only sound if every
field that can change a simulation's outcome is part of the content
hash.  A field excluded from :meth:`SystemConfig.cache_token` /
:meth:`RunSpec.cache_key` but consulted on a simulation path silently
serves stale results — the worst failure mode a result cache has.

This whole-project pass turns that contract into machine-checked rules:

* **K401** — a *key class* field excluded from the token walk is read
  somewhere in the project and is not on the class's explicit
  ``_CACHE_NEUTRAL_FIELDS`` allowlist.  Each finding carries a trace:
  field declaration → the token method that excludes it → the read site.
* **K402** — a stale ``_CACHE_NEUTRAL_FIELDS`` entry: it names no field,
  or names a field the walk already covers.  Allowlists must shrink when
  the exclusion they document goes away.
* **K403** — an impure operation (I/O, environment, clocks, RNG,
  ``global``) is reachable from token computation.  Tokens must be pure
  functions of the spec's field values.

A *key class* is any indexed class that defines ``cache_token()`` or
``cache_key()``.  Coverage is derived statically: a call to
``canonical_value(self)`` / ``canonical_digest(self)`` / ``asdict(self)``
covers every dataclass field, each ``del value["name"]`` (conditional or
not) excludes one, and otherwise the covered set is exactly the
``self.<field>`` reads inside the method.  The allowlist contract is
documented in DESIGN.md §16.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.engine import (
    ClassInfo,
    Finding,
    ModuleInfo,
    ProjectIndex,
    TraceStep,
    _literal_str_tuple,
    resolve_dotted,
)
from repro.lint.rules import _CLOCK_CALLS

KEY_METHODS = ("cache_token", "cache_key")
ALLOWLIST_NAME = "_CACHE_NEUTRAL_FIELDS"

#: Calls that walk every dataclass field of their argument.
_FIELD_WALKERS = frozenset({"canonical_value", "canonical_digest", "asdict"})

#: Untyped base names the K401 read scan treats as "probably a key
#: class" when exactly one key class has the field being read.
_FALLBACK_NAMES = frozenset({"config", "cfg", "spec"})

#: Impure callables: reaching one from token computation is K403.
_IMPURE_EXACT = frozenset(
    {
        "open",
        "input",
        "print",
        "eval",
        "exec",
        "os.system",
        "os.popen",
        "os.urandom",
        "os.getrandom",
        "os.getenv",
        "os.putenv",
        "os.remove",
        "os.unlink",
        "os.rename",
        "os.mkdir",
        "os.makedirs",
    }
) | frozenset(_CLOCK_CALLS)
_IMPURE_PREFIXES = (
    "os.environ",
    "subprocess.",
    "socket.",
    "shutil.",
    "random.",
    "numpy.random.",
    "np.random.",
    "secrets.",
)

#: Cap on the hops a K403 trace records.
_MAX_CHAIN = 8


@dataclass(slots=True)
class _KeyClass:
    """One class defining ``cache_token()``/``cache_key()``, analyzed."""

    cls: ClassInfo
    info: ModuleInfo
    token: ast.FunctionDef
    covered: frozenset[str] = frozenset()
    excluded: frozenset[str] = frozenset()
    allowlist: frozenset[str] = frozenset()
    allowlist_line: Optional[int] = None
    #: excluded minus allowlist: reads of these are K401.
    unprotected: frozenset[str] = frozenset()
    field_lines: dict[str, int] = field(default_factory=dict)

    @property
    def bare_name(self) -> str:
        return self.cls.qualname.rsplit(".", 1)[-1]


def _is_impure(resolved: str) -> bool:
    return resolved in _IMPURE_EXACT or any(
        resolved.startswith(prefix) for prefix in _IMPURE_PREFIXES
    )


# ----------------------------------------------------------------------
# Key-class discovery and coverage analysis
# ----------------------------------------------------------------------
def _find_key_classes(index: ProjectIndex) -> list[_KeyClass]:
    result: list[_KeyClass] = []
    for qualified in sorted(index.classes):
        cls = index.classes[qualified]
        if cls.node is None or not cls.fields:
            continue
        info = index.modules.get(cls.module)
        if info is None:
            continue
        token: Optional[ast.FunctionDef] = None
        for statement in cls.node.body:
            if (
                isinstance(statement, ast.FunctionDef)
                and statement.name in KEY_METHODS
            ):
                token = statement
                break
        if token is None:
            continue
        result.append(_analyze(cls, info, token))
    return result


def _analyze(cls: ClassInfo, info: ModuleInfo, token: ast.FunctionDef) -> _KeyClass:
    fields = set(cls.fields)
    walks_all = False
    reads: set[str] = set()
    dels: set[str] = set()
    for node in ast.walk(token):
        if isinstance(node, ast.Call):
            resolved = resolve_dotted(info, node.func)
            if (
                resolved is not None
                and resolved.rsplit(".", 1)[-1] in _FIELD_WALKERS
                and any(
                    isinstance(arg, ast.Name) and arg.id == "self"
                    for arg in node.args
                )
            ):
                walks_all = True
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
            and node.attr in fields
        ):
            reads.add(node.attr)
        elif isinstance(node, ast.Delete):
            # ``del value["axes"]`` excludes a field from the walk even
            # when conditional — a sometimes-missing field is excluded
            # for soundness purposes.
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    dels.add(target.slice.value)
    covered = (fields - dels) if walks_all else (reads - dels)
    excluded = fields - covered

    allowlist: set[str] = set()
    allowlist_line: Optional[int] = None
    for statement in cls.node.body if cls.node is not None else []:
        if (
            isinstance(statement, ast.Assign)
            and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and statement.targets[0].id == ALLOWLIST_NAME
        ):
            names, _ = _literal_str_tuple(statement.value)
            if names is not None:
                allowlist = set(names)
            allowlist_line = statement.lineno

    field_lines: dict[str, int] = {}
    for statement in cls.node.body if cls.node is not None else []:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            field_lines[statement.target.id] = statement.lineno

    return _KeyClass(
        cls=cls,
        info=info,
        token=token,
        covered=frozenset(covered),
        excluded=frozenset(excluded),
        allowlist=frozenset(allowlist),
        allowlist_line=allowlist_line,
        unprotected=frozenset(excluded - allowlist),
        field_lines=field_lines,
    )


# ----------------------------------------------------------------------
# K402: stale allowlist entries
# ----------------------------------------------------------------------
def _check_allowlist(key_class: _KeyClass) -> list[Finding]:
    if key_class.allowlist_line is None:
        return []
    findings: list[Finding] = []
    fields = set(key_class.cls.fields)
    for entry in sorted(key_class.allowlist):
        if entry not in fields:
            reason = "names no dataclass field"
        elif entry in key_class.covered:
            reason = (
                f"is already covered by {key_class.token.name}()'s walk"
            )
        else:
            continue
        findings.append(
            Finding(
                rule="K402",
                path=key_class.info.path,
                line=key_class.allowlist_line,
                col=1,
                message=(
                    f"stale {ALLOWLIST_NAME} entry {entry!r} on "
                    f"{key_class.cls.qualname}: it {reason}; delete the "
                    "entry so the allowlist stays an exact record of "
                    "reviewed exclusions"
                ),
                end_line=key_class.allowlist_line,
            )
        )
    return findings


# ----------------------------------------------------------------------
# K401: reads of excluded, un-allowlisted fields
# ----------------------------------------------------------------------
class _ReadScanner(ast.NodeVisitor):
    """Find typed reads of watched key-class fields in one module."""

    def __init__(
        self,
        info: ModuleInfo,
        key_classes: list[_KeyClass],
        lookup: dict[str, _KeyClass],
        field_type_map: dict[str, _KeyClass],
        findings: list[Finding],
    ) -> None:
        self.info = info
        self.key_classes = key_classes
        self.lookup = lookup
        self.field_type_map = field_type_map
        self.findings = findings
        self.watched = {
            name for kc in key_classes for name in kc.unprotected
        }
        self.env_stack: list[dict[str, _KeyClass]] = [{}]
        #: Lexical ranges of key classes defined in this module — reads
        #: inside a key class's own body are its implementation, not a
        #: cache hazard.
        self.skip_ranges = [
            (kc.cls.node.lineno, kc.cls.node.end_lineno or kc.cls.node.lineno)
            for kc in key_classes
            if kc.cls.module == info.module and kc.cls.node is not None
        ]

    # -- typing environment --------------------------------------------
    def _annotation_class(
        self, annotation: Optional[ast.expr]
    ) -> Optional[_KeyClass]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            dotted: Optional[str] = annotation.value
        elif isinstance(annotation, (ast.Name, ast.Attribute)):
            dotted = resolve_dotted(self.info, annotation)
        else:
            dotted = None
        if dotted is None:
            return None
        return self.lookup.get(dotted) or self.lookup.get(
            dotted.rsplit(".", 1)[-1]
        )

    def _enter_function(self, node: ast.FunctionDef) -> None:
        env: dict[str, _KeyClass] = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            key_class = self._annotation_class(arg.annotation)
            if key_class is not None:
                env[arg.arg] = key_class
        self.env_stack.append(env)
        self.generic_visit(node)
        self.env_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)  # type: ignore[arg-type]

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # ``spec: RunSpec = ...`` inside a function types the local.
        if isinstance(node.target, ast.Name):
            key_class = self._annotation_class(node.annotation)
            if key_class is not None:
                self.env_stack[-1][node.target.id] = key_class
        self.generic_visit(node)

    # -- read detection ------------------------------------------------
    def _base_class(self, expr: ast.expr) -> Optional[_KeyClass]:
        if isinstance(expr, ast.Name):
            for env in reversed(self.env_stack):
                if expr.id in env:
                    return env[expr.id]
            return None
        if isinstance(expr, ast.Attribute):
            # ``spec.config.<field>``: any attribute named like a field
            # annotated as a key class resolves to that class.
            return self.field_type_map.get(expr.attr)
        return None

    def _skipped(self, node: ast.Attribute) -> bool:
        return any(
            start <= node.lineno <= end for start, end in self.skip_ranges
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.attr in self.watched
            and not self._skipped(node)
        ):
            key_class = self._base_class(node.value)
            if key_class is None and isinstance(node.value, ast.Name):
                if node.value.id in _FALLBACK_NAMES:
                    candidates = [
                        kc
                        for kc in self.key_classes
                        if node.attr in kc.unprotected
                    ]
                    if len(candidates) == 1:
                        key_class = candidates[0]
            if key_class is not None and node.attr in key_class.unprotected:
                self._record(key_class, node)
        self.generic_visit(node)

    def _record(self, key_class: _KeyClass, node: ast.Attribute) -> None:
        field_line = key_class.field_lines.get(
            node.attr, key_class.cls.lineno
        )
        self.findings.append(
            Finding(
                rule="K401",
                path=self.info.path,
                line=node.lineno,
                col=node.col_offset + 1,
                message=(
                    f"'{key_class.cls.qualname}.{node.attr}' is excluded "
                    f"from {key_class.token.name}()'s cache walk but read "
                    "here; include it in the walk or add it to "
                    f"{ALLOWLIST_NAME} with a review note"
                ),
                end_line=node.end_lineno or node.lineno,
                trace=(
                    TraceStep(
                        key_class.info.path,
                        field_line,
                        f"field {node.attr!r} declared here",
                    ),
                    TraceStep(
                        key_class.info.path,
                        key_class.token.lineno,
                        f"{key_class.token.name}() excludes it from the "
                        "cache walk",
                    ),
                    TraceStep(
                        self.info.path,
                        node.lineno,
                        "timing-relevant read not on the allowlist",
                    ),
                ),
            )
        )


def _scan_reads(
    index: ProjectIndex, key_classes: list[_KeyClass]
) -> list[Finding]:
    watched = [kc for kc in key_classes if kc.unprotected]
    if not watched:
        return []
    lookup: dict[str, _KeyClass] = {}
    for kc in key_classes:
        lookup.setdefault(kc.cls.qualified, kc)
        lookup.setdefault(kc.cls.qualname, kc)
        lookup.setdefault(kc.bare_name, kc)
    # Field name -> key class, for annotation chains like
    # ``RunSpec.config: SystemConfig`` making every ``*.config.<field>``
    # read a SystemConfig read.
    field_type_map: dict[str, _KeyClass] = {}
    for qualified in sorted(index.classes):
        cls = index.classes[qualified]
        for name, annotation in cls.fields.items():
            if annotation is None:
                continue
            target = lookup.get(annotation) or lookup.get(
                annotation.rsplit(".", 1)[-1]
            )
            if target is not None:
                field_type_map.setdefault(name, target)
    findings: list[Finding] = []
    for module_name in sorted(index.modules):
        info = index.modules[module_name]
        scanner = _ReadScanner(
            info, watched, lookup, field_type_map, findings
        )
        scanner.visit(info.tree)
    return findings


# ----------------------------------------------------------------------
# K403: purity of everything reachable from token computation
# ----------------------------------------------------------------------
def _class_prefix_of(info: ModuleInfo, qualified: str) -> Optional[str]:
    local = qualified[len(info.module) + 1 :]
    if "." not in local:
        return None
    prefix = local.rsplit(".", 1)[0]
    return prefix if prefix in info.classes else None


def _check_purity(
    key_class: _KeyClass,
    index: ProjectIndex,
    function_map: dict[str, tuple[ModuleInfo, ast.FunctionDef]],
) -> list[Finding]:
    findings: list[Finding] = []
    emitted: set[tuple[str, int]] = set()
    start = (
        f"{key_class.cls.module}.{key_class.cls.qualname}."
        f"{key_class.token.name}"
    )
    queue: deque[tuple[str, tuple[TraceStep, ...]]] = deque([(start, ())])
    seen = {start}
    while queue:
        qualified, chain = queue.popleft()
        entry = function_map.get(qualified)
        if entry is None:
            continue
        info, node = entry
        owner_prefix = _class_prefix_of(info, qualified)
        owner = (
            info.classes.get(owner_prefix) if owner_prefix is not None else None
        )
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                keyword = (
                    "global" if isinstance(sub, ast.Global) else "nonlocal"
                )
                _emit_impure(
                    findings,
                    emitted,
                    key_class,
                    info,
                    sub,
                    chain,
                    f"`{keyword}` statement",
                )
            elif isinstance(sub, ast.Call):
                for resolved in _call_targets(
                    index, info, sub, owner_prefix, owner
                ):
                    if isinstance(resolved, str):
                        if _is_impure(resolved):
                            _emit_impure(
                                findings,
                                emitted,
                                key_class,
                                info,
                                sub,
                                chain,
                                f"call to {resolved}()",
                            )
                        continue
                    # (qualified-name, display-name) callee to walk into.
                    callee, display = resolved
                    if callee in seen or callee not in function_map:
                        continue
                    seen.add(callee)
                    step = TraceStep(
                        info.path, sub.lineno, f"calls {display}()"
                    )
                    next_chain = (
                        chain + (step,) if len(chain) < _MAX_CHAIN else chain
                    )
                    queue.append((callee, next_chain))
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                dotted = resolve_dotted(info, sub)
                if dotted == "os.environ":
                    _emit_impure(
                        findings,
                        emitted,
                        key_class,
                        info,
                        sub,
                        chain,
                        "os.environ read",
                    )
    return findings


def _call_targets(
    index: ProjectIndex,
    info: ModuleInfo,
    call: ast.Call,
    owner_prefix: Optional[str],
    owner: Optional[ClassInfo],
) -> list[object]:
    """Resolve one call: impure names (str) and callees to walk (tuple)."""
    func = call.func
    out: list[object] = []
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            if owner_prefix is not None:
                out.append(
                    (
                        f"{info.module}.{owner_prefix}.{func.attr}",
                        f"self.{func.attr}",
                    )
                )
            return out
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in ("self", "cls")
        and owner is not None
    ):
        # self.<field>.<method>(): resolve through the field annotation.
        annotation = owner.fields.get(func.value.attr)
        if annotation is not None:
            target = index.classes.get(annotation) or index.classes.get(
                f"{info.module}.{annotation}"
            )
            if target is not None:
                out.append(
                    (
                        f"{target.module}.{target.qualname}.{func.attr}",
                        f"self.{func.value.attr}.{func.attr}",
                    )
                )
        return out
    if isinstance(func, (ast.Name, ast.Attribute)):
        resolved = resolve_dotted(info, func)
        if resolved is None:
            return out
        if _is_impure(resolved):
            out.append(resolved)
            return out
        candidates = (
            [resolved, f"{info.module}.{resolved}"]
            if "." not in resolved
            else [resolved]
        )
        display = resolved.rsplit(".", 1)[-1]
        for candidate in candidates:
            out.append((candidate, display))
            target = index.classes.get(candidate)
            if target is not None:
                # Constructor call: walk __init__/__post_init__.
                for method in ("__init__", "__post_init__"):
                    out.append(
                        (
                            f"{candidate}.{method}",
                            f"{display}.{method}",
                        )
                    )
    return out


def _emit_impure(
    findings: list[Finding],
    emitted: set[tuple[str, int]],
    key_class: _KeyClass,
    info: ModuleInfo,
    node: ast.AST,
    chain: tuple[TraceStep, ...],
    description: str,
) -> None:
    line = getattr(node, "lineno", 1)
    key = (info.path, line)
    if key in emitted:
        return
    emitted.add(key)
    end_line = getattr(node, "end_lineno", None) or line
    if hasattr(node, "body"):
        end_line = line
    findings.append(
        Finding(
            rule="K403",
            path=info.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=(
                f"impure operation ({description}) is reachable from "
                f"{key_class.cls.qualname}.{key_class.token.name}(); "
                "cache-token computation must be a pure function of "
                "field values"
            ),
            end_line=end_line,
            trace=(
                TraceStep(
                    key_class.info.path,
                    key_class.token.lineno,
                    f"{key_class.token.name}() defined here",
                ),
            )
            + chain
            + (TraceStep(info.path, line, f"impure: {description}"),),
        )
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_keys(index: ProjectIndex) -> list[Finding]:
    """Run the K4xx cache-key soundness analysis over the project."""
    key_classes = _find_key_classes(index)
    if not key_classes:
        return []
    function_map: dict[str, tuple[ModuleInfo, ast.FunctionDef]] = {}
    for module_name in sorted(index.modules):
        info = index.modules[module_name]
        for qualified, node in info.function_nodes.items():
            function_map[qualified] = (info, node)
    findings: list[Finding] = []
    for key_class in key_classes:
        findings.extend(_check_allowlist(key_class))
        findings.extend(_check_purity(key_class, index, function_map))
    findings.extend(_scan_reads(index, key_classes))
    return findings
