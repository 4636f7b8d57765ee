"""The project-specific rule families of ``repro.lint``.

Three families (DESIGN.md §11):

* **D — determinism.**  Protects the byte-identical golden guarantee
  (``tests/golden/``): no ad-hoc randomness outside
  :mod:`repro.common.rng`, no wall-clock reads in simulation modules, no
  iteration over hash-ordered containers on paths that feed results.
* **H — hot path.**  Protects the PR 2 kernel fast path: structs on the
  :mod:`repro.lint.hotpath` manifest stay slotted and slim, the inlined
  event loops stay free of formatting/logging/exception-handling.
* **C — contracts.**  API hygiene: no bare ``except``, no mutable
  default arguments, exceptions derive from
  :class:`~repro.common.errors.ReproError`, public ``repro.common`` /
  ``repro.hybrid`` / ``repro.lint`` functions carry full type hints.

Every rule is registered in :data:`RULES` with a one-line description
(``profess lint --list-rules``).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.engine import (
    ClassInfo,
    Finding,
    ModuleInfo,
    ProjectIndex,
    resolve_dotted,
)

#: Rule id -> one-line description (the authoritative rule registry).
RULES: dict[str, str] = {
    "D101": "import of the stdlib `random` module outside repro.common.rng",
    "D102": "numpy.random use outside repro.common.rng (seeded substreams only)",
    "D103": "wall-clock/entropy source (time.time, datetime.now, "
    "os.urandom, uuid) called or referenced in a simulation module",
    "D104": "iteration over a set (literal, constructor, or a local bound "
    "to one) in a simulation module (hash order leaks into results)",
    "D105": "dict subscript or key built from id() in a simulation module "
    "(address-dependent state)",
    "H200": "hot-path manifest entry does not resolve to a definition",
    "H201": "class on the hot-path manifest does not declare __slots__",
    "H202": "attribute not in __slots__ assigned on a slotted class",
    "H203": "f-string, logging/print, or try/except inside a hot-path "
    "function (error-path raise excepted)",
    "H204": "per-request object allocation (container display, "
    "comprehension, lambda/nested def, allocating constructor) inside a "
    "batched tick-loop function (error-path raise excepted)",
    "C301": "bare `except:` (swallows SystemExit/KeyboardInterrupt)",
    "C302": "mutable default argument",
    "C303": "raised exception does not derive from ReproError",
    "C304": "public function in an annotated package lacks complete type "
    "hints",
    "C305": "direct policy-class construction outside repro.policies/"
    "repro.core (use repro.policies.registry.build_policy)",
    "C306": "broad `except Exception` handler that swallows the error "
    "(no raise in the handler body)",
    "K401": "cache-key soundness: a field excluded from the class's "
    "cache_token()/cache_key() walk is read on a simulation path and is "
    "not on the _CACHE_NEUTRAL_FIELDS allowlist",
    "K402": "stale _CACHE_NEUTRAL_FIELDS allowlist entry: names no "
    "field, or a field the token walk already covers",
    "K403": "impure operation (I/O, env, clock, randomness, global "
    "mutation) reachable from cache_token()/cache_key() computation",
    "W001": "`# repro: noqa` suppression that no longer matches any "
    "finding (reported under --show-unused-noqa)",
    "E999": "file could not be parsed",
}

#: Packages whose modules count as "simulation modules" for D103-D105:
#: every package ``repro.sim`` imports except ``repro.perf`` (its
#: profiling clocks never write simulated state), plus
#: ``repro.workloads``, whose program and mix tables are simulation
#: inputs.
SIM_PACKAGES = (
    "sim",
    "mem",
    "hybrid",
    "core",
    "cache",
    "cpu",
    "common",
    "policies",
    "traces",
    "workloads",
)
#: Packages whose public functions must be fully annotated (C304).
#: The mypy strict lists in pyproject.toml, .pre-commit-config.yaml and
#: the CI lint job name the same packages
#: (tests/test_strict_packages.py checks all four).
ANNOTATED_PACKAGES = (
    "repro.common",
    "repro.hybrid",
    "repro.lint",
    "repro.exec",
    "repro.mem",
)
#: The only module allowed to touch random sources (D101/D102).
RNG_MODULE = "repro.common.rng"

#: Wall-clock and entropy reads banned in simulation modules (D103).
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
    }
)

#: Builtin exception types C303 refuses (`raise ValueError(...)` etc.).
#: NotImplementedError and AssertionError stay legal: they signal
#: programmer errors, not library failure modes callers should catch.
_BANNED_BUILTIN_RAISES = frozenset(
    {
        "BaseException",
        "Exception",
        "ArithmeticError",
        "AttributeError",
        "BufferError",
        "EOFError",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "NameError",
        "OSError",
        "RuntimeError",
        "StopIteration",
        "SystemError",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)


#: Allocating constructors banned inside batched tick-loop functions
#: (H204).  Method calls (``queue.append(entry)``, ``waiters.popleft()``)
#: stay legal: the rule targets fresh per-event objects, not mutation of
#: existing state.
_BATCH_ALLOC_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "frozenset",
        "tuple",
        "bytearray",
        "deque",
        "collections.deque",
        "partial",
        "functools.partial",
    }
)


#: Concrete policy classes C305 refuses to see constructed outside the
#: policy packages: direct construction bypasses the registry's axis
#: resolution and canonical naming (repro.policies.registry).
_POLICY_CLASSES = frozenset(
    {
        "StaticPolicy",
        "CameoPolicy",
        "PoMPolicy",
        "SilcFMPolicy",
        "MemPodPolicy",
        "MDMPolicy",
        "ProFessPolicy",
        "RSMGuidedPoMPolicy",
    }
)
#: Packages allowed to construct policy classes directly (C305): the
#: registry factory itself and the defining/subclassing modules.
_POLICY_PACKAGES = ("repro.policies", "repro.core")


def _in_policy_scope(module: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in _POLICY_PACKAGES
    )


def _in_sim_scope(module: str) -> bool:
    parts = module.split(".")
    return len(parts) >= 2 and parts[0] == "repro" and parts[1] in SIM_PACKAGES


def _in_annotated_scope(module: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in ANNOTATED_PACKAGES
    )


class _Checker(ast.NodeVisitor):
    """Single-pass rule visitor for one module."""

    def __init__(
        self,
        info: ModuleInfo,
        index: ProjectIndex,
        hot_classes: frozenset[str],
        hot_functions: frozenset[str],
        batch_functions: frozenset[str] = frozenset(),
    ) -> None:
        self.info = info
        self.index = index
        self.hot_classes = hot_classes
        self.hot_functions = hot_functions
        self.batch_functions = batch_functions
        self.findings: list[Finding] = []
        self.sim_scope = _in_sim_scope(info.module)
        self.annotated_scope = _in_annotated_scope(info.module)
        self.policy_scope = _in_policy_scope(info.module)
        self.is_rng_module = info.module == RNG_MODULE
        #: Enclosing ClassDef qualnames, innermost last.
        self._class_stack: list[str] = []
        #: Enclosing function names, innermost last.
        self._func_stack: list[str] = []
        #: Depth of enclosing hot-path functions (H203 active when > 0).
        self._hot_depth = 0
        #: Depth of enclosing batched tick-loop functions (H204 active
        #: when > 0).
        self._batch_depth = 0
        #: Depth of enclosing Raise statements (f-strings exempt inside).
        self._raise_depth = 0
        #: Slot unions of enclosing slotted classes (None = H202 off).
        self._slots_stack: list[Optional[frozenset[str]]] = []
        #: Per enclosing function: local name -> line where it was first
        #: bound to a set (D104), innermost last.
        self._set_locals: list[dict[str, int]] = []

    # ------------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        # A noqa anywhere on a multi-line *statement* suppresses its
        # findings; compound bodies (def/class/if/...) must not let the
        # span swallow nested code, so they keep a single-line span.
        end_line = getattr(node, "end_lineno", None) or line
        if hasattr(node, "body"):
            end_line = line
        self.findings.append(
            Finding(
                rule=rule,
                path=self.info.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                end_line=end_line,
            )
        )

    def _qualname(self, name: str) -> str:
        prefix = ".".join(self._class_stack + self._func_stack)
        if prefix:
            return f"{self.info.module}.{prefix}.{name}"
        return f"{self.info.module}.{name}"

    # ------------------------------------------------------------------
    # Imports: D101 / D102
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if not self.is_rng_module:
            for alias in node.names:
                root = alias.name.partition(".")[0]
                if root == "random":
                    self._emit(
                        "D101",
                        node,
                        "import random: draw from repro.common.rng "
                        "substreams instead",
                    )
                elif alias.name.startswith("numpy.random"):
                    self._emit(
                        "D102",
                        node,
                        "import numpy.random: use repro.common.rng.make_rng",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.is_rng_module and node.module is not None:
            if node.module == "random" or node.module.startswith("random."):
                self._emit(
                    "D101",
                    node,
                    "from random import ...: draw from repro.common.rng "
                    "substreams instead",
                )
            elif node.module.startswith("numpy.random") or (
                node.module == "numpy"
                and any(alias.name == "random" for alias in node.names)
            ):
                self._emit(
                    "D102",
                    node,
                    "numpy.random import: use repro.common.rng.make_rng",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Clock/entropy references: D103
    # ------------------------------------------------------------------
    def _check_clock(self, node: ast.expr, site: ast.AST) -> bool:
        """D103 when ``node`` names a clock/entropy source, reported at
        ``site``.  Any load counts, not just a call: ``clock =
        time.time`` is flagged where it binds, so an alias or a helper
        cannot launder the read."""
        if not self.sim_scope:
            return False
        resolved = resolve_dotted(self.info, node)
        if resolved not in _CLOCK_CALLS:
            return False
        self._emit(
            "D103",
            site,
            f"{resolved} in a simulation module: results must be a "
            "function of (spec, seed) only",
        )
        return True

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_clock(node, node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check_clock(node, node)

    # ------------------------------------------------------------------
    # Calls: D102 / H203 (logging, print)
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = resolve_dotted(self.info, node.func)
        if resolved is not None:
            if not self.is_rng_module and (
                resolved.startswith("numpy.random.")
                or resolved.startswith("np.random.")
            ):
                self._emit(
                    "D102",
                    node,
                    f"{resolved}: use repro.common.rng.make_rng for a "
                    "seeded substream",
                )
            if self._hot_depth > 0:
                if resolved == "print" or resolved.startswith("logging."):
                    self._emit(
                        "H203",
                        node,
                        f"{resolved}() call inside a hot-path function",
                    )
            if self._batch_depth > 0 and self._raise_depth == 0:
                if resolved in _BATCH_ALLOC_CALLS:
                    self._emit(
                        "H204",
                        node,
                        f"{resolved}() allocates inside a batched tick "
                        "loop: keep per-request state in the queued tuple",
                    )
                elif (
                    resolved in self.index.classes
                    or f"{self.info.module}.{resolved}"
                    in self.index.classes
                ):
                    self._emit(
                        "H204",
                        node,
                        f"{resolved} constructed inside a batched tick "
                        "loop: a per-request object costs an allocation "
                        "per event",
                    )
            if (
                not self.policy_scope
                and resolved.rsplit(".", 1)[-1] in _POLICY_CLASSES
            ):
                self._emit(
                    "C305",
                    node,
                    f"{resolved}() constructed directly: use "
                    "repro.policies.registry.build_policy so axis "
                    "resolution and canonical naming apply",
                )
        # A clock callee is reported at the whole call, so a noqa on any
        # line of a multi-line call applies; then only the arguments
        # remain to visit.
        if self._check_clock(node.func, node):
            for argument in (*node.args, *node.keywords):
                self.visit(argument)
            return
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Iteration: D104
    # ------------------------------------------------------------------
    def _is_set(self, node: ast.expr) -> bool:
        """A set display, set comprehension, ``set()`` or ``frozenset()``."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and resolve_dotted(
            self.info, node.func
        ) in ("set", "frozenset")

    def _note_set_binding(
        self, targets: list[ast.expr], value: Optional[ast.expr]
    ) -> None:
        """Record locals bound to a set earlier in the current function."""
        if not (self.sim_scope and self._set_locals):
            return
        if value is None or not self._is_set(value):
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self._set_locals[-1].setdefault(target.id, target.lineno)

    def _check_set_iteration(self, iterable: ast.expr) -> None:
        if not self.sim_scope:
            return
        if self._is_set(iterable):
            what = "a set"
        elif (
            isinstance(iterable, ast.Name)
            and self._set_locals
            and iterable.id in self._set_locals[-1]
        ):
            line = self._set_locals[-1][iterable.id]
            what = f"{iterable.id!r}, bound to a set on line {line}"
        else:
            return
        self._emit(
            "D104",
            iterable,
            f"iterating {what}: order is hash-dependent; sort it or use a "
            "sequence/dict",
        )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # id()-keyed state: D105
    # ------------------------------------------------------------------
    @staticmethod
    def _is_id_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.sim_scope and self._is_id_call(node.slice):
            self._emit(
                "D105",
                node,
                "id()-keyed subscript: object addresses vary across runs",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        if self.sim_scope:
            for key in node.keys:
                if key is not None and self._is_id_call(key):
                    self._emit(
                        "D105",
                        key,
                        "id() as a dict key: object addresses vary "
                        "across runs",
                    )
        self._check_batch_alloc(node, "dict display")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # H204: allocation inside batched tick-loop functions
    # ------------------------------------------------------------------
    def _check_batch_alloc(self, node: ast.AST, what: str) -> None:
        if self._batch_depth > 0 and self._raise_depth == 0:
            self._emit(
                "H204",
                node,
                f"{what} inside a batched tick loop: the fused tick "
                "must not allocate per request",
            )

    def visit_List(self, node: ast.List) -> None:
        if not isinstance(node.ctx, ast.Store):
            self._check_batch_alloc(node, "list display")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._check_batch_alloc(node, "set display")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_batch_alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_batch_alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_batch_alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_batch_alloc(node, "generator expression")
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_batch_alloc(node, "lambda (allocates a closure)")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Classes: H201 / H202 context
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = ".".join(self._class_stack + [node.name])
        qualified = f"{self.info.module}.{qualname}"
        cls: Optional[ClassInfo] = self.info.classes.get(qualname)
        if qualified in self.hot_classes:
            if cls is None or cls.slots is None:
                self._emit(
                    "H201",
                    node,
                    f"{qualified} is on the hot-path manifest but does "
                    "not declare __slots__",
                )
        slots_union: Optional[frozenset[str]] = None
        if cls is not None and cls.slots is not None and cls.slots_exact:
            slots_union = self.index.slots_union(qualified)
        self._class_stack.append(node.name)
        self._slots_stack.append(slots_union)
        funcs = self._func_stack
        self._func_stack = []
        self.generic_visit(node)
        self._func_stack = funcs
        self._slots_stack.pop()
        self._class_stack.pop()

    def _check_self_assignment(self, target: ast.expr) -> None:
        if not self._slots_stack or self._slots_stack[-1] is None:
            return
        if not self._func_stack:
            return
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        if target.attr in self._slots_stack[-1]:
            return
        self._emit(
            "H202",
            target,
            f"self.{target.attr} assigned on a slotted class but absent "
            "from __slots__",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._check_self_assignment(element)
            else:
                self._check_self_assignment(target)
        self._note_set_binding(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # The annotation subtree is skipped: under ``from __future__
        # import annotations`` it never evaluates, so e.g. the ``[int]``
        # in ``Callable[[int], None]`` is not an allocation (H204).
        self._check_self_assignment(node.target)
        self._note_set_binding([node.target], node.value)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_self_assignment(node.target)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Functions: C302 / C304 and H203 context
    # ------------------------------------------------------------------
    def _check_mutable_defaults(self, node: ast.FunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            )
            if not bad and isinstance(default, ast.Call):
                resolved = resolve_dotted(self.info, default.func)
                bad = resolved in ("list", "dict", "set", "bytearray")
            if bad:
                self._emit(
                    "C302",
                    default,
                    "mutable default argument: use None and create "
                    "inside the function",
                )

    def _check_annotations(self, node: ast.FunctionDef) -> None:
        if not self.annotated_scope or self._func_stack:
            return  # nested functions are implementation detail
        if node.name.startswith("_"):
            return
        if self._class_stack and any(
            name.startswith("_") for name in self._class_stack
        ):
            return  # private class: not public API
        args = node.args
        positional = args.posonlyargs + args.args
        if self._class_stack and positional:
            has_staticmethod = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            if not has_staticmethod:
                positional = positional[1:]  # self / cls
        missing = [
            arg.arg
            for arg in positional + args.kwonlyargs
            if arg.annotation is None
        ]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            self._emit(
                "C304",
                node,
                f"public function {node.name}() missing parameter "
                f"annotations: {', '.join(missing)}",
            )
        if node.returns is None:
            self._emit(
                "C304",
                node,
                f"public function {node.name}() missing a return "
                "annotation",
            )

    def _visit_function(self, node: ast.FunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._check_annotations(node)
        qualified = self._qualname(node.name)
        is_hot = qualified in self.hot_functions
        is_batch = qualified in self.batch_functions
        if self._batch_depth > 0 and not is_batch:
            self._emit(
                "H204",
                node,
                f"nested function {node.name}() inside a batched tick "
                "loop allocates a function object per call",
            )
        if is_hot:
            self._hot_depth += 1
        if is_batch:
            self._batch_depth += 1
        self._func_stack.append(node.name)
        self._set_locals.append({})
        # Visit children selectively: parameter/return annotations never
        # evaluate at runtime (future annotations), so their subtrees
        # must not trip allocation rules like H204.
        for decorator in node.decorator_list:
            self.visit(decorator)
        for default in node.args.defaults:
            self.visit(default)
        for default in node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        for statement in node.body:
            self.visit(statement)
        self._set_locals.pop()
        self._func_stack.pop()
        if is_batch:
            self._batch_depth -= 1
        if is_hot:
            self._hot_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # H203: try/except and f-strings inside hot functions
    # ------------------------------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        if self._hot_depth > 0:
            self._emit(
                "H203",
                node,
                "try/except inside a hot-path function (zero-cost only "
                "until it isn't: keep error handling off the event loop)",
            )
        for handler in node.handlers:
            if handler.type is None:
                self._emit(
                    "C301",
                    handler,
                    "bare except: catch a specific exception type",
                )
            elif self._handler_is_broad(handler.type) and not any(
                isinstance(child, ast.Raise)
                for statement in handler.body
                for child in ast.walk(statement)
            ):
                self._emit(
                    "C306",
                    handler,
                    "except Exception swallows the error: re-raise, "
                    "convert to a ReproError, or justify with "
                    "`# repro: noqa[C306]`",
                )
        self.generic_visit(node)

    def _handler_is_broad(self, type_node: ast.expr) -> bool:
        """Whether a handler type names Exception/BaseException (C306),
        including anywhere inside a tuple of types."""
        if isinstance(type_node, ast.Tuple):
            return any(self._handler_is_broad(e) for e in type_node.elts)
        resolved = resolve_dotted(self.info, type_node)
        return resolved in ("Exception", "BaseException")

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        if self._hot_depth > 0 and self._raise_depth == 0:
            self._emit(
                "H203",
                node,
                "f-string on the hot path: formatting per event is pure "
                "overhead (f-strings inside raise are exempt)",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # C303: exception pedigree
    # ------------------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        target: Optional[ast.expr] = None
        if isinstance(exc, ast.Call):
            target = exc.func
        elif isinstance(exc, (ast.Name, ast.Attribute)):
            target = exc
        if target is not None:
            resolved = resolve_dotted(self.info, target)
            if resolved is not None:
                self._check_raise_target(node, resolved)
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    def _check_raise_target(self, node: ast.Raise, resolved: str) -> None:
        # Local bare names may be module classes or re-raised variables.
        candidates = []
        if "." not in resolved:
            candidates.append(f"{self.info.module}.{resolved}")
        candidates.append(resolved)
        for candidate in candidates:
            if candidate in self.index.classes:
                if not self.index.derives_from_repro_error(candidate):
                    self._emit(
                        "C303",
                        node,
                        f"{resolved} does not derive from ReproError "
                        "(repro.common.errors)",
                    )
                return
        if resolved in _BANNED_BUILTIN_RAISES:
            self._emit(
                "C303",
                node,
                f"raise {resolved}: use a ReproError subclass (mix the "
                "builtin in for compatibility if callers expect it)",
            )


def check_module(
    info: ModuleInfo,
    index: ProjectIndex,
    hot_classes: frozenset[str],
    hot_functions: frozenset[str],
    batch_functions: frozenset[str] = frozenset(),
) -> list[Finding]:
    """All findings for one parsed module (suppressions not yet applied)."""
    checker = _Checker(
        info, index, hot_classes, hot_functions, batch_functions
    )
    checker.visit(info.tree)
    return checker.findings


def check_manifest(
    index: ProjectIndex,
    hot_classes: frozenset[str],
    hot_functions: frozenset[str],
) -> list[Finding]:
    """H200: every manifest entry whose module was linted must resolve.

    Entries in modules outside the linted set are skipped, so linting a
    subtree (or the fixture suite) never trips on the full manifest.
    """
    findings = []
    for entry in sorted(hot_classes | hot_functions):
        module_name, _, _symbol = entry.rpartition(".")
        # Method entries qualify module.Class.method; walk up until a
        # linted module matches.
        probe = entry
        info = None
        depth = 0
        while "." in probe:
            probe, _, _ = probe.rpartition(".")
            depth += 1
            info = index.modules.get(probe)
            if info is not None:
                break
        if info is None:
            continue
        qualname = entry[len(info.module) + 1 :]
        if qualname in info.classes:
            continue
        if entry in info.functions:
            continue
        if depth > 1 and qualname.split(".")[0] not in info.classes:
            # The qualname head may be an unlinted submodule (subset or
            # --changed runs lint packages without their children): the
            # entry cannot be proven stale, so stay silent.
            continue
        findings.append(
            Finding(
                rule="H200",
                path=info.path,
                line=1,
                col=1,
                message=f"hot-path manifest entry {entry!r} does not "
                "resolve to a class or function in this module",
            )
        )
    return findings
