"""The project-specific rule families of ``repro.lint``.

Two families (DESIGN.md §11), each kept because it catches a harmful
shape that neither the goldens nor tier-1 see (the mutation table in
CHANGES.md names each one):

* **H — hot path.**  Structs on the :mod:`repro.lint.hotpath` manifest
  stay slotted and slim, and the inlined event loops stay free of
  formatting/logging/exception-handling.
* **C — contracts.**  No bare ``except``, no builtin exceptions where a
  :class:`~repro.common.errors.ReproError` belongs, no direct policy
  construction outside the registry, no broad handler that swallows the
  error.

Determinism is left to the goldens and tier-1, which catch every
injected shape that changes a result.  Every rule is registered in
:data:`RULES` with a one-line description (``profess lint
--list-rules``).
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
    "H200": "hot-path manifest entry does not resolve to a definition",
    "H201": "class on the hot-path manifest does not declare __slots__",
    "H202": "attribute not in __slots__ assigned on a slotted class",
    "H203": "f-string, logging/print, or try/except inside a hot-path "
    "function (error-path raise excepted)",
    "C301": "bare `except:` (swallows SystemExit/KeyboardInterrupt)",
    "C303": "raised exception does not derive from ReproError",
    "C305": "direct policy-class construction outside repro.policies/"
    "repro.core (use repro.policies.registry.build_policy)",
    "C306": "broad `except Exception` handler that swallows the error "
    "(no raise in the handler body)",
    "E999": "file could not be parsed",
}

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


class _Checker(ast.NodeVisitor):
    """Single-pass rule visitor for one module."""

    def __init__(
        self,
        info: ModuleInfo,
        index: ProjectIndex,
        hot_classes: frozenset[str],
        hot_functions: frozenset[str],
    ) -> None:
        self.info = info
        self.index = index
        self.hot_classes = hot_classes
        self.hot_functions = hot_functions
        self.findings: list[Finding] = []
        self.policy_scope = _in_policy_scope(info.module)
        #: Enclosing ClassDef qualnames, innermost last.
        self._class_stack: list[str] = []
        #: Enclosing function names, innermost last.
        self._func_stack: list[str] = []
        #: Depth of enclosing hot-path functions (H203 active when > 0).
        self._hot_depth = 0
        #: Depth of enclosing Raise statements (f-strings exempt inside).
        self._raise_depth = 0
        #: Slot unions of enclosing slotted classes (None = H202 off).
        self._slots_stack: list[Optional[frozenset[str]]] = []

    # ------------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.info.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    def _qualname(self, name: str) -> str:
        prefix = ".".join(self._class_stack + self._func_stack)
        if prefix:
            return f"{self.info.module}.{prefix}.{name}"
        return f"{self.info.module}.{name}"

    # ------------------------------------------------------------------
    # Calls: H203 (logging, print) / C305
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = resolve_dotted(self.info, node.func)
        if resolved is not None:
            if self._hot_depth > 0:
                if resolved == "print" or resolved.startswith("logging."):
                    self._emit(
                        "H203",
                        node,
                        f"{resolved}() call inside a hot-path function",
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
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign | ast.AnnAssign) -> None:
        self._check_self_assignment(node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    # ------------------------------------------------------------------
    # Functions: H203 context
    # ------------------------------------------------------------------
    def _visit_function(self, node: ast.FunctionDef) -> None:
        is_hot = self._qualname(node.name) in self.hot_functions
        if is_hot:
            self._hot_depth += 1
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()
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
                    "except Exception swallows the error: catch the "
                    "specific exceptions expected, or re-raise (converted "
                    "to a ReproError where callers need one)",
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
) -> list[Finding]:
    """All findings for one parsed module."""
    checker = _Checker(info, index, hot_classes, hot_functions)
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
            # The qualname head may be an unlinted submodule (subset
            # runs lint packages without their children): the entry
            # cannot be proven stale, so stay silent.
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
