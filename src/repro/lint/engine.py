"""Infrastructure for the ``repro.lint`` static-analysis pass.

The engine owns everything that is not a rule: file discovery, module
naming, the two-pass project index (class/base/slots/exception
information that rules resolve across files), and finding selection.
The rules themselves live in :mod:`repro.lint.rules`.

Entry points:

* :func:`lint_paths` — lint files or directory trees on disk.
* :func:`lint_sources` — lint in-memory sources under explicit module
  names (what the fixture tests use).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.common.errors import ReproError
from repro.lint.hotpath import HOT_CLASSES, HOT_FUNCTIONS


class LintError(ReproError):
    """A lint invocation could not run (bad paths, bad rule selection)."""


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The one-line human-readable form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


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
# Source scanning: imports and classes
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
                module.functions.add(f"{module.module}.{prefix}{node.name}")
                visit(node.body, f"{prefix}{node.name}.")

    visit(module.tree.body, "")
    # Second pass over bases: qualify bare names that name local classes.
    local = set(module.classes)
    for cls in module.classes.values():
        cls.bases = tuple(
            f"{module.module}.{base}" if base in local else base
            for base in cls.bases
        )


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def _parse_rule_list(raw: Optional[str], flag: str) -> Optional[tuple[str, ...]]:
    """Split a ``--select``/``--ignore`` value; every entry must be a
    prefix of a known rule code, so a stale selection fails loudly."""
    from repro.lint.rules import RULES

    if raw is None:
        return None
    entries = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [e for e in entries if not any(r.startswith(e) for r in RULES)]
    if unknown:
        raise LintError(
            f"{flag}: unknown rule code {', '.join(unknown)} "
            "(see --list-rules)"
        )
    return entries or None


def rule_selected(
    rule: str,
    select: Optional[tuple[str, ...]],
    ignore: Optional[tuple[str, ...]],
) -> bool:
    """ruff-style prefix selection: ``--select C --ignore C305``."""
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


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            files.add(path)
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")
    return sorted(files)


def _prune(files: Sequence[Path], exclude: Sequence[Path]) -> list[Path]:
    """Drop whole subtrees (or single files) named in ``exclude`` — the CI
    lint job keeps the deliberately-broken lint fixtures out of a
    ``tests/`` sweep this way."""
    roots = [e.resolve() for e in exclude]
    return [
        f
        for f in files
        if not any(
            f.resolve() == root or root in f.resolve().parents
            for root in roots
        )
    ]


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def _build_module(module: str, path: str, source: str) -> ModuleInfo:
    info = ModuleInfo(
        module=module, path=path, tree=ast.parse(source, filename=path)
    )
    info.imports = _collect_imports(info.tree)
    _collect_classes(info)
    return info


def lint_sources(
    sources: dict[str, tuple[str, str]],
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    hot_classes: Optional[frozenset[str]] = None,
    hot_functions: Optional[frozenset[str]] = None,
) -> list[Finding]:
    """Lint in-memory sources: ``{module: (display_path, source)}``."""
    from repro.lint.rules import check_manifest, check_module

    select_rules = _parse_rule_list(select, "--select")
    ignore_rules = _parse_rule_list(ignore, "--ignore")
    hot_classes = HOT_CLASSES if hot_classes is None else hot_classes
    hot_functions = HOT_FUNCTIONS if hot_functions is None else hot_functions

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

    for info in infos:
        findings.extend(check_module(info, index, hot_classes, hot_functions))
    findings.extend(check_manifest(index, hot_classes, hot_functions))
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
    exclude: Sequence[Path] = (),
) -> list[Finding]:
    """Lint files or trees on disk; the ``profess lint`` entry point."""
    sources: dict[str, tuple[str, str]] = {}
    for file in _prune(discover_files(paths), exclude):
        module = module_name_for(file)
        # Duplicate module names (e.g. two loose scripts both named
        # conftest) get disambiguated by path so neither is dropped.
        key = module if module not in sources else f"{module}:{file}"
        sources[key] = (str(file), file.read_text(encoding="utf-8"))
    return lint_sources(sources, select=select, ignore=ignore)
