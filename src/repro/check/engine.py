"""Pluggable AST-based static-analysis engine.

Generic linters know nothing about the invariants DiVE's correctness rests
on — seeded randomness (the golden digests depend on it), explicit codec
dtypes, hoisted codec buffers, lock discipline in the few classes that own
a lock.  This engine machine-checks them:

- a :class:`Rule` declares the AST node types it wants, an id/severity, a
  path scope (e.g. only ``codec/`` modules of the ``repro`` package) and a
  ``check`` method yielding ``(node, message)`` pairs;
- :func:`check_source` parses one module and dispatches every node to the
  applicable rules in a single walk;
- inline ``# repro: noqa[S001]`` comments (or bare ``# repro: noqa``)
  suppress findings on their line;
- :func:`check_paths` recurses into directories and lints every ``*.py``.

Every rule is module-local: names resolve through the module's own
imports (:meth:`ModuleContext.resolve`), never across modules.  Rules
register themselves with :func:`register`; see :mod:`repro.check.rules`
for the rule set and :mod:`repro.check.report` for the reporters.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CheckResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "check_file",
    "check_paths",
    "check_source",
    "dotted_name",
    "iter_python_files",
    "register",
]

#: Severity ladder, mildest first.
SEVERITIES = ("warning", "error")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_\s,]+)\])?")

#: Directory names never descended into by :func:`iter_python_files`.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", "build", "dist"}

#: The package whose subdirectories rule scopes name.
_PACKAGE = "repro"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule may consult about the module being checked."""

    path: str
    lines: tuple[str, ...]
    #: Local name → dotted import target (``np`` → ``numpy``,
    #: ``Lock`` → ``threading.Lock``), from every import in the module.
    imports: Mapping[str, str] = field(default_factory=dict)

    @property
    def package_dirs(self) -> tuple[str, ...]:
        """The module's directories inside the ``repro`` package.

        Anchored at the last ``repro`` directory of the path, so the
        folders a checkout happens to sit in never match a scope:
        ``/x/codec/repro/src/repro/codec/enc.py`` → ``("codec",)``,
        ``/x/codec/repro/tests/t.py`` → ``("tests",)``.  Empty for a
        module outside any ``repro`` directory.
        """
        dirs = Path(self.path).parts[:-1]
        if _PACKAGE not in dirs:
            return ()
        return dirs[len(dirs) - dirs[::-1].index(_PACKAGE):]

    def resolve(self, name: str) -> str:
        """``name`` with its head expanded through the module's imports
        (``np.random.rand`` → ``numpy.random.rand``); unchanged when the
        head is not an imported name."""
        head, sep, rest = name.partition(".")
        target = self.imports.get(head)
        return name if target is None else target + sep + rest


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`, which
    receives each AST node whose type appears in :attr:`node_types` and
    yields ``(node, message)`` pairs for violations.

    Attributes
    ----------
    id:
        Stable rule id (``S001`` ...), used in reports and ``noqa``.
    name:
        Short kebab-case name.
    severity:
        ``"error"`` or ``"warning"`` (both gate the exit code; the split
        exists for reporting and future policy).
    scope:
        Directories of the ``repro`` package (``"codec"``) the rule is
        limited to (see :attr:`ModuleContext.package_dirs`); empty means
        the rule applies everywhere.
    node_types:
        AST node classes dispatched to :meth:`check`.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    description: str = ""
    scope: tuple[str, ...] = ()
    node_types: tuple[type, ...] = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not self.scope or any(part in ctx.package_dirs for part in self.scope)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} must set id and name")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.id}: severity {cls.severity!r} not in {SEVERITIES}")
    existing = _REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.id}: {existing.__name__} and {cls.__name__}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    import repro.check.concurrency  # noqa: F401  (registers S012)
    import repro.check.rules  # noqa: F401  (registers S001, S003, S011)

    return [cls() for _, cls in sorted(_REGISTRY.items())]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _imports(nodes: Iterable[ast.AST]) -> dict[str, str]:
    """Local name → dotted target for every import among ``nodes``.

    A relative ``from .m import X`` maps ``X`` to ``m.X``: rules only
    read the tail of such names.
    """
    imports: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".", 1)[0]
                imports[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name != "*":
                    imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def _noqa_rules_for_line(line: str) -> set[str] | None:
    """Rule ids suppressed by a ``# repro: noqa`` comment on ``line``.

    Returns ``None`` when there is no noqa comment; an empty set means
    "suppress everything" (bare noqa).
    """
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    rules = m.group("rules")
    if rules is None:
        return set()
    return {r.strip().upper() for r in rules.split(",") if r.strip()}


def _suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    rules = _noqa_rules_for_line(lines[finding.line - 1])
    if rules is None:
        return False
    return not rules or finding.rule in rules


def check_source(source: str, *, path: str = "<string>", rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint one module's source text.

    ``path`` is used both for reporting and for rule path-scoping, so
    tests can exercise scoped rules by passing e.g.
    ``path="src/repro/codec/x.py"``.  A syntax error is itself reported as
    a finding (rule ``E999``) rather than raised.
    """
    lines = tuple(source.splitlines())
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="E999",
                severity="error",
                path=path,
                line=int(exc.lineno or 1),
                col=int(exc.offset or 0),
                message=f"syntax error: {exc.msg}",
            )
        ]
    nodes = list(ast.walk(tree))
    ctx = ModuleContext(path=path, lines=lines, imports=_imports(nodes))
    dispatch: dict[type, list[Rule]] = {}
    for rule in all_rules() if rules is None else rules:
        if rule.applies_to(ctx):
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)

    findings = [
        Finding(
            rule=rule.id,
            severity=rule.severity,
            path=path,
            line=getattr(found, "lineno", 1),
            col=getattr(found, "col_offset", 0),
            message=message,
        )
        for node in nodes
        for rule in dispatch.get(type(node), ())
        for found, message in rule.check(node, ctx)
    ]
    findings = [f for f in findings if not _suppressed(f, lines)]
    findings.sort(key=lambda f: f.sort_key)
    return findings


def check_file(path: str | Path, *, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Lint one file on disk.

    Raises
    ------
    OSError
        The file cannot be read.
    ValueError
        The file is not valid UTF-8 (the message names the file).
    """
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{p}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    return check_source(source, path=str(p), rules=rules)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``*.py`` files.

    Raises :class:`FileNotFoundError` naming the first path that does not
    exist, before anything is yielded for it.
    """
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(
                f for f in p.rglob("*.py") if not (set(f.parts) & _SKIP_DIRS)
            )
        elif p.exists():
            candidates = [p]
        else:
            raise FileNotFoundError(f"{raw}: no such file or directory")
        for f in candidates:
            if f not in seen:
                seen.add(f)
                yield f


@dataclass(frozen=True)
class CheckResult:
    """Outcome of linting a path set."""

    findings: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings


def check_paths(paths: Iterable[str | Path], *, rules: Iterable[Rule] | None = None) -> CheckResult:
    """Lint every python file under ``paths`` (files and/or directories).

    Raises :class:`FileNotFoundError` for a path that does not exist and
    :class:`ValueError` for a file that is not valid UTF-8; both name the
    path.
    """
    rule_list = list(all_rules() if rules is None else rules)
    files = list(iter_python_files(paths))
    findings = [finding for f in files for finding in check_file(f, rules=rule_list)]
    findings.sort(key=lambda f: f.sort_key)
    return CheckResult(findings=findings, files_checked=len(files))
