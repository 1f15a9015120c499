"""S012 — lock discipline in the classes that own a lock.

A stream run is a plain call chain on one thread, but `MetricsRegistry`,
`FlightRecorder`, `ScoredClip` and `CExtBackend` still guard mutable
state with ``threading`` locks — against ``repro top``'s dashboard thread
and a fleet's ``agent_workers`` pool.  A per-node linter cannot tell a
guarded access from a racy one; this rule reasons over one class at a
time:

1. **Unlocked access to guarded attributes.**  For every class that owns
   a lock (``self._lock = threading.Lock()/RLock()/Condition()``), the
   attributes *mutated* inside a ``with self._lock:`` scope in running
   code (``__init__`` is single-threaded and exempt) form the guarded
   set; any read or write of a guarded attribute outside the lock in
   another method is a race.  Leading-underscore helper methods whose
   every internal call site sits inside a lock scope are treated as
   lock-held (``_drain()`` called only under the lock may touch guarded
   state freely).
2. **Blocking while holding a lock.**  ``time.sleep``, ``open``,
   no-argument ``.join()`` and ``.get()``/``.put()`` on queue-typed
   attributes (constructor-resolved, so ``dict.get`` is untouched)
   inside a lock scope invite convoying and deadlock.  Waiting on the
   lock's own Condition (``self._cond.wait()``) is of course allowed.

Lock and queue constructors resolve through the module's own imports
(``from threading import Lock`` works); every lock in ``src/`` is built in
the module whose class owns it.  Suppress deliberate exceptions with
``# repro: noqa[S012]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.check.engine import ModuleContext, Rule, dotted_name, register

__all__ = ["LockDisciplineRule"]

#: Canonical constructor names that create a lock-like guard.
_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock", "threading.Condition"})

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "add", "insert", "remove", "discard",
        "pop", "popleft", "popitem", "clear", "update", "setdefault",
    }
)


@dataclass
class _Access:
    attr: str
    node: ast.AST
    lock: str | None  # lock attr held at the access, if any


@dataclass
class _Blocking:
    node: ast.AST
    what: str
    lock: str | None


@dataclass
class _MethodScan:
    reads: list[_Access] = field(default_factory=list)
    writes: list[_Access] = field(default_factory=list)
    blocking: list[_Blocking] = field(default_factory=list)
    helper_calls: list[tuple[str, str | None]] = field(default_factory=list)  # (callee, lock)


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for an ``self.X`` attribute expression, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _attr_ctors(methods: Iterable[ast.AST]) -> dict[str, str]:
    """``self.<attr> = Ctor(...)`` anywhere in the methods: attr → ``Ctor``
    as written (first assignment wins)."""
    ctors: dict[str, str] = {}
    for method in methods:
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                target, value = sub.target, sub.value
            else:
                continue
            attr = _self_attr(target)
            ctor = dotted_name(value.func) if isinstance(value, ast.Call) else None
            if attr is not None and ctor:
                ctors.setdefault(attr, ctor)
    return ctors


class _MethodScanner:
    """One pass over a method body tracking which lock (if any) is held."""

    def __init__(self, lock_attrs: frozenset[str], queue_attrs: frozenset[str]):
        self.lock_attrs = lock_attrs
        self.queue_attrs = queue_attrs
        self.scan = _MethodScan()

    # Nested defs/lambdas are skipped: a closure built under the lock
    # typically runs later on another thread, so neither its accesses nor
    # the ambient lock state can be attributed soundly.
    _SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def run(self, func: ast.AST) -> _MethodScan:
        self._stmts(getattr(func, "body", []), None)
        return self.scan

    # ------------------------------------------------------------ statements

    def _stmts(self, body: list[ast.stmt], lock: str | None) -> None:
        for stmt in body:
            self._stmt(stmt, lock)

    def _stmt(self, stmt: ast.stmt, lock: str | None) -> None:
        if isinstance(stmt, self._SKIP):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = lock
            for item in stmt.items:
                held = _self_attr(item.context_expr)
                if held in self.lock_attrs and inner is None:
                    inner = held
                else:
                    self._expr(item.context_expr, lock)
            self._stmts(stmt.body, inner)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._target(target, lock)
            self._expr(stmt.value, lock)
        elif isinstance(stmt, ast.AnnAssign):
            self._target(stmt.target, lock)
            if stmt.value is not None:
                self._expr(stmt.value, lock)
        elif isinstance(stmt, ast.AugAssign):
            self._target(stmt.target, lock)
            self._expr(stmt.target, lock)  # in-place op reads too
            self._expr(stmt.value, lock)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._target(stmt.target, lock)
            self._expr(stmt.iter, lock)
            self._stmts(stmt.body, lock)
            self._stmts(stmt.orelse, lock)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, lock)
            self._stmts(stmt.body, lock)
            self._stmts(stmt.orelse, lock)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, lock)
            self._stmts(stmt.body, lock)
            self._stmts(stmt.orelse, lock)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body, lock)
            for handler in stmt.handlers:
                self._stmts(handler.body, lock)
            self._stmts(stmt.orelse, lock)
            self._stmts(stmt.finalbody, lock)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, lock)

    def _target(self, target: ast.AST, lock: str | None) -> None:
        attr = _self_attr(target)
        if attr is not None:
            if attr not in self.lock_attrs:
                self.scan.writes.append(_Access(attr, target, lock))
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None and attr not in self.lock_attrs:
                self.scan.writes.append(_Access(attr, target, lock))
            else:
                self._expr(target.value, lock)
            self._expr(target.slice, lock)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, lock)
        elif isinstance(target, ast.Starred):
            self._target(target.value, lock)
        elif isinstance(target, ast.expr):
            self._expr(target, lock)

    # ----------------------------------------------------------- expressions

    def _expr(self, expr: ast.AST, lock: str | None) -> None:
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, self._SKIP):
                continue
            if isinstance(node, ast.Call):
                self._call(node, lock)
            elif isinstance(node, ast.Attribute):
                attr = _self_attr(node)
                if attr is not None and attr not in self.lock_attrs:
                    self.scan.reads.append(_Access(attr, node, lock))
            stack.extend(ast.iter_child_nodes(node))

    def _call(self, node: ast.Call, lock: str | None) -> None:
        name = dotted_name(node.func)
        if name == "time.sleep":
            self.scan.blocking.append(_Blocking(node, "time.sleep()", lock))
            return
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self.scan.blocking.append(_Blocking(node, "open()", lock))
            return
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        receiver_attr = _self_attr(node.func.value)
        if receiver_attr in self.lock_attrs:
            return  # wait/notify/acquire on the guard itself is the point
        if isinstance(node.func.value, ast.Name) and node.func.value.id == "self":
            self.scan.helper_calls.append((method, lock))
        if method == "join" and not node.args and not node.keywords:
            self.scan.blocking.append(_Blocking(node, ".join()", lock))
        elif method in ("get", "put") and receiver_attr in self.queue_attrs:
            self.scan.blocking.append(_Blocking(node, f"self.{receiver_attr}.{method}()", lock))
        elif method in _MUTATORS and receiver_attr is not None:
            self.scan.writes.append(_Access(receiver_attr, node, lock))


def _locked_only_helpers(scans: dict[str, _MethodScan]) -> set[str]:
    """Private methods whose every internal call site holds a lock."""
    sites: dict[str, list[tuple[str, str | None]]] = {}
    for caller, scan in scans.items():
        for callee, lock in scan.helper_calls:
            sites.setdefault(callee, []).append((caller, lock))
    locked: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, callers in sites.items():
            if name in locked or not name.startswith("_") or name not in scans:
                continue
            if name == "__init__":
                continue
            if all(lock is not None or caller in locked for caller, lock in callers):
                locked.add(name)
                changed = True
    return locked


@register
class LockDisciplineRule(Rule):
    id = "S012"
    name = "lock-discipline"
    severity = "error"
    description = (
        "attributes mutated under a class's lock must never be touched "
        "outside it; no blocking calls while a lock is held."
    )
    node_types = (ast.ClassDef,)

    def check(self, node: ast.ClassDef, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        methods = {
            stmt.name: stmt for stmt in node.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        ctors = {attr: ctx.resolve(ctor) for attr, ctor in _attr_ctors(methods.values()).items()}
        lock_attrs = frozenset(attr for attr, ctor in ctors.items() if ctor in _LOCK_CTORS)
        if not lock_attrs:
            return
        queue_attrs = frozenset(attr for attr, ctor in ctors.items() if ctor.rsplit(".", 1)[-1].endswith("Queue"))
        scans = {name: _MethodScanner(lock_attrs, queue_attrs).run(func) for name, func in methods.items()}
        locked_helpers = _locked_only_helpers(scans)

        guarded: dict[str, str] = {}  # attr -> the lock that guards it
        for method, scan in scans.items():
            if method == "__init__":
                continue
            ambient = method in locked_helpers
            for access in scan.writes:
                lock = access.lock or (next(iter(lock_attrs)) if ambient else None)
                if lock is not None:
                    guarded.setdefault(access.attr, lock)

        for method, scan in scans.items():
            if method == "__init__" or method in locked_helpers:
                continue
            seen: set[str] = set()
            for access in [*scan.writes, *scan.reads]:
                lock = guarded.get(access.attr)
                if lock is None or access.lock is not None or access.attr in seen:
                    continue
                seen.add(access.attr)
                yield access.node, (
                    f"'{node.name}.{access.attr}' is mutated under 'self.{lock}' but "
                    f"accessed without it in {method}() — racy shared state"
                )

        for method, scan in scans.items():
            ambient = next(iter(lock_attrs)) if method in locked_helpers else None
            for blocking in scan.blocking:
                lock = blocking.lock or ambient
                if lock is not None:
                    yield blocking.node, (
                        f"blocking call {blocking.what} while holding 'self.{lock}' in "
                        f"{node.name}.{method}() — convoys every contending thread"
                    )
