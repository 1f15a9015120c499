"""S013 — unit flow: bits, bytes, wall seconds and virtual seconds.

S005 catches ``size_bytes = total_bits + ...`` when both unit-named
identifiers sit in one expression.  It is blind one assignment later::

    payload = size_bytes          # 'payload' names no unit
    total_bits = header_bits + payload   # silent 8x bug, S005 silent too

This rule runs the :mod:`repro.check.dataflow` pass over every function
so unit *taints* follow values through local assignments, branches and
loops:

- ``bits``/``bytes`` seed from unit-suffixed identifiers (same
  convention S005 uses) and survive scaling by plain constants;
  multiplying or dividing by the conversion factor (8 or 0.125) flips
  the taint instead of flagging it;
- ``wall`` seeds from ``time.time()``/``time.perf_counter()``/
  ``time.monotonic()`` results and wall-named identifiers; ``vtime``
  (virtual-clock seconds) seeds from the streaming runtime's simulated
  timestamps (``capture_time``, ``finish_time``, ``busy_until``, ...)
  and ``VirtualClock``-style ``.now()``/``.time_of()`` reads;
- additions, subtractions, comparisons and unit-named assignment
  targets that mix bits with bytes or wall with virtual seconds are
  findings.  Anything S005 already flags textually is skipped, so the
  two rules never double-report one line.

Multiplication/division of two tainted values yields a *derived*
quantity (a rate) and deliberately drops the taint — flagging
``bits / seconds`` would be noise.  Suppress deliberate mixes with
``# repro: noqa[S013]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.dataflow import EMPTY, TaintModel, Taints, run_dataflow
from repro.check.engine import ModuleContext, Rule, register
from repro.check.rules import _has_conversion_factor, _unit_kind, _unit_kinds_in

__all__ = ["UnitFlowRule"]

#: Simulated-time attribute names published by the streaming runtime
#: (QueueOutcome / BackpressureQueue / StreamStats timestamps).
_VTIME_NAMES = frozenset(
    {
        "capture_time", "enqueue_time", "finish_time", "result_time",
        "release_time", "admit_time", "arrival_time", "busy_until",
    }
)

#: Wall-clock producing calls.
_WALL_CALLS = frozenset({"time.time", "time.perf_counter", "time.monotonic"})

#: Calls that return their argument's unit unchanged.
_TRANSPARENT_CALLS = frozenset({"int", "float", "abs", "round", "min", "max", "sum"})

_OPPOSITE = {"bits": "bytes", "bytes": "bits", "wall": "vtime", "vtime": "wall"}


def _mixed_pair(left: Taints, right: Taints) -> tuple[str, str] | None:
    """A ``(kind, opposite)`` pair present across the two sides, if any."""
    for kind in ("bits", "wall"):
        other = _OPPOSITE[kind]
        if (kind in left and other in right) or (other in left and kind in right):
            return (kind, other)
    return None


def _const_factor(node: ast.AST) -> float | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    return None


class _UnitModel(TaintModel):
    def __init__(self) -> None:
        self.findings: list[tuple[ast.AST, str]] = []
        self._flagged_lines: set[int] = set()

    # -------------------------------------------------------------- seeding

    def name_taint(self, name: str) -> Taints:
        low = name.lower()
        if "wall" in low:
            return frozenset({"wall"})
        if name in _VTIME_NAMES:
            return frozenset({"vtime"})
        kind = _unit_kind(name)
        if kind is not None:
            return frozenset({kind})
        return EMPTY

    def call_taint(self, node: ast.Call, dotted: str | None, arg_taints: list[Taints]) -> Taints:
        if dotted is None:
            return EMPTY
        if dotted in _WALL_CALLS:
            return frozenset({"wall"})
        parts = dotted.split(".")
        if parts[-1] == "time_of":
            return frozenset({"vtime"})
        if parts[-1] == "now" and any("clock" in p.lower() for p in parts[:-1]):
            return frozenset({"vtime"})
        if dotted in _TRANSPARENT_CALLS:
            out: Taints = EMPTY
            for taint in arg_taints:
                out |= taint
            return out
        return EMPTY

    # -------------------------------------------------------------- flagging

    def _flag(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in self._flagged_lines:
            return
        self._flagged_lines.add(line)
        self.findings.append((node, message))

    def binop(self, node: ast.BinOp, left: Taints, right: Taints) -> Taints:
        if isinstance(node.op, (ast.Mult, ast.Div)):
            # The 8 / 0.125 factor converts between bits and bytes.
            for operand, taint in ((node.right, left), (node.left, right)):
                factor = _const_factor(operand)
                if factor in (8.0, 0.125):
                    swapped = frozenset(_OPPOSITE.get(k, k) if k in ("bits", "bytes") else k for k in taint)
                    return swapped
                if factor is not None:
                    return taint  # scaling by a plain constant keeps the unit
            return EMPTY  # product/ratio of two quantities: a derived unit
        if isinstance(node.op, (ast.Add, ast.Sub)):
            pair = _mixed_pair(left, right)
            if pair is not None:
                a, b = pair
                self._flag(node, f"arithmetic mixes {a} with {b} — values with different units meet without conversion")
            return left | right
        return left | right

    def compare(self, node: ast.Compare, taints: list[Taints]) -> None:
        for i in range(len(taints) - 1):
            pair = _mixed_pair(taints[i], taints[i + 1])
            if pair is not None:
                a, b = pair
                self._flag(node, f"comparison mixes {a} with {b} — values with different units are not ordered")
                return

    def assign_name(self, name: str, stmt: ast.stmt, value: Taints) -> Taints:
        kind = _unit_kind(name)
        if kind is not None and _OPPOSITE[kind] in value:
            value_node = getattr(stmt, "value", None)
            textual = _unit_kinds_in(value_node) if value_node is not None else set()
            # S005 owns the single-expression case (opposite unit named in
            # the value with no factor of 8); only the flowed case is ours.
            s005_flags = _OPPOSITE[kind] in textual and not _has_conversion_factor(value_node)
            converted = value_node is not None and _has_conversion_factor(value_node)
            if not s005_flags and not converted:
                self._flag(
                    stmt,
                    f"{name!r} ({kind}) is assigned a value carrying a {_OPPOSITE[kind]} "
                    f"taint with no factor of 8 — unit flow mix-up",
                )
        return super().assign_name(name, stmt, value)


@register
class UnitFlowRule(Rule):
    id = "S013"
    name = "unit-flow"
    severity = "error"
    description = (
        "dataflow generalization of S005: bits/bytes and wall/virtual-time "
        "taints follow values through assignments; mixed-unit arithmetic, "
        "comparisons and assignments are flagged even when no unit-named "
        "identifier appears in the offending expression."
    )
    scope = ("repro",)

    def module_check(self, tree: ast.Module, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                model = _UnitModel()
                run_dataflow(node, model)
                yield from model.findings
