"""The DiVE-specific rule set.

Each rule encodes one project invariant that a generic linter cannot know
(see the module docstring of :mod:`repro.check.engine`).  Rule ids are
stable; suppress a deliberate violation inline with
``# repro: noqa[S001]``.

==== ====================== ======== =======================================
id   name                   severity checks
==== ====================== ======== =======================================
S001 unseeded-rng           error    ``np.random.default_rng()`` without a
                                     seed, and any legacy ``np.random.*``
                                     call (global-state RNG)
S002 wallclock-hot-path     error    ``time.time()`` / ``time.monotonic()``
                                     in ``codec/`` or ``core/`` — hot paths
                                     must use ``time.perf_counter()``
S003 dtype-less-alloc       warning  ``np.zeros/empty/ones`` without an
                                     explicit dtype in ``codec/`` (silent
                                     float64 upcast of pixel data)
S004 qp-literal-bounds      error    numeric QP literals outside [0, 51]
S005 bits-bytes-mix         error    assigning a ``*_bits`` expression to a
                                     ``*_bytes`` name (or vice versa) with
                                     no ``8`` conversion factor in sight
S006 mutable-default-arg    error    ``def f(x=[])`` and friends
S007 bare-except            error    ``except:`` swallowing everything
S008 untraced-frame-loop    warning  frame loops in ``core/``/``baselines/``
                                     with no tracer instrumentation
S009 print-in-library       warning  ``print()`` in library code (the CLI
                                     and the reporting module are exempt)
S010 stdlib-random          error    importing the stdlib ``random`` module
                                     (unseedable from experiment configs)
S011 loop-constant-alloc    warning  ``np.zeros/np.empty`` with a constant
                                     shape allocated inside a loop body in
                                     ``codec/`` — hoist the buffer
S015 metric-in-loop         warning  metric-instrument creation / registry
                                     lookup-by-name (``registry.counter(
                                     "...")`` et al.) inside a loop body in
                                     ``codec/`` or ``stream/`` — hoist the
                                     instrument
S016 direct-edge-call-in-fleet error ``EdgeServer.process*`` called from
                                     ``fleet/`` code — fleet requests must
                                     go through the ``BatchingEdgeServer``
                                     front-end (the belief-side recording
                                     wrapper in ``fleet/batch.py`` is the
                                     one exemption)
S017 kernel-registry-bypass  error   extracted kernel internals (``
                                     _exhaustive_search``, ``_descend``,
                                     any ``_*_reference``) called from
                                     library code outside ``codec/`` /
                                     ``kernels/`` and the module defining
                                     them — go through the public
                                     wrappers so ``repro.kernels`` backend
                                     dispatch applies
==== ====================== ======== =======================================

The semantic rules live in their own modules (they reason over the whole
project, not single nodes): S012 lock-discipline
(:mod:`repro.check.concurrency`), S013 unit-flow
(:mod:`repro.check.units`), S014 wrapped-entropy
(:mod:`repro.check.determinism`).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.check.engine import ModuleContext, Rule, dotted_name, register

__all__ = [
    "BareExceptRule",
    "BitsBytesMixRule",
    "DirectEdgeCallInFleetRule",
    "DtypeLessAllocRule",
    "KernelBypassRule",
    "LoopConstantAllocRule",
    "MetricInLoopRule",
    "MutableDefaultRule",
    "PrintInLibraryRule",
    "QPLiteralBoundsRule",
    "StdlibRandomRule",
    "UnseededRngRule",
    "UntracedFrameLoopRule",
    "WallClockHotPathRule",
]

#: Legacy global-state ``np.random`` functions (non-exhaustive but covers
#: everything that draws from or reseeds the hidden global RandomState).
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "normal", "uniform", "choice", "shuffle", "permutation",
        "standard_normal", "poisson", "beta", "gamma", "exponential",
        "binomial", "lognormal", "laplace", "multivariate_normal",
        "get_state", "set_state",
    }
)

_QP_BOUNDS = (0.0, 51.0)


def _is_np_random(call_name: str | None) -> bool:
    return call_name is not None and call_name.startswith(("np.random.", "numpy.random."))


@register
class UnseededRngRule(Rule):
    id = "S001"
    name = "unseeded-rng"
    severity = "error"
    description = (
        "np.random.default_rng() must be seeded (or take a caller-provided "
        "Generator); legacy np.random.* global-state calls are forbidden — "
        "the golden e2e digest depends on full-run determinism."
    )
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        name = dotted_name(node.func)
        if not _is_np_random(name):
            return
        tail = name.rsplit(".", 1)[1]
        if tail == "default_rng":
            if not node.args and not node.keywords:
                yield node, "np.random.default_rng() without a seed breaks reproducibility; pass a seed or thread a Generator"
        elif tail == "RandomState":
            yield node, "np.random.RandomState is legacy; use a seeded np.random.default_rng(...)"
        elif tail in _LEGACY_NP_RANDOM:
            yield node, f"legacy global-state np.random.{tail}() is non-reproducible under reordering; use a seeded Generator"


@register
class WallClockHotPathRule(Rule):
    id = "S002"
    name = "wallclock-hot-path"
    severity = "error"
    description = (
        "hot-path timing must use time.perf_counter(); time.time()/"
        "time.monotonic() have coarser resolution and time.time() can step."
    )
    scope = ("codec", "core")
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        name = dotted_name(node.func)
        if name in ("time.time", "time.monotonic"):
            yield node, f"{name}() in a hot path; use time.perf_counter() for span timing"


@register
class DtypeLessAllocRule(Rule):
    id = "S003"
    name = "dtype-less-alloc"
    severity = "warning"
    description = (
        "np.zeros/np.empty/np.ones default to float64; codec arrays must "
        "state their dtype so pixel/level buffers do not silently upcast."
    )
    scope = ("codec",)
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        name = dotted_name(node.func)
        if name not in ("np.zeros", "np.empty", "np.ones", "numpy.zeros", "numpy.empty", "numpy.ones"):
            return
        if len(node.args) >= 2:  # positional dtype
            return
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        yield node, f"{name}(...) without an explicit dtype allocates float64; state the dtype"


def _name_of_target(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _mentions_qp(identifier: str | None) -> bool:
    return identifier is not None and "qp" in identifier.lower()


def _numeric_constant(node: ast.AST) -> float | None:
    """The value of a (possibly negated) int/float literal, else ``None``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _numeric_constant(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
        return float(node.value)
    return None


@register
class QPLiteralBoundsRule(Rule):
    id = "S004"
    name = "qp-literal-bounds"
    severity = "error"
    description = (
        "QP is defined on [0, 51] (core/qp.py, H.264 convention); a literal "
        "outside those bounds assigned or compared to a qp-named value is a "
        "unit bug."
    )
    node_types = (ast.Assign, ast.AnnAssign, ast.Compare, ast.Call)

    def _out_of_bounds(self, value: float | None) -> bool:
        lo, hi = _QP_BOUNDS
        return value is not None and not (lo <= value <= hi)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = _numeric_constant(node.value) if node.value is not None else None
            if self._out_of_bounds(value) and any(_mentions_qp(_name_of_target(t)) for t in targets):
                yield node, f"QP literal {value:g} outside [0, 51]"
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            has_qp = any(_mentions_qp(dotted_name(s) or _name_of_target(s)) for s in sides)
            if not has_qp:
                return
            for side in sides:
                value = _numeric_constant(side)
                if self._out_of_bounds(value):
                    yield side, f"QP compared against literal {value:g} outside [0, 51]"
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                value = _numeric_constant(kw.value)
                if _mentions_qp(kw.arg) and self._out_of_bounds(value):
                    yield kw.value, f"QP argument {kw.arg}={value:g} outside [0, 51]"


def _unit_kind(identifier: str | None) -> str | None:
    """``"bits"`` / ``"bytes"`` when the identifier names that unit."""
    if identifier is None:
        return None
    low = identifier.lower()
    for kind in ("bits", "bytes"):
        if low == kind or low.endswith("_" + kind) or low.startswith(kind + "_"):
            return kind
    return None


def _has_conversion_factor(node: ast.AST) -> bool:
    """True when the expression mentions the 8 (or 0.125) bits/byte factor."""
    for sub in ast.walk(node):
        value = _numeric_constant(sub)
        if value in (8.0, 0.125):
            return True
    return False


def _unit_kinds_in(node: ast.AST) -> set[str]:
    kinds: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            kind = _unit_kind(sub.id)
        elif isinstance(sub, ast.Attribute):
            kind = _unit_kind(sub.attr)
        else:
            continue
        if kind:
            kinds.add(kind)
    return kinds


@register
class BitsBytesMixRule(Rule):
    id = "S005"
    name = "bits-bytes-mix"
    severity = "error"
    description = (
        "assigning a *_bits expression to a *_bytes name (or vice versa) "
        "without a factor of 8 is the classic silent 8x rate-control bug."
    )
    node_types = (ast.Assign, ast.AnnAssign, ast.Call)

    def _flag(self, target_name: str | None, value: ast.AST) -> str | None:
        target_kind = _unit_kind(target_name)
        if target_kind is None:
            return None
        source_kinds = _unit_kinds_in(value)
        other = "bytes" if target_kind == "bits" else "bits"
        if other in source_kinds and not _has_conversion_factor(value):
            return (
                f"{target_name!r} ({target_kind}) is computed from a {other} "
                f"quantity with no factor of 8 — bits/bytes mix-up?"
            )
        return None

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node.value is None:
                return
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                message = self._flag(_name_of_target(target), node.value)
                if message:
                    yield node, message
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                message = self._flag(kw.arg, kw.value)
                if message:
                    yield kw.value, message


@register
class MutableDefaultRule(Rule):
    id = "S006"
    name = "mutable-default-arg"
    severity = "error"
    description = "mutable default arguments are shared across calls; default to None or use dataclass field factories."
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set"})

    def _is_mutable(self, node: ast.AST | None) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in self._MUTABLE_CALLS
        return False

    def check(self, node: ast.FunctionDef, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if self._is_mutable(default):
                yield default, f"mutable default argument in {node.name}(); use None and create inside"


@register
class BareExceptRule(Rule):
    id = "S007"
    name = "bare-except"
    severity = "error"
    description = "bare except: hides sanitizer and shape errors; catch a concrete exception type."
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.ExceptHandler, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if node.type is None:
            yield node, "bare except: swallows every error (including SanitizeError); name the exception type"


@register
class UntracedFrameLoopRule(Rule):
    id = "S008"
    name = "untraced-frame-loop"
    severity = "warning"
    description = (
        "scheme functions that loop over frames must be tracer-instrumented "
        "(tracer.frame/span or _finish_frame) so traced runs cover every stage."
    )
    scope = ("core", "baselines")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    @staticmethod
    def _is_frame_loop(loop: ast.For) -> bool:
        for sub in ast.walk(loop.iter):
            if isinstance(sub, ast.Attribute) and sub.attr == "n_frames":
                return True
            if isinstance(sub, ast.Name) and sub.id == "n_frames":
                return True
        return False

    @staticmethod
    def _is_instrumented(func: ast.AST) -> bool:
        for sub in ast.walk(func):
            # ``.frame`` is deliberately absent: ``clip.frame(i)`` would make
            # every frame loop look instrumented.
            if isinstance(sub, ast.Attribute) and sub.attr in ("span", "tracer", "_finish_frame"):
                return True
            if isinstance(sub, ast.Name) and sub.id in ("tracer", "tr"):
                return True
        return False

    def check(self, node: ast.FunctionDef, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        frame_loops = [
            sub for sub in ast.walk(node) if isinstance(sub, ast.For) and self._is_frame_loop(sub)
        ]
        if frame_loops and not self._is_instrumented(node):
            yield frame_loops[0], (
                f"{node.name}() loops over frames with no tracer instrumentation; "
                "wrap the body in tracer.frame(...)/span(...) or record via _finish_frame"
            )


@register
class PrintInLibraryRule(Rule):
    id = "S009"
    name = "print-in-library"
    severity = "warning"
    description = "library code returns strings / records gauges; only the CLI and the reporting module print."
    scope = ("repro",)
    exclude_files = ("cli.py", "reporting.py")
    node_types = (ast.Call,)

    def check(self, node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node, "print() in library code; return the string or record a tracer gauge instead"


def _is_const_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool)


def _has_constant_shape(call: ast.Call) -> bool:
    """True when the allocation's shape is a literal int or tuple/list of them."""
    shape: ast.AST | None = call.args[0] if call.args else None
    for kw in call.keywords:
        if kw.arg == "shape":
            shape = kw.value
    if shape is None:
        return False
    if _is_const_int(shape):
        return True
    if isinstance(shape, (ast.Tuple, ast.List)):
        return bool(shape.elts) and all(_is_const_int(e) for e in shape.elts)
    return False


@register
class LoopConstantAllocRule(Rule):
    id = "S011"
    name = "loop-constant-alloc"
    severity = "warning"
    description = (
        "np.zeros/np.empty with a constant shape inside a loop body in "
        "codec/ re-allocates an identical buffer every iteration; hoist it "
        "out of the loop and fill in place."
    )
    scope = ("codec",)

    _ALLOC_FUNCS = frozenset({"np.zeros", "np.empty", "numpy.zeros", "numpy.empty"})

    def module_check(self, tree: ast.Module, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        reported: set[int] = set()  # call node ids, so nested loops report once
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in [*loop.body, *loop.orelse]:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call) or id(sub) in reported:
                        continue
                    name = dotted_name(sub.func)
                    if name in self._ALLOC_FUNCS and _has_constant_shape(sub):
                        reported.add(id(sub))
                        yield sub, (
                            f"{name}(...) with a constant shape is allocated every "
                            "loop iteration; hoist the buffer out of the loop and fill in place"
                        )


@register
class MetricInLoopRule(Rule):
    id = "S015"
    name = "metric-in-loop"
    severity = "warning"
    description = (
        "registry.counter/gauge/histogram('name') inside a loop body in "
        "codec/ or stream/ re-runs the name lookup (and lock) every "
        "iteration; hoist the instrument out of the per-frame path."
    )
    scope = ("codec", "stream")

    _FACTORIES = frozenset({"counter", "gauge", "histogram"})

    def module_check(self, tree: ast.Module, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        reported: set[int] = set()  # call node ids, so nested loops report once
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in [*loop.body, *loop.orelse]:
                for sub in ast.walk(stmt):
                    if not isinstance(sub, ast.Call) or id(sub) in reported:
                        continue
                    name = dotted_name(sub.func)
                    if name is None:
                        continue
                    if name.split(".")[-1] in ("MetricsRegistry", "FlightRecorder"):
                        reported.add(id(sub))
                        yield sub, (
                            f"{name}() constructed inside a loop; build one registry/"
                            "recorder per run and thread it through"
                        )
                        continue
                    receiver, sep, method = name.rpartition(".")
                    if not sep or method not in self._FACTORIES:
                        continue
                    # Receivers that are plausibly a metrics registry only —
                    # Tracer.gauge(...) on a `tracer`/`tr` receiver is a
                    # per-frame *sample*, not an instrument lookup.
                    low = receiver.lower()
                    if "metric" not in low and "registr" not in low:
                        continue
                    if not (sub.args and isinstance(sub.args[0], ast.Constant)
                            and isinstance(sub.args[0].value, str)):
                        continue
                    reported.add(id(sub))
                    yield sub, (
                        f"{name}({sub.args[0].value!r}) inside a loop re-resolves the "
                        "instrument every iteration; hoist it before the loop"
                    )


@register
class DirectEdgeCallInFleetRule(Rule):
    id = "S016"
    name = "direct-edge-call-in-fleet"
    severity = "error"
    description = (
        "fleet code calling EdgeServer.process/process_image directly "
        "bypasses the batching front-end (queueing, batching, admission "
        "control); route requests through BatchingEdgeServer — only the "
        "belief-side RecordingEdgeServer wrapper may touch the raw server."
    )
    scope = ("fleet",)
    exclude_files = ("batch.py",)  # the belief-side wrapper lives there
    node_types = (ast.Call,)

    _METHODS = frozenset({"process", "process_image"})

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        name = dotted_name(node.func)
        if name is None:
            return
        receiver, sep, method = name.rpartition(".")
        if not sep or method not in self._METHODS:
            return
        # Receivers that are plausibly an edge server; `batcher.serve`
        # and friends never match, nor do unrelated `x.process(...)`.
        low = receiver.lower()
        if "server" not in low and "edge" not in low:
            return
        yield node, (
            f"{name}() from fleet code skips the batching front-end; "
            "pool the request through BatchingEdgeServer.serve instead"
        )


@register
class KernelBypassRule(Rule):
    id = "S017"
    name = "kernel-registry-bypass"
    severity = "error"
    description = (
        "library code calling an extracted kernel internal "
        "(_exhaustive_search, _descend, _BlockSadEvaluator, any "
        "_*_reference body) directly skips the repro.kernels backend "
        "dispatch: the call silently runs the reference even when cext "
        "is active, and the shape checks and float32 casts the public "
        "wrappers perform are skipped.  Call estimate_motion/"
        "motion_compensate/dct_blocks instead."
    )
    scope = ("repro",)

    #: The motion search's internals, beside every ``_*_reference`` body.
    _INTERNALS = frozenset(
        {"_exhaustive_search", "_exact_sad_scan", "_pattern_search", "_descend", "_BlockSadEvaluator"}
    )
    _REFERENCE = re.compile(r"_\w+_reference")

    def applies_to(self, ctx: ModuleContext) -> bool:
        if not super().applies_to(ctx):
            return False
        # codec/ (the dispatch sites) and kernels/ (the backends) may call
        # them all; everywhere else in the library must use the wrappers.
        return "codec" not in ctx.parts and "kernels" not in ctx.parts

    def module_check(self, tree: ast.Module, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        # A module that defines a reference is its own dispatch site (the
        # renderer, utils/noise): it may call what it defines.
        own = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            name = dotted_name(node.func) if isinstance(node, ast.Call) else None
            tail = name and name.split(".")[-1]
            if tail and tail not in own and (tail in self._INTERNALS or self._REFERENCE.fullmatch(tail)):
                yield node, (
                    f"{name}() bypasses the repro.kernels dispatch; use the "
                    "public kernel wrapper so the active backend dispatches"
                )


@register
class StdlibRandomRule(Rule):
    id = "S010"
    name = "stdlib-random"
    severity = "error"
    description = "the stdlib random module bypasses the seeded-Generator discipline; use np.random.default_rng(seed)."
    node_types = (ast.Import, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, "stdlib random imported; use a seeded np.random.default_rng(...) instead"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield node, "stdlib random imported; use a seeded np.random.default_rng(...) instead"
