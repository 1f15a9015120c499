"""The DiVE-specific rule set.

Three rules, each kept because it found a real bug in this tree (the
census is in EXPERIMENTS.md, "PR 28", with the later replay that retired
S003, dtype-less codec allocations).  Rule ids are stable; suppress a
deliberate violation inline with ``# repro: noqa[S001]``.

==== ====================== ======== =======================================
id   name                   severity checks
==== ====================== ======== =======================================
S001 uncontrolled-entropy   error    every literal entropy source: unseeded
                                     ``np.random.default_rng()``, legacy
                                     ``np.random.*``, ``import random`` /
                                     ``secrets``, ``os.urandom``,
                                     ``uuid.uuid1/4``, ``datetime.now`` /
                                     ``utcnow`` / ``today`` and the wall
                                     clocks ``time.time()`` /
                                     ``time.monotonic()``
S011 loop-constant-alloc    warning  ``np.zeros/np.empty`` with a constant
                                     shape allocated inside a loop body in
                                     ``codec/`` — hoist the buffer
S012 lock-discipline        error    see :mod:`repro.check.concurrency`
==== ====================== ======== =======================================

S001 applies to the whole tree, so an entropy source hidden behind a
wrapper is still flagged where the wrapper calls it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.engine import ModuleContext, Rule, dotted_name, register

__all__ = ["LoopConstantAllocRule", "UncontrolledEntropyRule"]

_SEEDED_GENERATOR = "use a seeded np.random.default_rng(...) or thread a Generator"
_WALL_CLOCK = "time spans with time.perf_counter() and decide on the simulated clock"

#: Legacy global-state ``np.random`` functions (non-exhaustive but covers
#: everything that draws from or reseeds the hidden global RandomState).
_LEGACY_NP_RANDOM = (
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "normal", "uniform", "choice", "shuffle", "permutation",
    "standard_normal", "poisson", "beta", "gamma", "exponential",
    "binomial", "lognormal", "laplace", "multivariate_normal",
    "get_state", "set_state",
)

#: Every literal entropy source S001 knows, by canonical dotted name →
#: what to do instead.  ``_ENTROPY_MODULES`` are flagged at their import,
#: ``_ENTROPY_CALLS`` at each call.
_ENTROPY_MODULES = {
    "random": _SEEDED_GENERATOR,
    "secrets": _SEEDED_GENERATOR,
}
_ENTROPY_CALLS = {
    **{f"numpy.random.{fn}": f"global-state RNG; {_SEEDED_GENERATOR}" for fn in _LEGACY_NP_RANDOM},
    "numpy.random.RandomState": f"legacy RNG; {_SEEDED_GENERATOR}",
    "os.urandom": f"OS entropy; {_SEEDED_GENERATOR}",
    "uuid.uuid1": f"host- and time-derived id; {_SEEDED_GENERATOR}",
    "uuid.uuid4": f"OS entropy; {_SEEDED_GENERATOR}",
    "datetime.datetime.now": f"wall clock; {_WALL_CLOCK}",
    "datetime.datetime.utcnow": f"wall clock; {_WALL_CLOCK}",
    "datetime.datetime.today": f"wall clock; {_WALL_CLOCK}",
    "datetime.date.today": f"wall clock; {_WALL_CLOCK}",
    "time.time": f"wall clock; {_WALL_CLOCK}",
    "time.monotonic": f"wall clock; {_WALL_CLOCK}",
}


@register
class UncontrolledEntropyRule(Rule):
    id = "S001"
    name = "uncontrolled-entropy"
    severity = "error"
    description = (
        "every run must be a function of its seed: no unseeded or global-state "
        "RNG, no stdlib random/secrets, no OS entropy, no wall clock (use "
        "perf_counter for spans) — the golden digests depend on it."
    )
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        if isinstance(node, ast.Import):
            modules = [alias.name.split(".", 1)[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module.split(".", 1)[0]] if node.level == 0 else []
        else:
            yield from self._check_call(node, ctx)
            return
        for module in modules:
            if module in _ENTROPY_MODULES:
                yield node, f"stdlib {module} imported; {_ENTROPY_MODULES[module]}"

    @staticmethod
    def _check_call(node: ast.Call, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        written = dotted_name(node.func)
        if written is None:
            return
        name = ctx.resolve(written)
        if name.startswith("np."):  # the conventional alias, imported or not
            name = "numpy." + name[3:]
        if name == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield node, f"{written}() without a seed breaks reproducibility; pass a seed or thread a Generator"
        elif name in _ENTROPY_CALLS:
            yield node, f"{written}() is {_ENTROPY_CALLS[name]}"


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


def _calls_in_loop(loop: ast.For | ast.While) -> Iterator[ast.Call]:
    """Calls in ``loop``'s body whose innermost enclosing loop is ``loop``.

    A nested loop's body is left to that loop's own dispatch (so each call
    is reported once); its header runs every outer iteration, so it is
    this loop's.
    """
    stack: list[ast.AST] = [*loop.body, *loop.orelse]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.For):
            stack += [node.target, node.iter]
            continue
        if isinstance(node, ast.While):
            stack.append(node.test)
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


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
    node_types = (ast.For, ast.While)

    _ALLOC_FUNCS = frozenset({"np.zeros", "np.empty", "numpy.zeros", "numpy.empty"})

    def check(self, node: ast.For | ast.While, ctx: ModuleContext) -> Iterator[tuple[ast.AST, str]]:
        for call in _calls_in_loop(node):
            name = dotted_name(call.func)
            if name in self._ALLOC_FUNCS and _has_constant_shape(call):
                yield call, (
                    f"{name}(...) with a constant shape is allocated every "
                    "loop iteration; hoist the buffer out of the loop and fill in place"
                )
