"""Tests for the semantic-analysis layer: symbols, call graph, dataflow,
and the S012/S013/S014 analyzers.

Fixture projects are built with :func:`build_project` from in-memory
sources so resolution across modules (aliased imports, factories, method
lookup) is exercised without touching the shipped tree.
"""

from repro.check import (
    TaintModel,
    build_callgraph,
    build_project,
    check_source,
    describe_chain,
    run_dataflow,
)
from repro.check.symbols import module_name_for_path


class TestSymbols:
    def test_module_name_anchored_at_package_root(self):
        assert module_name_for_path("src/repro/stream/clock.py") == "repro.stream.clock"
        assert module_name_for_path("tests/test_x.py") == "tests.test_x"

    def test_module_name_fixture_fallback(self):
        assert module_name_for_path("a.py") == "a"

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/check/__init__.py") == "repro.check"

    def test_methods_indexed_with_class_qualname(self):
        project = build_project(
            {"src/repro/codec/m.py": "class C:\n    def f(self):\n        pass\n"}
        )
        assert "repro.codec.m.C.f" in project.functions
        assert "repro.codec.m.C" in project.classes

    def test_resolve_aliased_from_import(self):
        project = build_project(
            {
                "src/repro/utils/h.py": "def helper():\n    pass\n",
                "src/repro/stream/u.py": "from repro.utils.h import helper as hh\n",
            }
        )
        module = project.module_for("src/repro/stream/u.py")
        assert project.resolve(module, "hh") == ("function", "repro.utils.h.helper")

    def test_method_on_walks_base_classes(self):
        project = build_project(
            {
                "src/repro/codec/b.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        pass\n"
                    "class Child(Base):\n"
                    "    def own(self):\n"
                    "        pass\n"
                )
            }
        )
        child = project.classes["repro.codec.b.Child"]
        shared = project.method_on(child, "shared")
        assert shared is not None and shared.qualname == "repro.codec.b.Base.shared"


class TestCallGraph:
    def _project(self):
        return build_project(
            {
                "src/repro/codec/enc.py": (
                    "class Encoder:\n"
                    "    def encode(self, f):\n"
                    "        return self._pack(f)\n"
                    "    def _pack(self, f):\n"
                    "        return f\n"
                    "def make_encoder():\n"
                    "    return Encoder()\n"
                ),
                "src/repro/stream/use.py": (
                    "from repro.codec.enc import make_encoder as build\n"
                    "from repro.codec import enc as codec_mod\n"
                    "def go(f):\n"
                    "    e = build()\n"
                    "    return e.encode(f)\n"
                    "def go2(f):\n"
                    "    e = codec_mod.make_encoder()\n"
                    "    return e.encode(f)\n"
                ),
            }
        )

    def test_self_method_call_resolves(self):
        graph = build_callgraph(self._project())
        callees = [s.callee for s in graph.callees("repro.codec.enc.Encoder.encode")]
        assert callees == ["repro.codec.enc.Encoder._pack"]

    def test_factory_indirection_types_the_local(self):
        graph = build_callgraph(self._project())
        callees = [s.callee for s in graph.callees("repro.stream.use.go")]
        assert "repro.codec.enc.Encoder.encode" in callees

    def test_aliased_module_import_resolves(self):
        graph = build_callgraph(self._project())
        callees = [s.callee for s in graph.callees("repro.stream.use.go2")]
        assert "repro.codec.enc.make_encoder" in callees
        assert "repro.codec.enc.Encoder.encode" in callees

    def test_reach_crosses_modules_and_describes_chain(self):
        project = build_project(
            {
                "src/repro/utils/t.py": "import time\ndef stamp():\n    return time.time()\n",
                "src/repro/stream/s.py": (
                    "from repro.utils.t import stamp\n"
                    "def tick(frame):\n"
                    "    return stamp()\n"
                ),
            }
        )
        graph = build_callgraph(project)
        chain = graph.reach("repro.stream.s.tick", lambda s: s.callee == "time.time")
        assert chain is not None
        assert describe_chain(chain) == "stamp() -> time.time()"

    def test_reach_respects_max_depth(self):
        project = build_project(
            {
                "src/repro/utils/deep.py": (
                    "import time\n"
                    "def a():\n"
                    "    return b()\n"
                    "def b():\n"
                    "    return time.time()\n"
                )
            }
        )
        graph = build_callgraph(project)
        match = lambda s: s.callee == "time.time"
        assert graph.reach("repro.utils.deep.a", match, max_depth=1) is None
        assert graph.reach("repro.utils.deep.a", match, max_depth=2) is not None

    def test_callgraph_cached_on_project(self):
        project = self._project()
        assert build_callgraph(project) is build_callgraph(project)


class _SourceModel(TaintModel):
    """Taints names starting with ``src`` and records sink() argument taints."""

    def __init__(self):
        self.sink_taints = []

    def name_taint(self, name):
        return frozenset({"T"}) if name.startswith("src") else frozenset()

    def call_taint(self, node, dotted, arg_taints):
        if dotted == "sink":
            self.sink_taints.append(frozenset().union(*arg_taints) if arg_taints else frozenset())
        return frozenset()


def _flow(body):
    import ast

    func = ast.parse("def f(src, other):\n" + body).body[0]
    model = _SourceModel()
    run_dataflow(func, model)
    return model


class TestDataflow:
    def test_taint_propagates_through_assignment(self):
        model = _flow("    x = src\n    sink(x)\n")
        assert model.sink_taints == [frozenset({"T"})]

    def test_branches_union_merge(self):
        model = _flow(
            "    if other:\n"
            "        x = src\n"
            "    else:\n"
            "        x = 1\n"
            "    sink(x)\n"
        )
        assert model.sink_taints == [frozenset({"T"})]

    def test_rebinding_clears_taint(self):
        model = _flow("    x = src\n    x = 1\n    sink(x)\n")
        assert model.sink_taints == [frozenset()]

    def test_loop_carried_taint_seen_on_second_pass(self):
        # ``x`` only becomes tainted at the bottom of the loop; the second
        # pass over the body must observe it at the top.
        model = _flow(
            "    x = 1\n"
            "    for i in other:\n"
            "        sink(x)\n"
            "        x = src\n"
        )
        assert frozenset({"T"}) in model.sink_taints

    def test_global_declaration_freezes_name(self):
        model = _flow("    global g\n    g = src\n    sink(g)\n")
        assert model.sink_taints == [frozenset()]


class TestLockDiscipline:
    PATH = "src/repro/stream/x.py"

    def _rules(self, src, path=PATH):
        return [f.rule for f in check_source(src, path=path)]

    def test_blocking_sleep_under_lock(self):
        src = (
            "import threading\n"
            "import time\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def slow(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
            "            self._n += 1\n"
        )
        findings = check_source(src, path=self.PATH)
        assert any(f.rule == "S012" and "sleep" in f.message for f in findings)

    def test_private_helper_called_only_under_lock_is_exempt(self):
        src = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
            "    def _bump_locked(self):\n"
            "        self._n += 1\n"
        )
        assert "S012" not in self._rules(src)

    def test_wallclock_reachable_from_stream_stage(self):
        project = build_project(
            {
                "src/repro/utils/timeutil.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
                "src/repro/stream/x.py": (
                    "from repro.utils.timeutil import stamp\n"
                    "def stage_tick(frame):\n"
                    "    return stamp()\n"
                ),
            }
        )
        module = project.module_for("src/repro/stream/x.py")
        findings = check_source(
            "from repro.utils.timeutil import stamp\n"
            "def stage_tick(frame):\n"
            "    return stamp()\n",
            path="src/repro/stream/x.py",
            project=project,
        )
        assert module is not None
        assert any(
            f.rule == "S012" and "time.time" in f.message for f in findings
        ), findings

    def test_perf_counter_is_sanctioned(self):
        src = (
            "import time\n"
            "def stage_tick(frame):\n"
            "    return time.perf_counter()\n"
        )
        assert "S012" not in self._rules(src)


class TestUnitFlow:
    PATH = "src/repro/network/x.py"

    def _rules(self, src):
        return [f.rule for f in check_source(src, path=self.PATH)]

    def test_conversion_factor_clears_mismatch(self):
        src = (
            "def f(total_bits):\n"
            "    size_bytes = total_bits / 8\n"
            "    return size_bytes\n"
        )
        assert "S013" not in self._rules(src)

    def test_wall_vs_virtual_time_mix_flagged(self):
        src = (
            "import time\n"
            "def age(capture_time):\n"
            "    elapsed = time.time() - capture_time\n"
            "    return elapsed\n"
        )
        findings = check_source(src, path="src/repro/stream/x.py")
        assert any(f.rule == "S013" for f in findings)

    def test_vtime_vs_vtime_is_fine(self):
        src = (
            "def age(capture_time, finish_time):\n"
            "    return finish_time - capture_time\n"
        )
        assert check_source(src, path="src/repro/stream/x.py") == []

    def test_s005_textual_case_not_double_flagged(self):
        # The classic same-expression mix is S005's; S013 must stay quiet
        # so each line carries exactly one diagnosis.
        src = "def f(total_bits, header_bits):\n    size_bytes = total_bits + header_bits\n    return size_bytes\n"
        findings = check_source(src, path=self.PATH)
        assert [f.rule for f in findings] == ["S005"]

    def test_derived_rate_quantity_untainted(self):
        src = (
            "def rate(size_bytes, finish_time, capture_time):\n"
            "    throughput = size_bytes / (finish_time - capture_time)\n"
            "    return throughput\n"
        )
        assert "S013" not in self._rules(src)


class TestWrappedEntropy:
    PATH = "src/repro/codec/x.py"

    def test_wrapper_flagged_at_boundary_only(self):
        src = (
            "import numpy as np\n"
            "def jitter(scale):\n"
            "    return np.random.default_rng().standard_normal() * scale\n"
            "def encode(frame):\n"
            "    return frame + jitter(0.5)\n"
        )
        findings = [f for f in check_source(src, path=self.PATH) if f.rule == "S014"]
        # One S014 at the deepest wrapper-caller, not one per transitive caller.
        assert len(findings) == 1
        assert "jitter" in findings[0].message

    def test_seeded_rng_through_wrapper_clean(self):
        src = (
            "import numpy as np\n"
            "def jitter(scale):\n"
            "    return np.random.default_rng(7).standard_normal() * scale\n"
            "def encode(frame):\n"
            "    return frame + jitter(0.5)\n"
        )
        assert "S014" not in [f.rule for f in check_source(src, path=self.PATH)]

    def test_datetime_now_through_wrapper_flagged(self):
        src = (
            "import datetime\n"
            "def tag():\n"
            "    return datetime.datetime.now()\n"
            "def encode(frame):\n"
            "    return (frame, tag())\n"
        )
        assert "S014" in [f.rule for f in check_source(src, path=self.PATH)]

    def test_direct_site_left_to_per_node_rules(self):
        # A direct unseeded call is S001's finding; S014 only reports
        # call-graph-wrapped sites invisible to the per-node pass.
        src = "import numpy as np\ndef encode(frame):\n    return frame + np.random.default_rng().standard_normal()\n"
        rules = [f.rule for f in check_source(src, path=self.PATH)]
        assert "S001" in rules
        assert "S014" not in rules
