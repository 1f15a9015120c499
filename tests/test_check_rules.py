"""Tests for the repro.check static-analysis engine and rule set.

Every rule gets one true-positive and one true-negative fixture snippet,
checked through :func:`repro.check.check_source` with a path chosen to
satisfy the rule's scope.  The shipped tree itself must lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.check import (
    Finding,
    all_rules,
    check_paths,
    check_source,
    render_json,
    render_text,
    rule_table,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: rule id -> (scoped path, true-positive snippet, true-negative snippet)
FIXTURES = {
    "S001": (
        "src/repro/utils/x.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(42)\n",
    ),
    "S002": (
        "src/repro/codec/x.py",
        "import time\nstart = time.time()\n",
        "import time\nstart = time.perf_counter()\n",
    ),
    "S003": (
        "src/repro/codec/x.py",
        "import numpy as np\nbuf = np.zeros((4, 4))\n",
        "import numpy as np\nbuf = np.zeros((4, 4), dtype=np.float32)\n",
    ),
    "S004": (
        "src/repro/core/x.py",
        "base_qp = 90\n",
        "base_qp = 30\n",
    ),
    "S005": (
        "src/repro/network/x.py",
        "size_bytes = total_bits + header_bits\n",
        "size_bytes = (total_bits + header_bits) / 8\n",
    ),
    "S006": (
        "src/repro/utils/x.py",
        "def f(items=[]):\n    return items\n",
        "def f(items=None):\n    return items or []\n",
    ),
    "S007": (
        "src/repro/utils/x.py",
        "try:\n    g()\nexcept:\n    pass\n",
        "try:\n    g()\nexcept ValueError:\n    pass\n",
    ),
    "S008": (
        "src/repro/core/x.py",
        "def run(clip):\n    for i in range(clip.n_frames):\n        process(clip.frame(i))\n",
        (
            "def run(clip, tracer):\n"
            "    for i in range(clip.n_frames):\n"
            "        with tracer.span('frame'):\n"
            "            process(clip.frame(i))\n"
        ),
    ),
    "S009": (
        "src/repro/analysis/x.py",
        "def report(x):\n    print(x)\n",
        "def report(x):\n    return str(x)\n",
    ),
    "S010": (
        "src/repro/utils/x.py",
        "import random\n",
        "import numpy as np\n",
    ),
    "S011": (
        "src/repro/codec/x.py",
        (
            "import numpy as np\n"
            "def f(frames):\n"
            "    for fr in frames:\n"
            "        buf = np.zeros((16, 16), dtype=np.float64)\n"
            "        buf += fr\n"
        ),
        (
            "import numpy as np\n"
            "def f(frames):\n"
            "    buf = np.zeros((16, 16), dtype=np.float64)\n"
            "    for fr in frames:\n"
            "        buf[:] = fr\n"
        ),
    ),
    "S012": (
        "src/repro/stream/x.py",
        (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n"
        ),
        (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            return self._n\n"
        ),
    ),
    "S013": (
        "src/repro/network/x.py",
        (
            "def frame_budget(header_bits, size_bytes):\n"
            "    payload = size_bytes\n"
            "    return header_bits + payload\n"
        ),
        (
            "def frame_budget(header_bits, size_bytes):\n"
            "    payload = size_bytes * 8\n"
            "    return header_bits + payload\n"
        ),
    ),
    "S015": (
        "src/repro/stream/x.py",
        (
            "def pump(frames, metrics, t):\n"
            "    for fr in frames:\n"
            "        metrics.counter('frames_seen').inc(1.0, at=t)\n"
        ),
        (
            "def pump(frames, metrics, tracer, t):\n"
            "    seen = metrics.counter('frames_seen')\n"
            "    for fr in frames:\n"
            "        seen.inc(1.0, at=t)\n"
            "        tracer.gauge('qp', 31.0)\n"
        ),
    ),
    "S016": (
        "src/repro/fleet/x.py",
        (
            "def settle(server, encoded, record, t):\n"
            "    return server.process(encoded, record, arrival_time=t)\n"
        ),
        (
            "def settle(batcher, requests):\n"
            "    return batcher.serve(requests)\n"
        ),
    ),
    "S017": (
        "src/repro/experiments/x.py",
        (
            "from repro.codec.motion import _exhaustive_search\n"
            "def search(cur, ref):\n"
            "    return _exhaustive_search(cur, ref, search_range=8, block=16,\n"
            "                              lambda_mv=4.0, transformed=False, subpel=True)\n"
        ),
        (
            "from repro.codec.motion import estimate_motion\n"
            "def search(cur, ref):\n"
            "    return estimate_motion(cur, ref, method='esa', search_range=8)\n"
        ),
    ),
    "S014": (
        "src/repro/codec/x.py",
        (
            "import numpy as np\n"
            "def jitter(scale):\n"
            "    return np.random.default_rng().standard_normal() * scale\n"
            "def encode(frame):\n"
            "    return frame + jitter(0.5)\n"
        ),
        (
            "import numpy as np\n"
            "def jitter(rng, scale):\n"
            "    return rng.standard_normal() * scale\n"
            "def encode(frame, rng):\n"
            "    return frame + jitter(rng, 0.5)\n"
        ),
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_true_positive(self, rule_id):
        path, positive, _ = FIXTURES[rule_id]
        findings = check_source(positive, path=path)
        assert rule_id in {f.rule for f in findings}, f"{rule_id} missed its fixture"

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_true_negative(self, rule_id):
        path, _, negative = FIXTURES[rule_id]
        findings = check_source(negative, path=path)
        assert rule_id not in {f.rule for f in findings}, f"{rule_id} false positive"

    def test_every_registered_rule_has_a_fixture(self):
        assert {r.id for r in all_rules()} == set(FIXTURES)


class TestRuleDetails:
    def test_metric_registry_constructed_in_loop_flagged(self):
        src = "while pending:\n    registry = MetricsRegistry()\n"
        findings = check_source(src, path="src/repro/stream/x.py")
        assert "S015" in {f.rule for f in findings}

    def test_tracer_gauge_sample_in_loop_not_flagged(self):
        # Tracer.gauge(name, value) records a per-frame *sample*; only
        # registry-receiver instrument lookups are the S015 smell.
        src = "for fr in frames:\n    tr.gauge('server_detections', 3.0)\n"
        assert check_source(src, path="src/repro/stream/x.py") == []

    def test_metric_in_loop_out_of_scope_not_flagged(self):
        src = "for fr in frames:\n    metrics.counter('n').inc(1.0, at=0.0)\n"
        assert check_source(src, path="src/repro/edge/x.py") == []

    def test_legacy_np_random_flagged(self):
        findings = check_source("import numpy as np\nx = np.random.rand(3)\n", path="a.py")
        assert [f.rule for f in findings] == ["S001"]

    def test_seeded_generator_methods_not_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.normal(0, 1, 5)\n"
        assert check_source(src, path="a.py") == []

    def test_scope_limits_rule_to_directory(self):
        src = "import time\nstart = time.time()\n"
        assert check_source(src, path="src/repro/codec/x.py")
        assert check_source(src, path="src/repro/analysis/x.py") == []

    def test_kernel_internals_allowed_at_dispatch_sites_and_backends(self):
        # codec/ holds the dispatch seams and kernels/ the backends — the
        # two places that legitimately call the extracted internals.
        src = "def f(ev, args):\n    return _descend_reference(ev, *args)\n"
        assert check_source(src, path="src/repro/codec/motion.py") == []
        assert check_source(src, path="src/repro/kernels/cext.py") == []
        assert "S017" in {f.rule for f in check_source(src, path="src/repro/fleet/x.py")}

    def test_every_reference_body_is_flagged_outside_its_own_module(self):
        # The fleet reaching for a transform reference skips cext; the
        # renderer calling the reference it defines is its own dispatch site.
        src = "from repro.codec.transform import _reconstruct_reference\nout = _reconstruct_reference(p, lv, qp)\n"
        assert "S017" in {f.rule for f in check_source(src, path="src/repro/fleet/x.py")}
        src = (
            "def _render_surfaces(dirs, origin, scene, placed):\n"
            "    return _render_surfaces_reference(dirs, origin, scene, placed)\n"
            "def _render_surfaces_reference(dirs, origin, scene, placed):\n"
            "    return None\n"
        )
        assert check_source(src, path="src/repro/world/renderer.py") == []

    def test_kernel_evaluator_construction_flagged_outside_codec(self):
        src = "from repro.codec.motion import _BlockSadEvaluator\nev = _BlockSadEvaluator(c, r, 8, 16)\n"
        assert "S017" in {f.rule for f in check_source(src, path="src/repro/stream/x.py")}

    def test_qp_bounds_in_comparison_and_call(self):
        assert check_source("ok = qp > 60\n", path="a.py")[0].rule == "S004"
        assert check_source("enc.encode(f, base_qp=77)\n", path="a.py")[0].rule == "S004"
        assert check_source("ok = 0 <= qp <= 51\n", path="a.py") == []

    def test_bits_bytes_call_keyword(self):
        findings = check_source("Frame(size_bytes=total_bits)\n", path="a.py")
        assert [f.rule for f in findings] == ["S005"]
        assert check_source("Frame(size_bytes=int(total_bits / 8))\n", path="a.py") == []

    def test_print_allowed_in_cli_and_reporting(self):
        src = "print('table')\n"
        assert check_source(src, path="src/repro/cli.py") == []
        assert check_source(src, path="src/repro/experiments/reporting.py") == []
        assert check_source(src, path="src/repro/obs/export.py")

    def test_loop_alloc_dynamic_shape_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(frames, n):\n"
            "    for fr in frames:\n"
            "        buf = np.zeros((n, fr.shape[1]), dtype=np.float64)\n"
        )
        assert check_source(src, path="src/repro/codec/x.py") == []

    def test_loop_alloc_shape_keyword_and_while(self):
        src = (
            "import numpy as np\n"
            "while True:\n"
            "    buf = np.empty(shape=(8, 8), dtype=np.int32)\n"
        )
        findings = check_source(src, path="src/repro/codec/x.py")
        assert [f.rule for f in findings] == ["S011"]

    def test_loop_alloc_nested_loops_report_once(self):
        src = (
            "import numpy as np\n"
            "for a in range(2):\n"
            "    for b in range(2):\n"
            "        buf = np.zeros(64, dtype=np.uint8)\n"
        )
        findings = check_source(src, path="src/repro/codec/x.py")
        assert [f.rule for f in findings] == ["S011"]

    def test_loop_alloc_noqa_suppresses(self):
        src = (
            "import numpy as np\n"
            "for a in range(2):\n"
            "    buf = np.zeros(64, dtype=np.uint8)  # repro: noqa[S011]\n"
        )
        assert check_source(src, path="src/repro/codec/x.py") == []

    def test_syntax_error_reported_not_raised(self):
        findings = check_source("def f(:\n", path="broken.py")
        assert len(findings) == 1
        assert findings[0].rule == "E999"


class TestNoqa:
    def test_rule_specific_noqa_suppresses(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[S001]\n"
        assert check_source(src, path="a.py") == []

    def test_bare_noqa_suppresses_everything(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa\n"
        assert check_source(src, path="a.py") == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[S007]\n"
        assert [f.rule for f in check_source(src, path="a.py")] == ["S001"]

    def test_noqa_only_covers_its_own_line(self):
        src = (
            "import numpy as np\n"
            "a = np.random.default_rng()  # repro: noqa[S001]\n"
            "b = np.random.default_rng()\n"
        )
        findings = check_source(src, path="a.py")
        assert [(f.rule, f.line) for f in findings] == [("S001", 3)]


class TestReporters:
    def _result(self):
        path, positive, _ = FIXTURES["S001"]
        from repro.check import CheckResult

        return CheckResult(findings=check_source(positive, path=path), files_checked=1)

    def test_text_format(self):
        text = render_text(self._result())
        assert "S001" in text
        assert text.endswith("1 finding in 1 files")

    def test_json_schema(self):
        doc = json.loads(render_json(self._result()))
        assert doc["version"] == 1
        assert doc["files_checked"] == 1
        assert doc["summary"]["total"] == 1
        assert doc["summary"]["by_rule"] == {"S001": 1}
        assert doc["summary"]["by_severity"] == {"error": 1}
        (finding,) = doc["findings"]
        assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
        assert finding["line"] == 2

    def test_rule_table_lists_all_rules(self):
        table = rule_table()
        for rule in all_rules():
            assert rule.id in table

    def test_findings_sorted_and_json_stable(self):
        f1 = Finding("S001", "error", "b.py", 1, 0, "x")
        f2 = Finding("S001", "error", "a.py", 9, 0, "x")
        from repro.check import CheckResult

        doc = json.loads(render_json(CheckResult(findings=sorted([f1, f2], key=lambda f: f.sort_key), files_checked=2)))
        assert [f["path"] for f in doc["findings"]] == ["a.py", "b.py"]


class TestShippedTree:
    def test_src_lints_clean(self):
        result = check_paths([REPO_ROOT / "src"])
        assert result.files_checked > 50
        assert result.findings == [], render_text(result)

    def test_tests_lint_clean(self):
        result = check_paths([REPO_ROOT / "tests"])
        assert result.findings == [], render_text(result)

    def test_benchmarks_lint_clean(self):
        result = check_paths([REPO_ROOT / "benchmarks"])
        assert result.findings == [], render_text(result)

    def test_examples_lint_clean(self):
        result = check_paths([REPO_ROOT / "examples"])
        assert result.findings == [], render_text(result)


class TestCliLint:
    def test_lint_src_exits_zero(self, capsys):
        from repro.cli import main

        rc = main(["lint", str(REPO_ROOT / "src")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 findings" in out

    def test_lint_json_output(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        rc = main(["lint", "--format", "json", str(bad)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["summary"]["by_rule"] == {"S001": 1}

    def test_list_rules(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--list-rules"])
        assert rc == 0
        assert "S010" in capsys.readouterr().out
