"""Tests for the repro.check static-analysis engine and rule set.

Every rule keeps the bug it earned its place on: the ``*-117c3aa`` cases
are the three lines the linter caught in the tree it first ran on, and
``S012-flight`` is today's ``metrics/flight.py`` with the lock removed
around one ``recorded`` read.  Cases named after a deleted rule (S002,
S010, S014) are that rule's fixtures, now caught by S001.  Each case is
checked through :func:`repro.check.check_source` with a path chosen to
satisfy the rule's scope.  The shipped tree itself must lint clean.
"""

import json
import re
from pathlib import Path

import pytest

from repro.check import (
    CheckResult,
    Finding,
    all_rules,
    check_paths,
    check_source,
    render_json,
    render_text,
    rule_table,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

_FLIGHT = (REPO_ROOT / "src/repro/metrics/flight.py").read_text(encoding="utf-8")
_LOCKED_READ = "        with self._lock:\n            return self._recorded\n"

_WALLCLOCK_HELPER = "import time\ndef stamp():\n    return time.time()\n"

#: case id -> (rule that must fire, scoped path, true positive, true negative)
FIXTURES = {
    "S001": (
        "S001",
        "src/repro/utils/x.py",
        "import numpy as np\ndef encode(frame):\n    return frame + np.random.default_rng().standard_normal()\n",
        "import numpy as np\nrng = np.random.default_rng(42)\n",
    ),
    "S001-ransac-117c3aa": (
        "S001",
        "src/repro/utils/ransac.py",
        (
            "import numpy as np\n"
            "def ransac_linear(a, b, rng=None):\n"
            "    if rng is None:\n"
            "        rng = np.random.default_rng()\n"
        ),
        (
            "import numpy as np\n"
            "def ransac_linear(a, b, rng=None):\n"
            "    if rng is None:\n"
            "        rng = np.random.default_rng(0)\n"
        ),
    ),
    "S001-trajectory-117c3aa": (
        "S001",
        "src/repro/world/trajectory.py",
        (
            "import numpy as np\n"
            "class EgoTrajectory:\n"
            "    def imu_samples(self, gyro_noise=0.0, rng=None):\n"
            "        if gyro_noise > 0.0:\n"
            "            if rng is None:\n"
            "                rng = np.random.default_rng()\n"
        ),
        (
            "import numpy as np\n"
            "class EgoTrajectory:\n"
            "    def imu_samples(self, gyro_noise=0.0, rng=None, seed=None):\n"
            "        if gyro_noise > 0.0:\n"
            "            if rng is None:\n"
            "                rng = np.random.default_rng(seed)\n"
        ),
    ),
    "S002": (
        "S001",
        "src/repro/codec/x.py",
        "import time\nstart = time.time()\n",
        "import time\nstart = time.perf_counter()\n",
    ),
    "S010": (
        "S001",
        "src/repro/utils/x.py",
        "import random\n",
        "import numpy as np\n",
    ),
    "S011": (
        "S011",
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
        "S012",
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
    "S012-flight": (
        "S012",
        "src/repro/metrics/flight.py",
        _FLIGHT.replace(_LOCKED_READ, "        return self._recorded\n"),
        _FLIGHT,
    ),
    "S012-wallclock": (
        "S001",
        "src/repro/utils/timeutil.py",
        _WALLCLOCK_HELPER,
        _WALLCLOCK_HELPER.replace("time.time()", "time.perf_counter()"),
    ),
    "S014": (
        "S001",
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
    "S014-datetime": (
        "S001",
        "src/repro/codec/x.py",
        (
            "import datetime\n"
            "def tag():\n"
            "    return datetime.datetime.now()\n"
            "def encode(frame):\n"
            "    return (frame, tag())\n"
        ),
        "def encode(frame, at):\n    return (frame, at)\n",
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("case", sorted(FIXTURES))
    def test_true_positive(self, case):
        rule_id, path, positive, negative = FIXTURES[case]
        assert positive != negative, f"{case}: the fixture's mutation no longer applies"
        findings = check_source(positive, path=path)
        assert rule_id in {f.rule for f in findings}, f"{rule_id} missed {case}"

    @pytest.mark.parametrize("case", sorted(FIXTURES))
    def test_true_negative(self, case):
        rule_id, path, _, negative = FIXTURES[case]
        findings = check_source(negative, path=path)
        assert findings == [], f"false positive on {case}: {findings}"

    def test_every_registered_rule_has_a_fixture(self):
        assert [r.id for r in all_rules()] == ["S001", "S011", "S012"]
        assert {rule for rule, *_ in FIXTURES.values()} == {r.id for r in all_rules()}


class TestRuleDetails:
    def test_legacy_np_random_flagged(self):
        findings = check_source("import numpy as np\nx = np.random.rand(3)\n", path="a.py")
        assert [f.rule for f in findings] == ["S001"]

    def test_seeded_generator_methods_not_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.normal(0, 1, 5)\n"
        assert check_source(src, path="a.py") == []

    def test_entropy_wrapper_flagged_at_its_source_only(self):
        src = (
            "import numpy as np\n"
            "def jitter(scale):\n"
            "    return np.random.default_rng().standard_normal() * scale\n"
            "def encode(frame):\n"
            "    return frame + jitter(0.5)\n"
        )
        findings = check_source(src, path="src/repro/codec/x.py")
        # One finding at the unseeded call inside the wrapper, none at its callers.
        assert [(f.rule, f.line) for f in findings] == [("S001", 3)]

    def test_seeded_rng_through_wrapper_not_flagged(self):
        src = (
            "import numpy as np\n"
            "def jitter(scale):\n"
            "    return np.random.default_rng(7).standard_normal() * scale\n"
            "def encode(frame):\n"
            "    return frame + jitter(0.5)\n"
        )
        assert check_source(src, path="src/repro/codec/x.py") == []

    def test_direct_entropy_site_flagged_once(self):
        src = "import numpy as np\ndef encode(frame):\n    return frame + np.random.default_rng().standard_normal()\n"
        findings = check_source(src, path="src/repro/codec/x.py")
        assert [(f.rule, f.line) for f in findings] == [("S001", 3)]

    ENTROPY = {
        "time-time": "from time import time\nstart = time()\n",
        "time-monotonic": "import time as clock\nstart = clock.monotonic()\n",
        "datetime-utcnow": "from datetime import datetime\nstamp = datetime.utcnow()\n",
        "date-today": "import datetime as dt\nday = dt.date.today()\n",
        "os-urandom": "from os import urandom\nkey = urandom(8)\n",
        "uuid4": "import uuid\nname = uuid.uuid4()\n",
        "secrets": "import secrets\n",
        "random": "from random import choice\n",
        "numpy-random": "from numpy import random\nx = random.normal(0, 1)\n",
        "RandomState": "import numpy as np\nrs = np.random.RandomState(3)\n",
    }

    @pytest.mark.parametrize("source", sorted(ENTROPY))
    def test_entropy_sources_resolved_through_imports(self, source):
        assert [f.rule for f in check_source(self.ENTROPY[source], path="a.py")] == ["S001"]

    def test_simulated_clock_now_not_flagged(self):
        src = "def stamp(self):\n    return self.clock.now()\n"
        assert check_source(src, path="src/repro/stream/x.py") == []

    def test_scope_limits_rule_to_directory(self):
        src = "import numpy as np\nfor i in range(3):\n    buf = np.zeros((4, 4))\n"
        assert check_source(src, path="src/repro/codec/x.py")
        assert check_source(src, path="src/repro/analysis/x.py") == []

    def test_scope_ignores_the_folders_a_checkout_sits_in(self, tmp_path, monkeypatch):
        root = tmp_path / "codec" / "repro"
        alloc = "import numpy as np\nfor i in range(3):\n    buf = np.zeros(8)\n"
        for rel in ("src/repro/codec/enc.py", "src/repro/utils/u.py", "tests/test_codec.py",
                    "benchmarks/bench_codec.py"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(alloc)
        dirs = ["src", "tests", "benchmarks"]

        def found(result, base):
            return sorted((f.rule, Path(f.path).relative_to(base).as_posix(), f.line) for f in result.findings)

        monkeypatch.chdir(root)
        from_root = found(check_paths(dirs), ".")
        monkeypatch.chdir(tmp_path)
        through_parents = found(check_paths([f"codec/repro/{d}" for d in dirs]), "codec/repro")
        absolute = found(check_paths([root / d for d in dirs]), root)
        assert from_root == [("S011", "src/repro/codec/enc.py", 3)]
        assert through_parents == from_root
        assert absolute == from_root

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

    def test_loop_alloc_in_nested_loop_header_belongs_to_outer_loop(self):
        src = (
            "import numpy as np\n"
            "for a in range(2):\n"
            "    for b in np.zeros(4, dtype=np.uint8):\n"
            "        pass\n"
        )
        findings = check_source(src, path="src/repro/codec/x.py")
        assert [(f.rule, f.line) for f in findings] == [("S011", 3)]

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

    def test_lock_constructor_resolved_through_imports(self):
        src = (
            "from threading import RLock as Guard\n"
            "from queue import SimpleQueue\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._guard = Guard()\n"
            "        self._jobs = SimpleQueue()\n"
            "    def drain(self):\n"
            "        with self._guard:\n"
            "            return self._jobs.get()\n"
        )
        findings = check_source(src, path=self.PATH)
        assert [f.rule for f in findings] == ["S012"]
        assert "self._jobs.get()" in findings[0].message

    def test_class_without_lock_not_checked(self):
        src = (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = make_lock()\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n = 1\n"
            "    def peek(self):\n"
            "        return self._n\n"
        )
        assert check_source(src, path=self.PATH) == []


class TestNoqa:
    def test_rule_specific_noqa_suppresses(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[S001]\n"
        assert check_source(src, path="a.py") == []

    def test_bare_noqa_suppresses_everything(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa\n"
        assert check_source(src, path="a.py") == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        src = "import numpy as np\nrng = np.random.default_rng()  # repro: noqa[S011]\n"
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
        _, path, positive, _ = FIXTURES["S010"]
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
        assert finding["line"] == 1

    def test_rule_table_lists_all_rules(self):
        table = rule_table()
        for rule in all_rules():
            assert rule.id in table

    def test_readme_rule_table_matches_the_registry(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        ids = re.findall(r"^\| (S\d{3}) \|", readme, flags=re.MULTILINE)
        assert sorted(ids) == sorted({r.id for r in all_rules()})

    def test_findings_sorted_and_json_stable(self):
        f1 = Finding("S001", "error", "b.py", 1, 0, "x")
        f2 = Finding("S001", "error", "a.py", 9, 0, "x")
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
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == ["S001", "S011", "S012"]

    def test_missing_path_is_a_named_error(self, capsys, tmp_path):
        from repro.cli import main

        missing = tmp_path / "nosuch_dir"
        rc = main(["lint", str(REPO_ROOT / "examples"), str(missing)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {missing}: no such file or directory\n"
        assert captured.out == ""

    def test_non_utf8_file_is_a_named_error(self, capsys, tmp_path):
        from repro.cli import main

        latin1 = tmp_path / "latin1.py"
        latin1.write_bytes(b"name = '\xe9t\xe9'\n")
        rc = main(["lint", str(latin1)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: {latin1}: not valid UTF-8 (")
        assert captured.out == ""
