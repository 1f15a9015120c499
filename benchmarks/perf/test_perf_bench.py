"""Self-test of the perf benchmark (not part of the tier-1 suite):

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.baselines.base import AnalyticsScheme  # noqa: E402
from repro.obs import NULL_TRACER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("map", "response_ms_p50", "response_ms_p90", "edge_share", "served_share")

#: 6 frames per clip; the fleet's 6 agents get 3 each to stay inside a minute.
TEST_FRAMES = {"drive_steady": 6, "drive_outage": 6, "fleet_mixed": 3}


def _run(name: str):
    return harness.run_workload(
        WORKLOADS[name], seed=5, seconds=0.0, trace=True,
        frames=TEST_FRAMES[name], passes=1, setup_reps=1,
    )


def _originals():
    return {b.span: layertrace._resolve(b.module, b.qualname) for b in layertrace.BOUNDARIES}


@pytest.fixture(scope="module")
def runs():
    """Every workload run twice with the same seed, traced."""
    before = _originals()
    results = {name: (_run(name), _run(name)) for name in WORKLOADS}
    return before, results


def test_spec_names_workloads_and_limits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    # 0.25 is the widest bound the contract for BENCHMARK.json admits
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_emits_exactly_the_declared_metrics(runs, name):
    first, _ = runs[1][name]
    assert first.correct, first.problems
    for declared, emitted in ((SPEC["end_to_end"], first.end_to_end),
                              (SPEC["per_layer"], first.per_layer)):
        assert list(emitted) == [m["name"] for m in declared]
        for m in declared:
            assert emitted[m["name"]]["unit"] == m["unit"]
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_frame_clock_sees_every_frame(runs, name):
    first, _ = runs[1][name]
    per_clip = TEST_FRAMES[name]
    expected = per_clip * (6 if name == "fleet_mixed" else 1)
    assert first.detail["frames_per_pass"] == expected
    # every measured pass: one clock sample per frame plus the remainder chunk
    assert [len(c["wall"]) for c in first.detail["chunks"]] == [expected + 1]
    # reference + measured + traced pass, none failed
    assert (first.attempted, first.failed) == (3 * expected, 0)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_exactly(runs, name):
    first, second = runs[1][name]
    assert first.detail["digest"] == second.detail["digest"]
    for metric in DETERMINISTIC:
        assert first.end_to_end[metric] == second.end_to_end[metric]
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert first.per_layer[m["name"]] == second.per_layer[m["name"]], m["name"]


def test_traced_pass_restores_every_boundary(runs):
    before, _ = runs
    assert all(resolved is not None for resolved in before.values())
    after = _originals()
    for span, (owner, attr, original) in before.items():
        assert after[span][2] is original, span
        assert not hasattr(original, "__wrapped__"), span
    # by-name imports of a wrapped function are the original again too
    import repro.codec.motion
    import repro.core.agent
    assert repro.core.agent.estimate_motion is repro.codec.motion.estimate_motion
    assert AnalyticsScheme.tracer is NULL_TRACER


def test_unresolved_boundary_is_absent_not_an_error(monkeypatch):
    gone = (layertrace.Boundary("x.gone", "repro.codec.motion", "no_such_function"),
            layertrace.Boundary("x.nowhere", "repro.no_such_module", "f"),
            layertrace.Boundary("x.inherited", "repro.stream.runner", "StreamingUplink.queue_wait"))
    monkeypatch.setattr(layertrace, "BOUNDARIES", layertrace.BOUNDARIES[:2] + gone)
    with layertrace.Recorder() as recorder:
        pass
    metrics = recorder.metrics(frames=1, pass_wall=1.0, overhead_share=0.0)
    assert metrics["trace.absent"]["value"] == 3
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]


class _BrokenJob:
    """A job whose program is broken: ``run`` raises, or (``seam`` false)
    returns without ever entering ``tracer.frame``."""

    captured = 2

    def __init__(self, seam: bool):
        self.seam = seam

    def run(self, clock):
        if self.seam:
            raise RuntimeError("program broke")
        return None

    def outcome(self, raw):
        return harness.Outcome(frames=self.captured, digest="d", responses_ms=[1.0])


@pytest.mark.parametrize("seam, message", [(True, "raised RuntimeError: program broke"),
                                           (False, "frame clock saw 0 frames")])
def test_broken_pass_fails_its_frames_and_the_run_ends(seam, message):
    # the warm-up job (fewer frames) stays real, the measured job is broken
    real = WORKLOADS["drive_steady"]
    broken = dataclasses.replace(
        real, build=lambda params, frames: _BrokenJob(seam) if frames == 5
        else real.build(params, frames))
    result = harness.run_workload(broken, seed=5, seconds=0.0, trace=True, frames=5,
                                  passes=2, setup_reps=1)
    # reference + 2 measured + traced pass, all failed, nothing to report
    assert (result.correct, result.attempted, result.failed) == (False, 8, 8)
    for label in ("reference pass", "pass 1", "pass 2", "traced pass"):
        assert any(p.startswith(label) and message in p for p in result.problems), label
    assert result.end_to_end == {} and result.per_layer == {}


def test_chunks_reduce_to_their_least_time_across_passes():
    assert harness._least([[3.0, 1.0, 4.0], [2.0, 5.0, 4.5]]) == [2.0, 1.0, 4.0]


def test_default_tracer_restores_what_was_installed():
    outer, inner = harness.FrameClock(), harness.FrameClock()
    with harness.default_tracer(outer):
        with harness.default_tracer(inner):
            assert AnalyticsScheme.tracer is inner
        assert AnalyticsScheme.tracer is outer
    assert AnalyticsScheme.tracer is NULL_TRACER


def test_compare_verdicts(tmp_path, capsys):
    def write(path, fps, rss):
        path.write_text("".join(json.dumps({"workload": "drive_steady", "metrics": {
            "frames_per_s": {"value": f, "unit": "1/s"},
            "peak_rss_mb": {"value": r, "unit": "MB"}}}) + "\n" for f, r in zip(fps, rss)))
        return str(path)

    a = write(tmp_path / "a.jsonl", [10.0, 10.1, 9.9], [100.0, 100.0, 100.0])
    same = write(tmp_path / "same.jsonl", [10.0, 10.05, 9.95], [101.0, 101.0, 101.0])
    slow = write(tmp_path / "slow.jsonl", [6.0, 6.1, 5.9], [100.0, 100.0, 100.0])
    noisy = write(tmp_path / "noisy.jsonl", [5.0, 15.0, 10.0], [100.0, 100.0, 100.0])
    assert compare.main(a, same, SPEC) == 0
    assert re.findall(r"(\w+)$", capsys.readouterr().out, re.M)[-2:] == ["ok", "ok"]
    assert compare.main(a, slow, SPEC) == 1
    assert re.search(r"frames_per_s.* worse$", capsys.readouterr().out, re.M)
    assert compare.main(a, noisy, SPEC) == 0
    assert re.search(r"frames_per_s.* unresolved$", capsys.readouterr().out, re.M)
