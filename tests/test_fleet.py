"""Tests for the multi-tenant fleet subsystem (repro.fleet).

The load-bearing claims: a single-agent fleet is *bit-identical* to a
plain batch run (and so to a relaxed streamed run); an N-agent fleet's
digest is identical across reruns and any thread-pool width
(``agent_workers`` is a wall-clock knob, never semantics); the shared
cell and the batching edge actually change outcomes when contended.
"""

import hashlib
import json

import pytest

from repro import kernels
from repro.core import DiVEScheme
from repro.edge import EdgeServer, QualityAwareDetector
from repro.experiments import scaled_bandwidth
from repro.fleet import (
    BatchingEdgeServer,
    CellSlice,
    FleetConfig,
    FleetRequest,
    FleetRunner,
    RecordingEdgeServer,
    SharedCell,
    jain_index,
    quantile,
    waterfill,
)
from repro.network import constant_trace, random_walk_trace
from repro.stream import StreamConfig, StreamRunner
from repro.world import nuscenes_like

pytestmark = [pytest.mark.timeout(300), pytest.mark.kernels]

RES = (320, 192)  # quarter-size clips keep the fleets fast


def _req(agent, seq, arrival, frame=0):
    return FleetRequest(agent=agent, seq=seq, frame_index=frame, arrival=arrival)


class TestWaterfill:
    def test_uncontended_grants_verbatim(self):
        d = [1.25e6, 0.4e6]
        assert waterfill(d, 5e6) == d

    def test_contended_splits_capacity(self):
        alloc = waterfill([3e6, 3e6], 4e6)
        assert alloc == [2e6, 2e6]

    def test_small_demand_first_then_level(self):
        alloc = waterfill([1e6, 9e6], 4e6)
        assert alloc[0] == 1e6
        assert alloc[1] == pytest.approx(3e6)

    def test_zero_capacity(self):
        assert waterfill([1e6], 0.0) == [0.0]


class TestSharedCell:
    def test_identity_fast_path_returns_same_object(self):
        demand = random_walk_trace(1e6, duration=4.0, seed=3)
        cell = SharedCell(10e6)
        [out] = cell.allocate([CellSlice(agent="a", demand=demand, duration=4.0)])
        assert out is demand

    def test_contended_allocation_caps_sum(self):
        d1 = constant_trace(3e6)
        d2 = constant_trace(3e6)
        cell = SharedCell(4e6)
        out = cell.allocate([
            CellSlice(agent="a", demand=d1, duration=4.0),
            CellSlice(agent="b", demand=d2, duration=4.0),
        ])
        assert out[0] is not d1 and out[1] is not d2
        for t in (0.0, 1.0, 3.9):
            assert out[0].rate_at(t) + out[1].rate_at(t) <= 4e6 + 1e-6

    def test_stagger_releases_capacity(self):
        # b joins at t=2: a has the full cell before, half after.
        a, b = (CellSlice(agent="a", demand=constant_trace(4e6), duration=6.0),
                CellSlice(agent="b", demand=constant_trace(4e6), start=2.0, duration=4.0))
        out = SharedCell(4e6).allocate([a, b])
        assert out[0].rate_at(1.0) == 4e6
        assert out[0].rate_at(3.0) == pytest.approx(2e6)
        # b's trace is in *local* time (starts at its own t=0).
        assert out[1].rate_at(0.5) == pytest.approx(2e6)


class TestBatchingEdgeServer:
    def test_single_request_is_unloaded_timing(self):
        b = BatchingEdgeServer(workers=1, max_batch=4, max_wait=0.0)
        [out] = b.serve([_req("a", 0, 1.0)])
        assert out.status == "served"
        assert out.start_time == 1.0
        assert out.finish_time == 1.0 + b.inference_latency
        assert out.result_time == out.finish_time + b.downlink_latency

    def test_fifo_single_worker_queueing(self):
        b = BatchingEdgeServer(workers=1, max_batch=1)
        outs = b.serve([_req("a", 0, 0.0), _req("b", 0, 0.001)])
        assert outs[0].start_time == 0.0
        assert outs[1].start_time == pytest.approx(b.inference_latency)
        # A second worker takes the queueing away.
        outs = BatchingEdgeServer(workers=2, max_batch=1).serve(
            [_req("a", 0, 0.0), _req("b", 0, 0.001)])
        assert [o.start_time for o in outs] == [0.0, 0.001]

    def test_full_batch_dispatches_at_fill_instant(self):
        b = BatchingEdgeServer(workers=1, max_batch=2, max_wait=1.0)
        outs = b.serve([_req("a", 0, 0.0), _req("b", 0, 0.004)])
        assert [o.batch_id for o in outs] == [0, 0]
        # Dispatch can't precede the arrival that filled the batch.
        assert outs[0].start_time == 0.004

    def test_max_wait_fires_before_batch_full(self):
        b = BatchingEdgeServer(workers=1, max_batch=4, max_wait=0.002)
        outs = b.serve([_req("a", 0, 0.0), _req("b", 0, 0.1)])
        assert outs[0].start_time == pytest.approx(0.002)
        assert outs[0].batch_size == 1

    def test_batch_amortises_cost(self):
        b = BatchingEdgeServer(workers=1, max_batch=4, max_wait=0.01, batch_overhead=0.25)
        outs = b.serve([_req("a", 0, 0.0), _req("b", 0, 0.0), _req("c", 0, 0.0)])
        assert {o.batch_size for o in outs} == {3}
        span = outs[0].finish_time - outs[0].start_time
        # (1-a)*max + a*sum = 0.75*1 + 0.25*3 = 1.5 units, < 3 sequential.
        assert span == pytest.approx(b.inference_latency * 1.5)

    def test_bounded_queue_rejects(self):
        b = BatchingEdgeServer(workers=1, max_batch=1, queue_capacity=1)
        outs = b.serve([_req("a", 0, 0.0), _req("b", 0, 0.001), _req("c", 0, 0.002)])
        by = {o.agent: o for o in outs}
        assert by["c"].status == "rejected"
        assert by["c"].result_time == float("inf")
        assert by["a"].status == by["b"].status == "served"

    def test_degrade_admission_serves_cheaper(self):
        b = BatchingEdgeServer(workers=1, max_batch=1, queue_capacity=1,
                               admission="degrade", degrade_factor=0.5)
        outs = b.serve([_req("a", 0, 0.0), _req("b", 0, 0.001), _req("c", 0, 0.002)])
        by = {o.agent: o for o in outs}
        assert by["c"].status == "degraded"
        assert (by["c"].finish_time - by["c"].start_time
                == pytest.approx(b.inference_latency * 0.5))

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            BatchingEdgeServer(workers=0)
        with pytest.raises(ValueError, match="admission"):
            BatchingEdgeServer(admission="shrug")
        with pytest.raises(ValueError, match="queue_capacity"):
            BatchingEdgeServer(queue_capacity=0)


class TestRecordingEdgeServer:
    def test_records_without_perturbing(self):
        clip = nuscenes_like(0, n_frames=4, resolution=RES)
        trace = constant_trace(scaled_bandwidth(2.0, clip))
        plain = StreamRunner(DiVEScheme(), StreamConfig()).run(
            clip, trace, EdgeServer(QualityAwareDetector(seed=7)))
        recording = RecordingEdgeServer(EdgeServer(QualityAwareDetector(seed=7)))
        wrapped = StreamRunner(DiVEScheme(), StreamConfig()).run(clip, trace, recording)
        assert wrapped.stats.digest() == plain.stats.digest()
        assert len(recording.calls) > 0
        assert [c.seq for c in recording.calls] == list(range(len(recording.calls)))


class TestFleetStatsHelpers:
    def test_quantile_nearest_rank(self):
        vals = [4.0, 1.0, 3.0, 2.0]
        assert quantile(vals, 0.5) == 2.0
        assert quantile(vals, 1.0) == 4.0
        assert quantile([], 0.5) == float("inf")

    def test_jain_bounds(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jain_index([]) == 1.0


@pytest.fixture(scope="module")
def small_fleet_result():
    config = FleetConfig(
        n_agents=3, n_frames=6, schemes=("dive", "eaar"), resolution=RES,
        stagger=0.03, cell_mbps=3.0, workers=2, max_batch=4, max_wait=0.005,
        queue_capacity=8,
    )
    return FleetRunner(config).run()


class TestFleetRunner:
    @pytest.mark.timeout(600)
    def test_single_agent_fleet_matches_plain_stream(self):
        """The headline equivalence: one agent, enough edge workers that
        nothing queues — the fleet reproduces, frame by frame and
        detection by detection, both a plain batch run of the scheme
        (which is what its phase 1 runs) and a relaxed streamed run."""
        config = FleetConfig(
            n_agents=1, n_frames=10, schemes=("dive",), resolution=RES,
            stagger=0.0, demand_mbps=2.0, cell_mbps=None,
            workers=4, max_batch=4, max_wait=0.0,
        )
        fleet = FleetRunner(config).run()

        clip = nuscenes_like(0, n_frames=10, resolution=RES)
        trace = constant_trace(scaled_bandwidth(2.0, clip))
        batch = DiVEScheme().run(clip, trace, EdgeServer(QualityAwareDetector(seed=7)))
        stream = StreamRunner(DiVEScheme(), StreamConfig()).run(
            clip, trace, EdgeServer(QualityAwareDetector(seed=7)))
        assert stream.stats.dropped == stream.stats.late == 0

        def frames(run):
            return [((f.index, f.capture_time, f.response_time, f.bytes_sent,
                      f.source, f.dropped),
                     [(d.object_id, d.kind, d.confidence, d.bbox) for d in f.detections])
                    for f in sorted(run.frames, key=lambda fr: fr.index)]

        settled = frames(fleet.runs[0])
        assert len(settled) == 10
        assert settled == frames(batch)
        assert settled == frames(stream.run)

    def test_digest_stable_across_reruns_and_workers(self, small_fleet_result):
        from dataclasses import replace

        base = small_fleet_result
        rerun = FleetRunner(base.config).run()
        assert rerun.digest() == base.digest()
        wide = FleetRunner(replace(base.config, agent_workers=4)).run()
        assert wide.digest() == base.digest()

    def test_digest_same_on_numpy_reference(self, small_fleet_result):
        """The test above runs on the host's default kernel backend; the
        reference must agree with it, again for any ``agent_workers``."""
        from dataclasses import replace

        base = small_fleet_result
        with kernels.use_backend("numpy"):
            narrow = FleetRunner(base.config).run()
            wide = FleetRunner(replace(base.config, agent_workers=4)).run()
        assert narrow.digest() == base.digest()
        assert wide.digest() == base.digest()

    def test_golden_digest_and_accuracy(self, small_fleet_result):
        """The digest is the one recorded at the commit before ground
        truth moved to the capture path, ``c8508e51…``, recomputed at
        the commit before the fleet's agents stopped running through
        ``StreamRunner``, with each agent report's ``:stream=`` field
        (the per-agent stream digest) removed — nothing else in it
        moved.  The per-agent mAP values are the ones recorded before
        ground truth moved, unchanged."""
        res = small_fleet_result
        assert res.digest() == (
            "bdece0a5e315cd7c9f9700ffa6346ea4a561b0562a28cee02f1737e14c0ee479")
        assert [r.map for r in res.reports] == [
            0.4901960784313726, 0.4818627450980392, 0.4833333333333334]
        assert res.agents_wall_time > 0.0 and res.settle_wall_time > 0.0

    @pytest.mark.timeout(600)
    def test_every_frame_rendered_exactly_once(self, render_calls):
        """Ground truth is scored on the frames the agents fetch: a fleet
        run renders n_agents x n_frames frames whatever the pool width,
        and the digest does not move with it."""
        from dataclasses import replace

        config = FleetConfig(
            n_agents=3, n_frames=4, schemes=("dive", "dds", "o3"), resolution=RES,
            stagger=0.03, cell_mbps=3.0, workers=1, max_batch=2, queue_capacity=2,
        )
        digests = set()
        for agent_workers in (1, 4):
            del render_calls[:]
            result = FleetRunner(replace(config, agent_workers=agent_workers)).run()
            assert len(render_calls) == config.n_agents * config.n_frames, agent_workers
            digests.add(result.digest())
        assert len(digests) == 1

    def test_agent_truth_equals_ground_truth_of_a_fresh_clip(self):
        from repro.experiments import ground_truth_for

        config = FleetConfig(
            n_agents=2, n_frames=4, schemes=("dive", "eaar"), resolution=RES,
            detector_seed=11)
        runner = FleetRunner(config)
        specs = config.specs()
        for spec, agent_run in zip(specs, runner.run_agents(specs)):
            fresh = ground_truth_for(runner._clip_for(spec), detector_seed=11)
            assert agent_run.truth == fresh
            assert agent_run.fork().truth is agent_run.truth

    def test_reports_cover_every_agent(self, small_fleet_result):
        res = small_fleet_result
        assert [r.agent for r in res.reports] == ["a000", "a001", "a002"]
        assert {r.scheme for r in res.reports} == {"DiVE", "EAAR"}
        assert res.stats.agents == 3
        assert res.stats.frames == 18
        assert res.stats.requests == res.stats.served + res.stats.degraded + res.stats.rejected
        assert 0.0 < res.stats.jain_accuracy <= 1.0

    def test_tight_admission_creates_stale_frames(self):
        config = FleetConfig(
            n_agents=4, n_frames=6, schemes=("dive",), resolution=RES,
            stagger=0.0, workers=1, max_batch=1, queue_capacity=1,
            admission="reject",
        )
        res = FleetRunner(config).run()
        assert res.stats.rejected > 0
        assert res.stats.stale_frames > 0
        assert res.stats.reject_rate > 0.0
        stale = [f for run in res.runs for f in run.frames if f.source == "stale"]
        assert stale and all(f.response_time == float("inf") for f in stale)

    @pytest.mark.timeout(600)
    def test_tight_admission_settled_material_pinned(self):
        """Markov uplinks on an outage-prone cell, one edge worker, a
        one-deep admission queue and a deadline: the stale, late and
        reject paths all fire.  Recorded before the fleet's agents
        stopped running through ``StreamRunner`` (report keys without
        their ``:stream=`` field); the settled frames include every
        detection."""
        config = FleetConfig(
            n_agents=4, n_frames=6, schemes=("dive", "dds", "eaar", "o3"),
            resolution=RES, stagger=0.0, uplink="markov", cell_mbps=8.0,
            cell_outages=True, workers=1, max_batch=1, queue_capacity=1,
            admission="reject", deadline=0.25,
        )
        res = FleetRunner(config).run()
        s = res.stats
        assert (s.stale_frames, s.late_frames, s.rejected, s.requests) == (2, 5, 2, 19)
        lines = []
        for spec, run in zip(res.specs, res.runs):
            for f in sorted(run.frames, key=lambda fr: fr.index):
                dets = ",".join(
                    f"{d.kind}/{d.object_id}/{d.confidence!r}/" + "/".join(repr(v) for v in d.bbox)
                    for d in f.detections)
                lines.append(f"{spec.agent}/f{f.index}:{f.source}:{f.bytes_sent}"
                             f":{f.response_time!r}:{int(f.dropped)}:[{dets}]")
        assert hashlib.sha256(";".join(lines).encode()).hexdigest() == (
            "813ef1b664ab62a5e0ca76ebb2626c951ec8c90838b8c372f95189822fb15527")
        assert res.digest() == (
            "dce4a13954c5f2385347414e7c2e80f6dfc0c943d8c114c0883a28a46936520a")
        assert [r.map for r in res.reports] == [
            0.31699346405228757, 0.5147058823529411, 0.43166666666666664, 0.0]

    def test_degrade_admission_avoids_staleness(self):
        config = FleetConfig(
            n_agents=4, n_frames=6, schemes=("dive",), resolution=RES,
            stagger=0.0, workers=1, max_batch=1, queue_capacity=1,
            admission="degrade",
        )
        res = FleetRunner(config).run()
        assert res.stats.degraded > 0
        assert res.stats.rejected == 0
        assert res.stats.stale_frames == 0

    def test_contention_raises_response_over_solo(self):
        solo = FleetConfig(n_agents=1, n_frames=6, schemes=("dive",),
                           resolution=RES, workers=1, max_batch=1)
        crowd = FleetConfig(n_agents=4, n_frames=6, schemes=("dive",),
                            resolution=RES, stagger=0.0, workers=1, max_batch=1)
        rt_solo = FleetRunner(solo).run().stats.mean_response
        rt_crowd = FleetRunner(crowd).run().stats.mean_response
        assert rt_crowd > rt_solo

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_agents"):
            FleetConfig(n_agents=0).validate()
        with pytest.raises(ValueError, match="scheme"):
            FleetConfig(schemes=("warp",)).validate()
        with pytest.raises(ValueError, match="dataset"):
            FleetConfig(datasets=("cityscapes",)).validate()
        with pytest.raises(ValueError, match="admission"):
            FleetConfig(admission="maybe").validate()

    @pytest.mark.parametrize("field, value", [
        ("datasets", ()),
        ("deadline", 0.0),
        ("deadline", -1.0),
        ("demand_mbps", -1.0),
        ("cell_mbps", -2.0),
        ("max_batch", 0),
    ])
    def test_validate_names_the_field(self, field, value):
        """Configs the run cannot use fail in ``validate``, not deep in
        ``specs`` or ``network.trace``, and the error names the field."""
        with pytest.raises(ValueError, match=field):
            FleetConfig(**{field: value}).validate()
        with pytest.raises(ValueError, match=field):
            FleetRunner(FleetConfig(**{field: value})).run()

    def test_specs_round_robin(self):
        specs = FleetConfig(n_agents=5, schemes=("dive", "o3"),
                            datasets=("nuscenes", "kitti"), stagger=0.1).specs()
        assert [s.scheme for s in specs] == ["dive", "o3", "dive", "o3", "dive"]
        assert [s.dataset for s in specs] == [
            "nuscenes", "kitti", "nuscenes", "kitti", "nuscenes"]
        assert [s.clip_seed for s in specs] == [0, 1, 2, 3, 4]
        assert specs[4].start == pytest.approx(0.4)


class TestFleetMetrics:
    def test_agent_labels_in_registry(self, small_fleet_result):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        FleetRunner(small_fleet_result.config, metrics=registry).run()
        snap = registry.snapshot()
        by_name = {inst["name"]: inst for inst in snap["instruments"]}
        assert "fleet_response_seconds" in by_name
        agents = {s["labels"].get("agent")
                  for s in by_name["fleet_response_seconds"]["series"]
                  if s["windows"]}
        assert agents == {"a000", "a001", "a002"}

    def test_metrics_do_not_perturb_results(self, small_fleet_result):
        from repro.metrics import MetricsRegistry

        with_metrics = FleetRunner(
            small_fleet_result.config, metrics=MetricsRegistry()).run()
        assert with_metrics.digest() == small_fleet_result.digest()


class TestFleetCLI:
    def test_fleet_command_table(self, capsys):
        from repro.cli import main

        rc = main(["fleet", "--agents", "2", "--frames", "4",
                   "--schemes", "dive,eaar", "--max-wait", "0.005"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a000" in out and "a001" in out
        assert "fleet digest" in out

    def test_fleet_command_json_and_metrics_out(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "fleet.jsonl"
        rc = main(["fleet", "--agents", "2", "--frames", "4",
                   "--schemes", "dive,eaar", "--format", "json",
                   "--metrics-out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out[:out.rindex("}") + 1])
        assert doc["summary"]["agents"] == 2
        assert len(doc["agents"]) == 2
        assert out_path.exists()
        first = json.loads(out_path.read_text().splitlines()[0])
        assert first["meta"]["agents"] == 2
        assert sorted(doc["agents"][0]) == [
            "agent", "clip_name", "degraded", "frames", "goodput_bytes", "late_frames", "map",
            "mean_response", "p50_response", "p95_response", "p99_response", "rejected",
            "requests", "scheme", "served", "stale_frames", "start"]

    @pytest.mark.parametrize("flags, field", [
        (["--datasets", ""], "datasets"),
        (["--max-batch", "0"], "max_batch"),
        (["--cell", "-2"], "cell_mbps"),
        (["--cell", "nan"], "cell_mbps"),
        (["--bandwidth", "nan"], "demand_mbps"),
        (["--stagger", "nan"], "stagger"),
        (["--max-wait", "nan"], "max_wait"),
        (["--deadline", "nan"], "deadline"),
    ])
    def test_bad_flag_is_an_error_line_not_a_traceback(self, capsys, flags, field):
        from repro.cli import main

        rc = main(["fleet", "--agents", "2", "--frames", "2", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


class TestScalabilityRewrite:
    def test_run_scalability_shapes_and_monotonic(self):
        from repro.experiments import run_scalability
        from repro.experiments.config import ExperimentConfig

        rows = run_scalability(
            ExperimentConfig(n_frames=6), agent_counts=(1, 4), workers=1,
            scheme_factories=(DiVEScheme,))
        by = {(r.scheme, r.n_agents): r for r in rows}
        assert set(by) == {("DiVE", 1), ("DiVE", 4)}
        assert by[("DiVE", 4)].response_time >= by[("DiVE", 1)].response_time - 1e-9
        assert by[("DiVE", 4)].inference_load > by[("DiVE", 1)].inference_load


class TestMemoryIsFlatInAgents:
    """Phase 1 releases each agent's clip (its rendered frames) once the
    agent's run is taken, and clips of one camera share one ray table,
    so a fleet's memory does not grow with its number of agents."""

    @staticmethod
    def _config(n_agents, **overrides):
        return FleetConfig(
            n_agents=n_agents, n_frames=4, schemes=("dive", "dds", "eaar", "o3"),
            resolution=(96, 64), **overrides,
        )

    def _traced_peak(self, n_agents):
        import gc
        import tracemalloc

        config = self._config(n_agents)
        specs = config.specs()
        gc.collect()
        tracemalloc.start()
        try:
            FleetRunner(config).run_agents(specs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_agents(self):
        self._traced_peak(2)  # lazy imports and first-call caches
        two, eight = self._traced_peak(2), self._traced_peak(8)
        assert eight <= 1.25 * two, f"2 agents peak {two / 1e6:.2f} MB, 8 agents {eight / 1e6:.2f} MB"

    @pytest.mark.parametrize("agent_workers", [1, 2])
    def test_each_clip_is_released_after_its_agent(self, monkeypatch, agent_workers):
        """When an agent starts, the clips of the agents before it are gone
        but for those still running on other pool threads; none outlives
        ``run_agents``."""
        import gc
        import weakref

        import repro.fleet.runner as runner

        clips, alive_before = [], []
        clip_for, truth_clip = FleetRunner._clip_for, runner.truth_clip

        def tracked(self, spec):
            clip = clip_for(self, spec)
            clips.append(weakref.ref(clip))
            return clip

        def counted(clip, **kwargs):
            gc.collect()
            index = next(i for i, ref in enumerate(clips) if ref() is clip)
            alive_before.append(sum(ref() is not None for ref in clips[:index]))
            return truth_clip(clip, **kwargs)

        monkeypatch.setattr(FleetRunner, "_clip_for", tracked)
        monkeypatch.setattr(runner, "truth_clip", counted)
        config = self._config(4, agent_workers=agent_workers)
        runs = FleetRunner(config).run_agents(config.specs())
        gc.collect()
        assert len(runs) == len(clips) == len(alive_before) == 4
        assert max(alive_before) <= agent_workers - 1, alive_before
        assert [ref() for ref in clips] == [None] * 4
