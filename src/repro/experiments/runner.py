"""Coupling of clips, schemes, traces and evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import AnalyticsScheme, SchemeRun
from repro.check.sanitize import ArraySanitizer, NullSanitizer
from repro.edge.detector import Detection, QualityAwareDetector
from repro.edge.evaluation import evaluate_detections
from repro.edge.server import EdgeServer
from repro.network.trace import BandwidthTrace
from repro.obs import NullTracer, Tracer
from repro.world.datasets import Clip, ScoredClip

__all__ = [
    "EvaluationResult",
    "evaluate_run",
    "ground_truth_for",
    "run_scheme",
    "truth_clip",
]


@dataclass
class EvaluationResult:
    """Accuracy and latency of one scheme on one clip.

    Attributes
    ----------
    scheme, clip_name:
        Identity.
    ap:
        Per-class AP (``car``, ``pedestrian``) plus ``mAP``.
    mean_response_time:
        Seconds, averaged over frames with finite response.
    total_bytes:
        Uplink bytes spent.
    drop_rate:
        Fraction of frames whose upload was abandoned.
    run:
        The underlying per-frame results.
    stream:
        Streaming truth accounting (:class:`repro.stream.StreamStats`)
        when the run went through the streaming runtime; ``None`` for
        batch runs.
    """

    scheme: str
    clip_name: str
    ap: dict[str, float]
    mean_response_time: float
    total_bytes: int
    drop_rate: float
    run: SchemeRun = field(repr=False)
    stream: object | None = field(default=None, repr=False)

    @property
    def map(self) -> float:
        return self.ap["mAP"]


def truth_clip(clip: Clip, *, detector_seed: int = 7) -> ScoredClip:
    """``clip`` behind a facade that scores ground truth as frames go by.

    Every record the facade hands out is passed through
    ``QualityAwareDetector.ground_truth`` once; ``.scores()`` is then the
    clip's ground truth without a second render.  The one ground-truth
    mechanism of the batch, stream and fleet drivers alike.
    """
    return ScoredClip(clip, QualityAwareDetector(seed=detector_seed).ground_truth)


def ground_truth_for(clip: Clip, *, detector_seed: int = 7) -> list[list[Detection]]:
    """Raw-frame detections for every frame of a clip (the paper's GT)."""
    return truth_clip(clip, detector_seed=detector_seed).scores()


def run_scheme(
    scheme: AnalyticsScheme,
    clip: Clip,
    trace: BandwidthTrace,
    *,
    detector_seed: int = 7,
    ground_truth: list[list[Detection]] | None = None,
    tracer: Tracer | NullTracer | None = None,
    sanitizer: ArraySanitizer | NullSanitizer | None = None,
    stream=None,
) -> EvaluationResult:
    """Run one scheme on one clip and evaluate it.

    A fresh :class:`EdgeServer` (with the shared detector seed) is created
    per run so decoder state never leaks between schemes; ground truth can
    be passed in to avoid recomputing it across schemes, and is otherwise
    scored on the frames as the run fetches them (:func:`truth_clip` — an
    un-preloaded clip is rendered once, not once more for scoring).  A
    ``tracer`` (a :class:`repro.obs.Tracer`) is threaded through the scheme
    and the server so the run emits a per-frame trace; a ``sanitizer`` (a
    :class:`repro.check.ArraySanitizer`) is threaded the same way so stage
    boundaries validate their arrays.  When omitted the scheme keeps
    whatever tracer/sanitizer it already has (the no-ops by default).

    ``stream`` — a :class:`repro.stream.StreamConfig` (or ``True`` for the
    defaults) — routes the run through the streaming runtime
    (:class:`repro.stream.StreamRunner`); the result then carries the
    streaming truth accounting in :attr:`EvaluationResult.stream`.
    """
    if tracer is not None:
        scheme.use_tracer(tracer)
        if tracer.enabled:
            tracer.meta.setdefault("runs", []).append(
                {"scheme": scheme.name, "clip": clip.name, "n_frames": clip.n_frames}
            )
    if sanitizer is not None:
        scheme.use_sanitizer(sanitizer)
    if ground_truth is None:
        clip = truth_clip(clip, detector_seed=detector_seed)
    server = EdgeServer(
        QualityAwareDetector(seed=detector_seed),
        tracer=scheme.tracer,
        sanitizer=scheme.sanitizer,
    )
    stats = None
    if stream is not None and stream is not False:
        from repro.stream import StreamConfig, StreamRunner

        config = StreamConfig() if stream is True else stream
        result = StreamRunner(scheme, config).run(clip, trace, server)
        run, stats = result.run, result.stats
        if tracer is not None and tracer.enabled:
            tracer.meta.setdefault("stream", []).append(
                {"scheme": scheme.name, "clip": clip.name, **stats.summary()}
            )
    else:
        run = scheme.run(clip, trace, server)
    if ground_truth is None:
        ground_truth = clip.scores()
    evaluated = evaluate_run(run, clip, detector_seed=detector_seed, ground_truth=ground_truth)
    evaluated.stream = stats
    return evaluated


def evaluate_run(
    run: SchemeRun,
    clip: Clip,
    *,
    detector_seed: int = 7,
    ground_truth: list[list[Detection]] | None = None,
) -> EvaluationResult:
    """Score a finished run against raw-frame ground truth."""
    if ground_truth is None:
        ground_truth = ground_truth_for(clip, detector_seed=detector_seed)
    if len(run.frames) != len(ground_truth):
        raise ValueError(
            f"run has {len(run.frames)} frames but ground truth has {len(ground_truth)}"
        )
    ap = evaluate_detections(run.detections_per_frame, ground_truth)
    return EvaluationResult(
        scheme=run.scheme,
        clip_name=run.clip_name,
        ap=ap,
        mean_response_time=run.mean_response_time,
        total_bytes=run.total_bytes,
        drop_rate=run.drop_rate,
        run=run,
    )
