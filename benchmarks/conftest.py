"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures and prints
the rows it would plot.  Benchmarks run each experiment exactly once
(``benchmark.pedantic(rounds=1)``): the experiments are deterministic, and
the numbers of interest are the *printed tables*, not the wall time — the
wall time pytest-benchmark records is simply the cost of regenerating the
artefact.

Scale: the default configurations below are sized so the whole suite
finishes in tens of minutes on a laptop.  The paper-scale run (50/8 clips,
20 s each) uses the same entry points with a larger
:class:`~repro.experiments.ExperimentConfig`.

pytest-benchmark is optional: without the plugin, ``bench_once`` degrades
to a plain call-once fixture, so the suite still runs (and still prints
its tables) — it just loses the timing statistics.  Speed proper is
measured by the repo's one ruler, ``benchmarks/perf/run.py``, which has
no pytest dependency at all.
"""

import pytest

from repro.experiments import ExperimentConfig

try:
    import pytest_benchmark  # noqa: F401

    _HAVE_PYTEST_BENCHMARK = True
except ImportError:
    _HAVE_PYTEST_BENCHMARK = False


if _HAVE_PYTEST_BENCHMARK:

    @pytest.fixture
    def bench_once(benchmark):
        """Run a callable exactly once under pytest-benchmark."""

        def run(func, *args, **kwargs):
            return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

        return run

else:

    @pytest.fixture
    def bench_once():
        """Plain call-once fallback when pytest-benchmark is not installed."""

        def run(func, *args, **kwargs):
            return func(*args, **kwargs)

        return run


#: Benchmark-scale experiment configurations, per figure.
CONFIGS = {
    "table1": ExperimentConfig(n_clips=4, n_frames=24),
    "fig06": ExperimentConfig(n_clips=3, n_frames=60),
    "fig07": ExperimentConfig(n_clips=3, n_frames=40),
    "fig09": ExperimentConfig(n_clips=1, n_frames=24),
    "fig11": ExperimentConfig(n_clips=1, n_frames=24),
    "fig12": ExperimentConfig(n_clips=2, n_frames=24),
    "fig13": ExperimentConfig(n_clips=1, n_frames=64),
    "fig14": ExperimentConfig(n_clips=2, n_frames=72),
    "fig16": ExperimentConfig(n_clips=2, n_frames=30),
    "ablation": ExperimentConfig(n_clips=1, n_frames=24),
}
