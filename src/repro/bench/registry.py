"""Benchmark registry: named benchmark definitions.

A benchmark is a *build function* taking a
:class:`~repro.experiments.config.BenchScale` and returning a
:class:`BenchCase` — a zero-argument callable performing one iteration plus
a deterministic description of the work that iteration does (frames,
macroblocks, encoded kbit, ...).  Splitting build from run keeps setup
(rendering clips, synthesising motion fields) out of the timed region, and
the ``work`` dict is what throughput figures and the determinism test key
on: it must be identical for two runs at the same scale.

Benchmarks register themselves with the :func:`benchmark` decorator; the
built-in set lives in :mod:`repro.bench.scenarios` and is imported lazily
by :func:`all_benchmarks`, mirroring how :mod:`repro.check` loads its rule
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.config import BenchScale

__all__ = ["BenchCase", "Benchmark", "all_benchmarks", "benchmark"]


@dataclass
class BenchCase:
    """One runnable benchmark instance at a concrete scale.

    Attributes
    ----------
    fn:
        Zero-argument callable performing one iteration; safe to call
        repeatedly.
    work:
        Deterministic per-iteration workload counts (``frames``,
        ``macroblocks``, ``encoded_kbit``, ...).  The runner derives
        throughput as ``value / median_time`` per key.
    """

    fn: Callable[[], Any]
    work: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Benchmark:
    """A registered benchmark: identity plus its build function."""

    name: str
    group: str
    build: Callable[[BenchScale], BenchCase]


_REGISTRY: dict[str, Benchmark] = {}


def benchmark(name: str, *, group: str) -> Callable[[Callable[[BenchScale], BenchCase]], Callable[[BenchScale], BenchCase]]:
    """Decorator registering a build function under ``name``.

    ::

        @benchmark("me/hex", group="me")
        def _build(scale: BenchScale) -> BenchCase: ...
    """

    def deco(build: Callable[[BenchScale], BenchCase]) -> Callable[[BenchScale], BenchCase]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.build is not build:
            raise ValueError(f"duplicate benchmark name {name!r}")
        _REGISTRY[name] = Benchmark(name=name, group=group, build=build)
        return build

    return deco


def all_benchmarks() -> list[Benchmark]:
    """The registered benchmarks, ordered by name.

    Importing :mod:`repro.bench.scenarios` here (not at module import) keeps
    the registry cheap to import and lets tests register ad-hoc benchmarks
    before the built-ins load.
    """
    import repro.bench.scenarios  # noqa: F401  (registers the built-in set)

    return [b for _, b in sorted(_REGISTRY.items())]
