"""Parallel execution of sweep specs with caching.

:class:`SweepRunner` expands a :class:`~repro.sweep.spec.SweepSpec` into
points, satisfies as many as possible from the on-disk
:class:`~repro.sweep.cache.ResultCache`, fans the remainder out across a
``multiprocessing`` pool (``jobs > 1``) or runs them inline (``jobs = 1``),
stores fresh results back to the cache and returns everything in grid order.

Worker safety: the pool executes the module-level :func:`execute_point`
function on :class:`SweepPoint` instances, both of which pickle cleanly (a
point carries only dataclasses and plain data; the worker rebuilds the
program graph itself — see :mod:`repro.sweep.tasks`).  Results are plain
metric dictionaries, so the pool round-trip is cheap.  Points execute with
deterministic per-point seeds, making pooled runs bit-identical to serial
runs (covered by ``tests/sweep/test_runner.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..sim.runner import collector_paused
from .cache import ResultCache
from .spec import SweepPoint, SweepSpec
from .tasks import get_task, task_accepts_seed

#: environment variable providing the default worker count
JOBS_ENV_VAR = "REPRO_SWEEP_JOBS"


def default_jobs() -> int:
    """Worker count from ``REPRO_SWEEP_JOBS`` (defaults to 1 = serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))
    except ValueError:
        return 1


def execute_point(point: SweepPoint) -> Dict[str, float]:
    """Run one sweep point in the current process (the pool worker entry).

    The point's derived seed is passed as ``seed=`` when the task accepts one
    (directly or via ``**kwargs``); tasks without a seed parameter simply run
    without it.  The point's graph build and simulation run with the cyclic
    collector paused (:func:`~repro.sim.runner.collector_paused`).
    """
    task = get_task(point.task)
    kwargs = point.kwargs()
    if "seed" not in kwargs and task_accepts_seed(point.task):
        kwargs["seed"] = point.seed
    with collector_paused():
        return task(**kwargs)


@dataclass
class SweepResult:
    """One executed (or cache-restored) sweep point."""

    point: SweepPoint
    metrics: Dict[str, float]
    cached: bool = False

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


@dataclass
class SweepStats:
    """Execution accounting for :meth:`SweepRunner.run` calls.

    ``points`` may exceed ``simulated + cache_hits``: duplicate points within
    one run (same cache key) are simulated once and share the result.
    """

    points: int = 0
    simulated: int = 0
    cache_hits: int = 0
    elapsed_seconds: float = 0.0

    def add(self, other: "SweepStats") -> None:
        self.points += other.points
        self.simulated += other.simulated
        self.cache_hits += other.cache_hits
        self.elapsed_seconds += other.elapsed_seconds


class SweepRunner:
    """Executes sweep specs across workers with an optional result cache."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Union[ResultCache, os.PathLike, str, None] = None,
                 mp_context: Optional[str] = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self._mp_context = mp_context
        self.last_stats = SweepStats()
        #: running totals over every run() on this runner (the CLI reports these)
        self.cumulative_stats = SweepStats()

    # -- execution ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> List[SweepResult]:
        """Execute every point of ``spec``; results come back in grid order."""
        return self.run_points(spec.points())

    def run_points(self, points: Sequence[SweepPoint]) -> List[SweepResult]:
        started = time.time()
        results: List[Optional[SweepResult]] = [None] * len(points)
        # points with the same cache key are the same simulation (identical
        # task, params and seed) — simulate each distinct point once
        pending: Dict[str, List[int]] = {}
        for i, point in enumerate(points):
            key = point.cache_key()
            if key in pending:
                pending[key].append(i)
                continue
            metrics = self.cache.get(key) if self.cache is not None else None
            if metrics is not None:
                results[i] = SweepResult(point=point, metrics=metrics, cached=True)
            else:
                pending[key] = [i]

        fresh = self._execute([points[indices[0]] for indices in pending.values()])
        for (key, indices), metrics in zip(pending.items(), fresh):
            for i in indices:
                results[i] = SweepResult(point=points[i], metrics=metrics, cached=False)
            if self.cache is not None:
                self.cache.put(key, metrics)

        cached = sum(1 for r in results if r is not None and r.cached)
        self.last_stats = SweepStats(
            points=len(points), simulated=len(pending), cache_hits=cached,
            elapsed_seconds=time.time() - started)
        self.cumulative_stats.add(self.last_stats)
        return results  # type: ignore[return-value]

    def metrics(self, spec: SweepSpec) -> List[Dict[str, float]]:
        """Convenience: just the metric dictionaries, in grid order."""
        return [result.metrics for result in self.run(spec)]

    def _execute(self, points: Sequence[SweepPoint]) -> List[Dict[str, float]]:
        if not points:
            return []
        if self.jobs == 1 or len(points) == 1:
            return [execute_point(point) for point in points]
        # prefer fork only where it is the safe platform default (Linux);
        # macOS forks can crash in Objective-C/Accelerate runtimes
        method = self._mp_context or \
            ("fork" if sys.platform.startswith("linux") else None)
        context = multiprocessing.get_context(method)
        workers = min(self.jobs, len(points))
        with context.Pool(processes=workers) as pool:
            return pool.map(execute_point, points)


#: shared serial, uncached runner used when callers do not provide one
DEFAULT_RUNNER = SweepRunner(jobs=1, cache=None)


def resolve_runner(runner: Optional[SweepRunner]) -> SweepRunner:
    """The runner to use: the caller's, or the serial uncached default."""
    return runner if runner is not None else DEFAULT_RUNNER


def build_runner(jobs: Optional[int] = None,
                 cache: Union[ResultCache, os.PathLike, str, None] = None,
                 runner: Optional[SweepRunner] = None) -> SweepRunner:
    """The one resolution of the (jobs, cache, runner) execution keywords.

    An explicit ``runner`` wins; otherwise ``jobs``/``cache`` build a fresh
    runner, and with neither set the shared serial, uncached default is used.
    Shared by :func:`repro.api.run` and :func:`repro.api.run_experiment` so
    the two facades can never drift on execution defaults.
    """
    if runner is not None:
        return runner
    if jobs or cache is not None:
        return SweepRunner(jobs=jobs, cache=cache)
    return resolve_runner(None)
