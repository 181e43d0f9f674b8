"""Parallel design-space sweep subsystem.

The paper's evaluation is sweep-shaped — static-tile sweeps against dynamic
tiling (Figures 9/10/19/20), parallel-region sweeps for configuration
time-multiplexing (Figures 12/13), batch-size and strategy grids for dynamic
parallelization (Figures 14/15/21).  This package turns those loops into
declarative :class:`SweepSpec` grids executed by a :class:`SweepRunner` that
fans points out over a process pool and memoizes results in an on-disk
:class:`ResultCache` keyed by a stable content hash, so repeated sweeps are
near-instant and bigger grids cost only fresh points.

Most callers declare a :class:`repro.api.Scenario` and let the scenario API
build the spec; direct use looks like::

    from repro.api import MoEWorkload, Schedule
    from repro.sweep import ResultCache, SweepRunner, SweepSpec

    spec = SweepSpec(name="tiles", task="workload",
                     base={"workload": MoEWorkload(model=model, batch=64,
                                                   assignments=assignments),
                           "platform": hw},
                     axes={"schedule": [Schedule.static(f"tile={t}", t)
                                        for t in (8, 16, 32, 64)]
                           + [Schedule.dynamic()]})
    runner = SweepRunner(jobs=4, cache=ResultCache())
    for result in runner.run(spec):
        print(result.point.label(), result["cycles"])
"""

from .cache import CACHE_VERSION, ResultCache, canonicalize, code_fingerprint, \
    default_cache_root, stable_hash
from .runner import DEFAULT_RUNNER, SweepResult, SweepRunner, SweepStats, \
    build_runner, default_jobs, execute_point, resolve_runner
from .spec import SweepPoint, SweepSpec
from .tasks import TASKS, get_task, register_task, report_metrics, task_accepts_seed

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_RUNNER",
    "ResultCache",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SweepStats",
    "TASKS",
    "canonicalize",
    "code_fingerprint",
    "default_cache_root",
    "build_runner",
    "default_jobs",
    "execute_point",
    "get_task",
    "register_task",
    "report_metrics",
    "resolve_runner",
    "stable_hash",
    "task_accepts_seed",
]
