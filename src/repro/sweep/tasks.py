"""Registered simulation tasks — the picklable unit of sweep work.

A *task* is a module-level function mapping plain, picklable parameters to a
flat metrics dictionary.  Workers rebuild the dataflow program from those
parameters inside their own process, so nothing unpicklable (token streams,
lowered programs, executor generators) ever crosses the pool boundary, and
the returned dictionary is exactly what the result cache stores.

Since the unified scenario API (:mod:`repro.api`) there is one shipped task:
``"workload"``, which runs any :class:`repro.api.workload.Workload` adapter
under a unified :class:`repro.schedules.Schedule`.  The per-workload wrappers
that used to live here (``moe_layer``, ``attention_layer``) are gone — their
parameters now travel as workload/schedule value objects, which pickle and
content-hash like any other dataclass.

Tasks are looked up by name via :data:`TASKS` / :func:`get_task`; new
subsystems register theirs with :func:`register_task`.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict

from ..core.errors import ConfigError
from ..sim.runner import SimReport

#: task name -> callable(**params) -> metrics dict
TASKS: Dict[str, Callable[..., Dict[str, float]]] = {}


def register_task(name: str):
    """Decorator registering a sweep task under ``name``.

    Tasks must accept picklable keyword arguments only and return a flat,
    JSON-able metrics dictionary (see :func:`report_metrics`).  A task that
    accepts a ``seed`` parameter (directly or via ``**kwargs``) receives the
    point's deterministic derived seed when the spec does not set one.
    """

    def wrap(func: Callable[..., Dict[str, float]]):
        if name in TASKS:
            raise ConfigError(f"sweep task {name!r} is already registered")
        TASKS[name] = func
        # a pre-registration query may have cached "unknown task ⇒ seedless"
        task_accepts_seed.cache_clear()
        return func

    return wrap


def get_task(name: str) -> Callable[..., Dict[str, float]]:
    try:
        return TASKS[name]
    except KeyError:
        raise ConfigError(f"unknown sweep task {name!r}; "
                          f"registered: {sorted(TASKS)}") from None


@functools.lru_cache(maxsize=None)
def task_accepts_seed(name: str) -> bool:
    """Whether the task consumes a ``seed`` keyword (directly or via ``**kwargs``).

    Tasks that don't are pure functions of their other parameters: the runner
    skips seed injection and :meth:`SweepPoint.cache_key` leaves the derived
    seed out of their keys, so identical simulations share cache entries
    across spec seeds.  Returns False for unregistered names (the run itself
    reports those).
    """
    if name not in TASKS:
        return False
    params = inspect.signature(TASKS[name]).parameters
    return "seed" in params or any(p.kind is inspect.Parameter.VAR_KEYWORD
                                   for p in params.values())


def report_metrics(report: SimReport) -> Dict[str, float]:
    """The flat, JSON-able metric payload every task returns (and the cache stores)."""
    return report.to_dict()


@register_task("workload")
def workload(workload, schedule, platform=None) -> Dict[str, float]:
    """The generic scenario task: any workload adapter under a unified schedule.

    ``workload`` is a :class:`repro.api.workload.Workload` value object,
    ``schedule`` a :class:`repro.schedules.Schedule`; both pickle cleanly and
    canonicalize for cache hashing as tagged dataclasses.  The hardware axis
    arrives as ``platform`` (a :class:`repro.platforms.Platform`, registered
    name or raw :class:`HardwareConfig`; a platform's *name* participates in
    the cache key alongside its hardware fields — two named platforms are
    distinct design points even with equal hardware).  The *full* platform
    is handed to the workload — adapters resolve it down to the raw
    :class:`HardwareConfig` themselves — so platform-level fields the hardware
    config doesn't carry (``hbm_capacity_bytes``) survive the trip into
    capacity-aware workloads like serving.  Deliberately seedless: the
    workload's data (routing assignments, KV traces) fully determines the
    result, so cache entries are shared across spec seeds.
    """
    from ..platforms import resolve_platform

    return workload.run(schedule, resolve_platform(platform))
