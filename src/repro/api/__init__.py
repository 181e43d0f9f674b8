"""repro.api — the unified experiment API: one facade for workloads,
schedules, platforms and simulation.

Every result in the paper is an instance of one pattern: *build a workload
graph under a schedule, simulate it on a hardware platform, collect
metrics*.  This package expresses that pattern once, in declarative layers:

1. **Workloads** (:mod:`repro.api.workload`) — adapters wrapping the graph
   builders in :mod:`repro.workloads` behind one protocol: ``params()``
   (picklable constructor data), ``build(schedule, hardware)`` (the program +
   input streams) and ``run(schedule, hardware)`` (flat metrics).  Shipped
   adapters: :class:`MoEWorkload`, :class:`AttentionWorkload`,
   :class:`QKVWorkload`, :class:`DecoderWorkload` (end-to-end layers) and
   :class:`DenseFFNWorkload`.
2. **Schedules** (:class:`repro.schedules.Schedule`) — the unified schedule
   composes the tiling / time-multiplexing / parallelization descriptors into
   the actual configuration the builders consume, replacing the per-call-site
   knobs that used to be scattered across the codebase.
3. **Platforms** (:mod:`repro.platforms`) — a :class:`Platform` is a named,
   registered, JSON-round-trippable hardware configuration
   (:func:`get_platform` / :func:`register_platform` /
   :func:`platform_names`; presets ``"sda"``, ``"sda-hbm256"``,
   ``"sda-detailed"``, ``"sda-hbm-small"``); :func:`resolve_platform` is the
   single resolution
   path every subsystem uses instead of per-call-site hardware defaults.
4. **Scenarios** (:mod:`repro.api.scenario`) — a :class:`Scenario` is a named
   workloads × schedules × platforms grid plus a seed; :func:`run` executes
   it through the sweep subsystem (parallel workers, on-disk result caching
   with platform identity in every cache key), and a registry
   (:func:`register_scenario` / :func:`get_scenario`) makes scenarios
   addressable by name.
5. **Experiments** (:mod:`repro.api.experiment`) — an :class:`ExperimentSpec`
   wraps a scenario grid, a parametric :class:`~repro.sweep.SweepSpec` (the
   serving load studies) or a native figure entry point in one serializable
   record; :func:`experiment` resolves figures, scenarios and
   ``"serve-latency"`` by name and :func:`run_experiment` executes any of
   them uniformly.

A complete three-axis experiment in ten lines::

    from repro.api import MoEWorkload, Scenario, Schedule, platform_grid, run
    from repro.data.expert_routing import generate_routing_trace, representative_iteration
    from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

    model = scaled_config(QWEN3_30B_A3B, scale=32)
    routing = representative_iteration(generate_routing_trace(model, batch_size=16, seed=0))
    result = run(Scenario(
        name="my-tiling-study",
        workloads=MoEWorkload(model=model, batch=16, assignments=routing),
        schedules={"tile=8": Schedule.static("tile=8", 8), "dynamic": Schedule.dynamic()},
        platforms=platform_grid(onchip_bandwidths=(64.0, 256.0))))
    print({(row.schedule, row.platform): row["cycles"] for row in result.rows})

The figure modules in :mod:`repro.experiments` are thin wrappers over this
API, so anything they reproduce you can re-mix by declaring a new scenario.
"""

from ..platforms import (PLATFORMS, Platform, default_platform, get_platform,
                         platform_grid, platform_names, register_platform,
                         resolve_platform)
from ..schedules import (ParallelizationSchedule, Schedule, TilingSchedule,
                         TimeMultiplexSchedule, dynamic_tiling, parallelization,
                         static_tiling, time_multiplexing)
from ..sweep import ResultCache, SweepRunner, SweepSpec
from .experiment import (ExperimentResult, ExperimentSpec, experiment,
                         experiment_descriptions, experiment_names,
                         register_experiment, run_experiment)
from .scenario import (SCENARIOS, Scenario, ScenarioResult, ScenarioRow, get_scenario,
                       register_scenario, run, scenario_descriptions, scenario_names)
from .workload import (WORKLOAD_KINDS, AttentionWorkload, BuiltWorkload,
                       DecoderWorkload, DenseFFNWorkload, MoEWorkload, QKVWorkload,
                       Workload, WorkloadBase, register_workload, workload_from_params)
from . import library  # registers the built-in scenarios  # noqa: F401
from ..serve import library as _serve_library  # registers serve-* scenarios  # noqa: F401
from ..serve.policy import (ServePolicy, get_serve_policy, policy_grid,
                            resolve_serve_policy, serve_policy_names)


def serve(model, trace, schedule=None, *, platform=None, **knobs):
    """Run one open-loop serving simulation and return its full report.

    ``trace`` is a :class:`repro.serve.ArrivalTrace` (build one with
    :func:`repro.serve.poisson_trace` / :func:`repro.serve.burst_trace` or
    load a recorded JSON trace with :func:`repro.serve.load_trace`);
    ``schedule`` defaults to the paper's dynamic schedule and ``platform`` to
    the default ``"sda"`` platform (a :class:`Platform`, a registered name or
    a raw ``HardwareConfig``).  ``knobs`` are fields of
    :class:`repro.serve.ServeConfig` — ``batch_cap``, ``num_layers``,
    ``policy`` (a preset name, :class:`repro.serve.ServePolicy` or spec
    dict), ``kv_mode`` / ``eviction_policy`` (inert on unbounded platforms),
    ``report_mode="streaming"`` (O(1)-memory sketches for very large traces),
    ``engine="surrogate"`` with ``cost_model`` / ``calibration_budget``
    (:mod:`repro.costmodel`) and the rest — with the config's defaults and
    validation; any other name is a
    :class:`~repro.core.errors.ConfigError`.  Returns the
    :class:`repro.serve.ServingReport` with per-request TTFT/TPOT/e2e
    records, percentiles, per-priority-class breakdowns, goodput and the
    queue-depth timeline.  For grids (rates × schedules × caps × policies),
    prefer the registered ``serve-*`` scenarios or
    :func:`repro.serve.load_grid`.
    """
    from ..serve.fleet import configure
    from ..serve.scheduler import ServeConfig, simulate_serving

    config = configure(ServeConfig(model=model), **knobs)
    return simulate_serving(config, trace, schedule, hardware=platform)


def serve_fleet(model, trace, schedule=None, *, platform=None,
                num_replicas: int = 2, **knobs):
    """Serve one trace on a fleet of replicas and return its full report.

    The fleet runs ``num_replicas`` copies of the continuous-batching engine
    behind a dispatcher.  ``knobs`` are fields of
    :class:`repro.serve.FleetConfig` — ``routing`` (``"round-robin"``,
    ``"least-loaded"``, ``"least-kv"`` or ``"most-free-kv"``; see
    :func:`repro.serve.routing_policy_names`), ``warmup_cycles`` (a one-time
    cold-start cost per replica), ``autoscaler`` (an
    :class:`repro.serve.AutoscalerConfig` scaling the fleet with queue
    depth) — or of :class:`repro.serve.ServeConfig`, which configure every
    replica exactly as in :func:`serve` (in streaming mode each replica keeps
    sketches and the fleet report merges them).  Returns the
    :class:`repro.serve.FleetReport` with per-replica serving reports,
    fleet-level latency percentiles, utilization/imbalance and the
    scaling-event timeline.  A fleet of one replica with zero warm-up
    reproduces :func:`serve` bit-for-bit.
    """
    from ..serve.fleet import FleetConfig, configure, simulate_fleet
    from ..serve.scheduler import ServeConfig

    config = configure(FleetConfig(serve=ServeConfig(model=model)),
                       num_replicas=num_replicas, **knobs)
    return simulate_fleet(config, trace, schedule, hardware=platform)


__all__ = [
    # workloads
    "Workload",
    "WorkloadBase",
    "BuiltWorkload",
    "MoEWorkload",
    "AttentionWorkload",
    "QKVWorkload",
    "DecoderWorkload",
    "DenseFFNWorkload",
    "WORKLOAD_KINDS",
    "register_workload",
    "workload_from_params",
    # schedules
    "Schedule",
    "TilingSchedule",
    "TimeMultiplexSchedule",
    "ParallelizationSchedule",
    "static_tiling",
    "dynamic_tiling",
    "time_multiplexing",
    "parallelization",
    # platforms
    "Platform",
    "PLATFORMS",
    "register_platform",
    "get_platform",
    "platform_names",
    "platform_grid",
    "default_platform",
    "resolve_platform",
    # scenarios
    "Scenario",
    "ScenarioResult",
    "ScenarioRow",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_descriptions",
    # experiments
    "ExperimentSpec",
    "ExperimentResult",
    "experiment",
    "experiment_names",
    "experiment_descriptions",
    "register_experiment",
    "run_experiment",
    "run",
    "serve",
    "serve_fleet",
    # scheduling policies
    "ServePolicy",
    "get_serve_policy",
    "serve_policy_names",
    "resolve_serve_policy",
    "policy_grid",
    # execution
    "ResultCache",
    "SweepRunner",
    "SweepSpec",
]
