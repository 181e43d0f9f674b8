"""Fleet serving latency versus replica count — the cluster-scale experiment.

Sweeps replica counts × routing policies × a ladder of Poisson arrival rates
(``scale.fleet_replicas`` / ``scale.fleet_routings`` / ``scale.serve_rates``)
through the multi-replica dispatcher (:mod:`repro.serve.fleet`) under the
dynamic schedule and reports, per (replicas, routing, rate) cell, the
fleet-level TTFT / e2e percentiles, goodput, per-replica utilization and load
imbalance.  The curves show how replication moves the queueing knee: a fleet
of N pushes the saturation rate out by roughly N× while load-aware routing
(least-loaded / least-kv) holds the imbalance down where round-robin drifts.

The whole study is **one** declarative record: :func:`spec` builds the grid
as a single :class:`~repro.sweep.SweepSpec` over the ``"fleet"``
task (:func:`repro.serve.sweep.load_grid`), registered as the
``"fleet-latency"`` experiment — ``repro.api.experiment("fleet-latency")``
returns it as a JSON-serializable :class:`~repro.api.ExperimentSpec` and
:func:`run` post-processes the same grid into per-replica-count curves.
Points are cached and pool-parallel like every figure sweep; the traffic
seed is shared by every point, and the experiment is deterministic — the
same scale and seed reproduce every metric bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api.experiment import ExperimentSpec, register_experiment
from ..schedules import Schedule
from ..serve.library import SMOKE_LENGTHS
from ..sweep import SweepRunner, SweepSpec, resolve_runner
from .common import (DEFAULT_SCALE, ExperimentScale, platform, resolve_scale,
                     serving_grid)

#: the per-cell metrics each row of the curves reports
_ROW_METRICS = ("ttft_p50", "ttft_p95", "e2e_p95", "goodput_rpmc",
                "imbalance", "util_mean")


def spec(scale: ExperimentScale = DEFAULT_SCALE, **overrides) -> SweepSpec:
    """The fleet grid (replicas × routing × rates) as one spec.

    ``overrides`` route through :func:`repro.experiments.common.serving_grid`
    (``rates``, ``num_replicas``, ``routings``, ``warmup_cycles``,
    ``autoscaler``, ``num_requests``, ``seed``, ``platform`` …).
    """
    scale = resolve_scale(scale)
    axes = {"num_replicas": scale.fleet_replicas,
            "routing": scale.fleet_routings,
            "arrival_rate": scale.serve_rates}
    return serving_grid(scale, "fleet-latency", axes, overrides, SMOKE_LENGTHS,
                        fleet={"warmup_cycles": scale.fleet_warmup_cycles},
                        schedule=Schedule.dynamic(), platform=platform(scale))


@register_experiment("fleet-latency",
                     "fleet serving latency vs replica count (multi-replica "
                     "dispatch, routing-policy comparison)")
def _fleet_latency_experiment(scale="default", **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        name="fleet-latency",
        description="fleet serving latency vs replica count (multi-replica "
                    "dispatch, routing-policy comparison)",
        sweep=spec(resolve_scale(scale), **overrides))


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Regenerate the fleet latency curves at the given experiment scale."""
    scale = resolve_scale(scale)
    runner = resolve_runner(runner)
    grid = spec(scale)
    metrics = runner.metrics(grid)

    # the grid is replica-major then routing-major (see spec);
    # one slice per (replicas, routing) pair covers its rate ladder
    replicas = list(scale.fleet_replicas)
    routings = list(scale.fleet_routings)
    rates = list(scale.serve_rates)
    rows: List[Dict[str, float]] = []
    for k, rate in enumerate(rates):
        row: Dict[str, float] = {"rate": float(rate)}
        for i, n in enumerate(replicas):
            for j, policy in enumerate(routings):
                cell = metrics[(i * len(routings) + j) * len(rates) + k]
                for key in _ROW_METRICS:
                    row[f"r{n}_{policy}_{key}"] = cell[key]
        rows.append(row)

    def _cell(n_idx: int, policy_idx: int, rate_idx: int) -> Dict[str, float]:
        return metrics[(n_idx * len(routings) + policy_idx) * len(rates) + rate_idx]

    # headline numbers at the heaviest load point, first routing policy:
    # what the largest fleet buys over a single replica
    single_peak = _cell(0, 0, len(rates) - 1)
    fleet_peak = _cell(len(replicas) - 1, 0, len(rates) - 1)
    return {
        "rows": rows,
        "replicas": replicas,
        "routings": routings,
        "batch_cap": scale.serve_batch_cap,
        "num_requests": scale.serve_requests,
        # goodput scaling from the smallest to the largest fleet at peak load
        "peak_goodput_scaling": (fleet_peak["goodput_rpmc"] /
                                 single_peak["goodput_rpmc"]
                                 if single_peak["goodput_rpmc"] > 0 else 0.0),
        # tail-latency relief from replication at peak load
        "peak_ttft_p95_speedup": (single_peak["ttft_p95"] /
                                  fleet_peak["ttft_p95"]
                                  if fleet_peak["ttft_p95"] > 0 else 0.0),
        # worst cross-replica imbalance of the largest fleet over the ladder
        "max_imbalance": max(
            _cell(len(replicas) - 1, j, k)["imbalance"]
            for j in range(len(routings)) for k in range(len(rates))),
    }
