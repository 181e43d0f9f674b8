"""Serving latency versus offered load — the open-loop serving experiment.

Sweeps a ladder of Poisson arrival rates (``scale.serve_rates``, requests per
million cycles) under the static and the dynamic schedule and reports, per
rate, the TTFT / TPOT / e2e percentiles, goodput and mean queue depth of a
continuous-batching server simulated on the dataflow engine
(:mod:`repro.serve`).  The curve shows the classic serving picture: flat
latency while the server keeps up, then a queueing knee and goodput plateau
once the offered load crosses the engine's service capacity — and how much
further the dynamic schedule pushes that knee.

The whole study is **one** declarative record: :func:`spec` builds the
schedules × rates × caps grid as a single
:class:`~repro.sweep.SweepSpec` over the ``"serve"`` task
(:func:`repro.serve.sweep.load_grid`), registered as the
``"serve-latency"`` experiment — ``repro.api.experiment("serve-latency")``
returns it as a JSON-serializable :class:`~repro.api.ExperimentSpec` and
:func:`run` post-processes the same grid into the latency-vs-load curve.
Points are cached and pool-parallel like every figure sweep; the traffic seed
is shared by every point (rates change the inter-arrival *scale*, not the
random stream), and the whole experiment is deterministic — the same scale
and seed reproduce every metric bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api.experiment import ExperimentSpec, register_experiment
from ..serve.library import SMOKE_LENGTHS, serve_schedules
from ..sweep import SweepRunner, SweepSpec, resolve_runner
from .common import (DEFAULT_SCALE, ExperimentScale, platform, resolve_scale,
                     serving_grid)

#: the per-rate metrics each row of the curve reports, per schedule
_ROW_METRICS = ("ttft_p50", "ttft_p95", "tpot_p50", "e2e_p95", "goodput_rpmc",
                "queue_queued_mean")


def spec(scale: ExperimentScale = DEFAULT_SCALE, **overrides) -> SweepSpec:
    """The latency-vs-load grid (schedules × rates × caps) as one spec.

    ``overrides`` route through :func:`repro.experiments.common.serving_grid`
    (``rates``, ``batch_caps``, ``num_requests``, ``seed``, ``platform``, any
    :class:`~repro.serve.ServeConfig` field …).
    """
    scale = resolve_scale(scale)
    axes = {"schedule": list(serve_schedules().values()),
            "arrival_rate": scale.serve_rates,
            "batch_cap": (scale.serve_batch_cap,)}
    return serving_grid(scale, "serve-latency", axes, overrides, SMOKE_LENGTHS,
                        platform=platform(scale))


@register_experiment("serve-latency",
                     "serving latency vs offered load (continuous batching, "
                     "static vs dynamic schedule)")
def _serve_latency_experiment(scale="default", **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        name="serve-latency",
        description="serving latency vs offered load (continuous batching, "
                    "static vs dynamic schedule)",
        sweep=spec(resolve_scale(scale), **overrides))


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Regenerate the latency-vs-load curve at the given experiment scale."""
    runner = resolve_runner(runner)
    grid = spec(scale)
    metrics = runner.metrics(grid)

    # the grid is schedule-major (see spec); one slice per
    # schedule covers its rates × caps block
    labels = list(serve_schedules())
    block = len(metrics) // len(labels)
    per_schedule: Dict[str, List[Dict[str, float]]] = {
        label: metrics[i * block:(i + 1) * block] for i, label in enumerate(labels)}

    rows: List[Dict[str, float]] = []
    for i, rate in enumerate(scale.serve_rates):
        row: Dict[str, float] = {"rate": float(rate)}
        for label, series in per_schedule.items():
            for key in _ROW_METRICS:
                row[f"{label}_{key}"] = series[i][key]
        rows.append(row)

    dynamic = per_schedule["dynamic"]
    light, peak = dynamic[0], dynamic[-1]
    return {
        "rows": rows,
        "batch_cap": scale.serve_batch_cap,
        "num_requests": scale.serve_requests,
        # the goodput plateau: the engine's measured service capacity
        "peak_goodput_rpmc": max(m["goodput_rpmc"] for m in dynamic),
        # tail-latency inflation between the lightest and heaviest load point
        "overload_ttft_inflation": (peak["ttft_p95"] / light["ttft_p95"]
                                    if light["ttft_p95"] > 0 else 0.0),
        # dynamic-vs-static tail latency at the heaviest load point
        "dynamic_ttft_p95_speedup": (
            per_schedule["static"][-1]["ttft_p95"] / peak["ttft_p95"]
            if peak["ttft_p95"] > 0 else 0.0),
    }
