"""Goodput and tail latency under finite HBM — the memory-pressure experiment.

Sweeps the serving load ladder (``scale.serve_rates``) across a family of
platforms that differ **only** in ``hbm_capacity_bytes``: the unbounded
baseline plus the page budgets in ``scale.memory_capacity_pages`` (each
budget is ``pages x kv_tile_rows`` KV rows of the served model — see
:func:`repro.serve.memory.kv_bytes_per_row`).  Traffic is decode-heavy
(:data:`repro.serve.library.OVERLOAD_LENGTHS`) so running requests grow
across page boundaries, which is what makes preemption — not just admission
queueing — part of the picture.

Goodput here is **SLO goodput** (:meth:`ServingReport.slo_goodput
<repro.serve.report.ServingReport.slo_goodput>`): completions whose TTFT met
the ``scale.memory_ttft_slo`` budget, per Mcycle.  Plain throughput merely
*plateaus* past saturation — every request still completes eventually — but
SLO goodput cliffs, because past the peak each extra offered request raises
concurrent KV demand, which turns into admission stalls, preemptions and
recompute work that push time-to-first-token over budget.  The bounded
platforms therefore peak **lower** than the unbounded baseline and decline
**strictly** past their peak (the *goodput cliff*); both properties are
pinned by ``tests/experiments/test_memory_pressure.py``, alongside p99 TTFT,
which inflates much faster on the bounded platforms.

The whole study is **one** declarative record: :func:`spec` builds the
platforms × rates grid as a single :class:`~repro.sweep.SweepSpec`
over the ``"serve"`` task (:func:`repro.serve.sweep.load_grid`),
registered as the ``"memory-pressure"`` experiment, and :func:`run`
post-processes it into per-capacity curves.  Points are cached and
pool-parallel like every figure sweep, and the experiment is deterministic —
the same scale and seed reproduce every metric bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api.experiment import ExperimentSpec, register_experiment
from ..platforms import Platform, platform_grid
from ..schedules import Schedule
from ..serve.library import OVERLOAD_LENGTHS, _serve_model
from ..serve.memory import kv_bytes_per_row
from ..sweep import SweepRunner, SweepSpec, resolve_runner
from .common import DEFAULT_SCALE, ExperimentScale, resolve_scale, serving_grid

#: KV rows per page — the serving engine's kv_tile_rows, which is also the
#: KVPagePool's page granularity (one definition keeps the byte budgets in
#: scale.memory_capacity_pages meaning whole pages)
KV_PAGE_ROWS = 64

#: the per-rate metrics each capacity's curve reports
_ROW_METRICS = ("slo_goodput_rpmc", "slo_attainment", "goodput_rpmc",
                "ttft_p99", "preemptions", "recompute_tokens",
                "admission_stalls", "kv_occupancy_mean")


def capacity_platforms(scale: ExperimentScale) -> Dict[str, Platform]:
    """The swept platforms: ``sda`` plus one HBM-capacity variant per budget.

    Page budgets convert to bytes through the *served model's* KV row size at
    the experiment's layer count, so a "4-page" platform means the same four
    schedulable pages at every model scale.
    """
    model = _serve_model(scale.model_scale, max_experts=scale.serve_max_experts)
    row_bytes = kv_bytes_per_row(model, scale.serve_layers)
    capacities = [None if pages is None else pages * KV_PAGE_ROWS * row_bytes
                  for pages in scale.memory_capacity_pages]
    return platform_grid(hbm_capacities=capacities)


def spec(scale: ExperimentScale = DEFAULT_SCALE, **overrides) -> SweepSpec:
    """The capacity study (platforms × rates) as one spec.

    ``overrides`` route through :func:`repro.experiments.common.serving_grid`
    (``rates``, ``platforms``, ``num_requests``, ``kv_mode``,
    ``eviction_policy`` …).
    """
    scale = resolve_scale(scale)
    axes = {"platform": list(capacity_platforms(scale).values()),
            "arrival_rate": scale.serve_rates}
    return serving_grid(scale, "memory-pressure", axes, overrides,
                        OVERLOAD_LENGTHS, knobs={"kv_tile_rows": KV_PAGE_ROWS},
                        schedule=Schedule.dynamic(),
                        ttft_slo=scale.memory_ttft_slo)


@register_experiment("memory-pressure",
                     "serving goodput + p99 TTFT vs offered load across HBM "
                     "capacities (paged KV, preemption under pressure)")
def _memory_pressure_experiment(scale="default", **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        name="memory-pressure",
        description="serving goodput + p99 TTFT vs offered load across HBM "
                    "capacities (paged KV, preemption under pressure)",
        sweep=spec(resolve_scale(scale), **overrides))


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Regenerate the capacity-vs-load curves at the given experiment scale."""
    scale = resolve_scale(scale)
    runner = resolve_runner(runner)
    grid = spec(scale)
    metrics = runner.metrics(grid)

    # the grid is platform-major (see spec); one slice per
    # capacity covers its rate ladder
    labels = list(capacity_platforms(scale))
    rates = list(scale.serve_rates)
    per_platform: Dict[str, List[Dict[str, float]]] = {
        label: metrics[i * len(rates):(i + 1) * len(rates)]
        for i, label in enumerate(labels)}

    rows: List[Dict[str, float]] = []
    for j, rate in enumerate(rates):
        row: Dict[str, float] = {"rate": float(rate)}
        for label, series in per_platform.items():
            for key in _ROW_METRICS:
                row[f"{label}_{key}"] = series[j][key]
        rows.append(row)

    # per capacity: the SLO-goodput peak and how far past-saturation load
    # falls off it — the cliff summary the regression test pins
    summary: Dict[str, Dict[str, float]] = {}
    for label, series in per_platform.items():
        goodput = [m["slo_goodput_rpmc"] for m in series]
        peak = max(range(len(goodput)), key=lambda i: goodput[i])
        summary[label] = {
            "peak_rate": float(rates[peak]),
            "peak_slo_goodput_rpmc": goodput[peak],
            "final_slo_goodput_rpmc": goodput[-1],
            "cliff_ratio": (goodput[-1] / goodput[peak]
                            if goodput[peak] > 0 else 0.0),
            "preemptions": float(sum(m["preemptions"] for m in series)),
            "admission_stalls": float(sum(m["admission_stalls"]
                                          for m in series)),
        }

    return {
        "rows": rows,
        "capacities": labels,
        "batch_cap": scale.serve_batch_cap,
        "num_requests": scale.serve_requests,
        "ttft_slo": scale.memory_ttft_slo,
        "summary": summary,
    }
