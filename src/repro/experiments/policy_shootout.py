"""Tail-TTFT SLO attainment across scheduling policies — the policy shootout.

Sweeps the registered :class:`~repro.serve.ServePolicy` presets
(``scale.policy_names``) across offered load (``scale.serve_rates``) and
platforms (``scale.policy_platforms`` — the unbounded baseline plus the
capacity-bounded HBM variant, so policies are compared both with and without
memory pressure).  Every point serves the *same-seed* decode-heavy traffic
(:data:`repro.serve.library.OVERLOAD_LENGTHS`); only the scheduling
discipline — admission order, step composition, priority assignment —
differs, so the attainment gaps are pure policy effects.

The headline metric is **SLO attainment** against ``scale.policy_ttft_slo``:
the fraction of requests whose time-to-first-token met the budget.  The
policies trade it off differently: chunked prefill bounds the prefill work
per step (decode latency stays flat while a long prompt streams in),
prefill/decode disaggregation alternates pure phases, priority-class
admission lets interactive requests overtake queued batch work, and
SLO-deadline admission preempts running requests when a tighter-deadline
arrival would otherwise miss.  The default policy reproduces the historical
scheduler exactly and anchors the comparison.

The whole study is **one** declarative record: :func:`spec` builds the
policies × platforms × rates grid as a single
:class:`~repro.sweep.SweepSpec` over the ``"serve"`` task
(:func:`repro.serve.sweep.load_grid`) — each policy is a regular
axis value, so policy identity lands in every point's cache key — registered
as the ``"policy-shootout"`` experiment, and :func:`run` post-processes it
into per-policy curves and a per-platform winner summary.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api.experiment import ExperimentSpec, register_experiment
from ..schedules import Schedule
from ..serve.library import OVERLOAD_LENGTHS
from ..sweep import SweepRunner, SweepSpec, resolve_runner
from .common import DEFAULT_SCALE, ExperimentScale, resolve_scale, serving_grid

#: the per-rate metrics each policy's curve reports
_ROW_METRICS = ("slo_attainment", "slo_goodput_rpmc", "ttft_p99",
                "tpot_p99", "goodput_rpmc", "preemptions")


def spec(scale: ExperimentScale = DEFAULT_SCALE, **overrides) -> SweepSpec:
    """The policy study (policies × platforms × rates) as one spec.

    ``overrides`` route through :func:`repro.experiments.common.serving_grid`
    (``policies``, ``platforms``, ``rates``, ``ttft_slo``,
    ``num_requests`` …).
    """
    scale = resolve_scale(scale)
    axes = {"policy": scale.policy_names, "platform": scale.policy_platforms,
            "arrival_rate": scale.serve_rates}
    return serving_grid(scale, "policy-shootout", axes, overrides,
                        OVERLOAD_LENGTHS, knobs={"kv_tile_rows": 64},
                        schedule=Schedule.dynamic(),
                        ttft_slo=scale.policy_ttft_slo)


@register_experiment("policy-shootout",
                     "tail-TTFT SLO attainment across scheduling policies x "
                     "offered load x platforms (admission/batching/priority "
                     "registries)")
def _policy_shootout_experiment(scale="default", **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        name="policy-shootout",
        description="tail-TTFT SLO attainment across scheduling policies x "
                    "offered load x platforms (admission/batching/priority "
                    "registries)",
        sweep=spec(resolve_scale(scale), **overrides))


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Regenerate the policy-comparison curves at the given experiment scale."""
    scale = resolve_scale(scale)
    runner = resolve_runner(runner)
    grid = spec(scale)
    metrics = runner.metrics(grid)

    # the grid is policy-major, then platform, then rate (see spec); one
    # slice per (policy, platform) covers its ladder
    policies = list(scale.policy_names)
    platforms = list(scale.policy_platforms)
    rates = list(scale.serve_rates)
    per_curve: Dict[tuple, List[Dict[str, float]]] = {}
    for i, policy in enumerate(policies):
        for j, platform in enumerate(platforms):
            start = (i * len(platforms) + j) * len(rates)
            per_curve[(policy, platform)] = metrics[start:start + len(rates)]

    rows: List[Dict[str, float]] = []
    for k, rate in enumerate(rates):
        row: Dict[str, float] = {"rate": float(rate)}
        for (policy, platform), series in per_curve.items():
            for key in _ROW_METRICS:
                row[f"{platform}_{policy}_{key}"] = series[k][key]
        rows.append(row)

    # per platform: rank policies by their mean SLO attainment over the
    # ladder — the shootout summary
    summary: Dict[str, Dict[str, object]] = {}
    for platform in platforms:
        attainment = {
            policy: (sum(m["slo_attainment"]
                         for m in per_curve[(policy, platform)])
                     / len(rates))
            for policy in policies}
        winner = max(attainment, key=lambda p: attainment[p])
        summary[platform] = {
            "mean_slo_attainment": attainment,
            "best_policy": winner,
            "best_mean_slo_attainment": attainment[winner],
        }

    return {
        "rows": rows,
        "policies": policies,
        "platforms": platforms,
        "ttft_slo": scale.policy_ttft_slo,
        "batch_cap": scale.serve_batch_cap,
        "num_requests": scale.serve_requests,
        "summary": summary,
    }
