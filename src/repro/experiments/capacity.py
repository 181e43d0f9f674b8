"""Max sustainable load under an SLO — the capacity experiment.

Walks the serving load ladder (``scale.serve_rates``) across
``scale.capacity_platforms`` under production-shaped traffic from a
registered generator (``scale.capacity_generator``, heavy-tailed by
default — see :mod:`repro.serve.generators`) and asks, per platform: what
is the **highest offered rate whose SLO attainment still clears the
target**?  Attainment is the fraction of completions whose TTFT met
``scale.capacity_ttft_slo``; a rate is *sustainable* when that fraction is
at least ``scale.capacity_attainment``.

The answer is the capacity headline operators actually provision against:
plain throughput keeps rising past saturation (every request completes
eventually), but attainment cliffs once queueing delay pushes
time-to-first-token over budget, so the sustainable rate is a sharp,
platform-dependent knee.  Capacity-bounded platforms (finite HBM) knee
earlier than the unbounded baseline because admission stalls and
preemptions inflate TTFT before compute saturates.

The whole study is **one** declarative record: :func:`spec` builds the
platforms × rates grid as a single :class:`~repro.sweep.SweepSpec`
over the ``"serve"`` task (:func:`repro.serve.sweep.load_grid`),
registered as the ``"capacity"`` experiment, and :func:`run` post-processes
it into per-platform attainment curves plus the max-sustainable-rate
summary.  Points are cached and pool-parallel like every figure sweep, and
the experiment is deterministic — the same scale and seed reproduce every
metric bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..api.experiment import ExperimentSpec, register_experiment
from ..schedules import Schedule
from ..serve.library import SMOKE_LENGTHS
from ..sweep import SweepRunner, SweepSpec, resolve_runner
from .common import DEFAULT_SCALE, ExperimentScale, resolve_scale, serving_grid

#: the per-rate metrics each platform's curve reports
_ROW_METRICS = ("slo_attainment", "slo_goodput_rpmc", "goodput_rpmc",
                "ttft_p99", "e2e_p99", "queue_queued_max")


def spec(scale: ExperimentScale = DEFAULT_SCALE, **overrides) -> SweepSpec:
    """The capacity study (platforms × rates) as one spec.

    ``overrides`` route through :func:`repro.experiments.common.serving_grid`
    (``rates``, ``platforms``, ``generator``, ``num_requests``,
    ``report_mode`` …).
    """
    scale = resolve_scale(scale)
    axes = {"platform": scale.capacity_platforms,
            "arrival_rate": scale.serve_rates}
    return serving_grid(scale, "capacity", axes, overrides, SMOKE_LENGTHS,
                        trace={"generator": scale.capacity_generator},
                        schedule=Schedule.dynamic(),
                        ttft_slo=scale.capacity_ttft_slo)


@register_experiment("capacity",
                     "max sustainable offered load vs TTFT-SLO attainment "
                     "across platforms under heavy-tailed traffic")
def _capacity_experiment(scale="default", **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        name="capacity",
        description="max sustainable offered load vs TTFT-SLO attainment "
                    "across platforms under heavy-tailed traffic",
        sweep=spec(resolve_scale(scale), **overrides))


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Regenerate the attainment-vs-load curves at the given experiment scale."""
    scale = resolve_scale(scale)
    runner = resolve_runner(runner)
    grid = spec(scale)
    metrics = runner.metrics(grid)

    # the grid is platform-major (see spec); one slice per platform
    # covers its rate ladder
    labels = list(scale.capacity_platforms)
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

    # per platform: the highest swept rate whose attainment clears the
    # target (0.0 when even the lowest rate misses it)
    target = float(scale.capacity_attainment)
    summary: Dict[str, Dict[str, float]] = {}
    for label, series in per_platform.items():
        attainment = [m["slo_attainment"] for m in series]
        sustainable = [j for j, a in enumerate(attainment) if a >= target]
        knee = sustainable[-1] if sustainable else None
        summary[label] = {
            "max_sustainable_rate": float(rates[knee]) if knee is not None else 0.0,
            "attainment_at_knee": attainment[knee] if knee is not None else 0.0,
            "attainment_at_peak_load": attainment[-1],
            "slo_goodput_at_knee": (series[knee]["slo_goodput_rpmc"]
                                    if knee is not None else 0.0),
        }

    return {
        "rows": rows,
        "platforms": labels,
        "generator": scale.capacity_generator,
        "ttft_slo": scale.capacity_ttft_slo,
        "attainment_target": target,
        "num_requests": scale.serve_requests,
        "summary": summary,
    }


def bisect_knee(sustainable: Callable[[int], bool],
                num_rates: int) -> Tuple[Optional[int], int]:
    """Binary-search a rate ladder for its SLO knee.

    ``sustainable(j)`` answers whether rung ``j`` of an ascending ladder of
    ``num_rates`` offered rates still clears the attainment target.  Under
    the capacity experiment's premise — attainment is monotone non-increasing
    in offered load — the sustainable rungs form a prefix, so the knee (the
    *last* sustainable index, exactly what :func:`run` reads off the full
    grid) is found in ``O(log num_rates)`` probes instead of ``num_rates``.

    Returns ``(knee_index, evaluations)``; the index is ``None`` when even
    the lowest rung misses the target.
    """
    lo, hi = 0, num_rates - 1
    best: Optional[int] = None
    evaluations = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        evaluations += 1
        if sustainable(mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best, evaluations


def run_adaptive(scale: ExperimentScale = DEFAULT_SCALE,
                 runner: Optional[SweepRunner] = None,
                 **overrides) -> Dict[str, object]:
    """The capacity summary by bisection instead of the full rate grid.

    Per platform, probes single ``(platform, rate)`` points of the *same*
    ``"serve"`` task with the *same* base knobs as :func:`spec` — each probe
    is one-point :class:`~repro.sweep.SweepSpec`, so its cache entry is
    shared with the full grid (spec names are excluded from cache keys) —
    and bisects the rate ladder for the knee.  ``overrides`` forward to
    :func:`spec` exactly as in :func:`run`'s grid.

    The summary matches :func:`run`'s per-platform fields (same knee on
    monotone attainment curves — pinned by
    ``tests/experiments/test_capacity_adaptive.py``) plus the probe counts;
    the peak rung is evaluated when the bisection did not already touch it,
    so ``attainment_at_peak_load`` stays comparable.
    """
    scale = resolve_scale(scale)
    runner = resolve_runner(runner)
    rates = [float(r) for r in scale.serve_rates]
    labels = list(scale.capacity_platforms)
    target = float(scale.capacity_attainment)

    total_evaluations = 0
    summary: Dict[str, Dict[str, float]] = {}
    for label in labels:
        evaluated: Dict[int, Dict[str, float]] = {}

        def probe(j: int, label: str = label,
                  evaluated: Dict[int, Dict[str, float]] = evaluated
                  ) -> Dict[str, float]:
            if j not in evaluated:
                point = spec(scale, platforms=[label], rates=[rates[j]],
                             **overrides)
                evaluated[j] = runner.metrics(point)[0]
            return evaluated[j]

        knee, evaluations = bisect_knee(
            lambda j: probe(j)["slo_attainment"] >= target, len(rates))
        peak = len(rates) - 1
        if peak not in evaluated:
            probe(peak)
            evaluations += 1
        total_evaluations += evaluations

        summary[label] = {
            "max_sustainable_rate": rates[knee] if knee is not None else 0.0,
            "attainment_at_knee": (evaluated[knee]["slo_attainment"]
                                   if knee is not None else 0.0),
            "attainment_at_peak_load": evaluated[peak]["slo_attainment"],
            "slo_goodput_at_knee": (evaluated[knee]["slo_goodput_rpmc"]
                                    if knee is not None else 0.0),
            "evaluations": float(evaluations),
        }

    return {
        "platforms": labels,
        "rates": rates,
        "generator": scale.capacity_generator,
        "ttft_slo": scale.capacity_ttft_slo,
        "attainment_target": target,
        "num_requests": scale.serve_requests,
        "summary": summary,
        "total_evaluations": total_evaluations,
        "grid_points": len(labels) * len(rates),
    }
