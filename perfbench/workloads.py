"""The three cold workloads, each run once per child process.

Every workload takes its seed and a :class:`~speed.PhaseClock`, imports what
it needs (phase ``"start"``), then calls ``clock.enter("setup")`` and builds
its inputs, ``clock.enter("timed")`` and runs the timed phase, and
``clock.enter("post")`` and runs untimed checks.  It returns a plain dict:

* ``attempted`` / ``failed`` operations and the list of failed ``checks``,
* ``digest``: a hash of the simulated results, plus a readable ``summary``,
* ``extra``: counts read from the program's own counters and reports, and
  the accuracy figures.

Only public entry points are called: ``repro.api.serve`` /
``repro.api.serve_fleet``, ``repro.costmodel.calibrate_model`` and the
figure ``run`` functions in ``repro.experiments``.  Modules are reached
through attribute lookups at call time so that traced runs see the wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from typing import Any, Dict, List, Tuple

#: serve-exact-cold: requests per trace, arrival rate (requests per Mcycle)
EXACT_REQUESTS = 120
EXACT_RATE = 400.0
#: fleet-surrogate-ladder: requests per cell and the four cells
LADDER_REQUESTS = 20_000
LADDER_RATES = (400.0, 800.0, 1200.0)
LADDER_CELLS = ((400.0, False), (800.0, False), (1200.0, False), (800.0, True))
#: KV rows each replica of the bounded cell can hold
LADDER_KV_ROWS = 640
#: the wide heavy-tail length profile of the ``fleet-surrogate`` scenario
LADDER_PROFILE = {"prompt_mean": 48.0, "prompt_max": 384,
                  "output_mean": 8.0, "output_max": 24}
#: calibration probe ranges that cover the ladder's step signatures
LADDER_PROBES = {"budget": 24, "max_tokens": 1024, "max_kv_rows": 448}
#: serving knobs shared by both serving workloads
SERVE_KNOBS = {"batch_cap": 8, "num_layers": 2, "kv_tile_rows": 64}


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def serve_exact_cold(seed: int, clock) -> Dict[str, Any]:
    """One cold exact-engine serving run, then an untimed surrogate rerun."""
    import repro.api
    import repro.costmodel
    from repro.serve import generators, library, report, scheduler

    clock.enter("setup")
    model = library._serve_model(32)
    trace = generators.generate_trace("heavy-tail", rate=EXACT_RATE,
                                      num_requests=EXACT_REQUESTS, seed=seed)
    checks: List[str] = []
    scheduler.clear_step_cache()
    cold = scheduler.step_cache_stats()
    if cold["size"] or cold["misses"] or cold["hits"]:
        checks.append(f"step memo not empty before the timed phase: {cold}")

    clock.enter("timed")
    exact = repro.api.serve(model, trace, **SERVE_KNOBS)
    memo = scheduler.step_cache_stats()
    clock.enter("post")

    # cold-state guard: every distinct signature was simulated here
    simulated = memo["misses"] - cold["misses"]
    if simulated != exact.distinct_steps:
        checks.append(f"timed phase simulated {simulated} of "
                      f"{exact.distinct_steps} distinct step signatures: "
                      f"the memo was warm")
    lost = 0
    records = {r.request_id: r for r in exact.requests}
    if len(records) != len(exact.requests):
        checks.append("a request completed more than once")
    for request in trace.requests:
        record = records.get(request.request_id)
        if (record is None or record.output_tokens != request.output_tokens
                or not request.arrival <= record.first_token
                <= record.completion):
            lost += 1
    payload = exact.to_dict()
    restored = report.ServingReport.from_dict(payload)
    if restored.to_dict() != payload or restored.metrics() != exact.metrics():
        checks.append("from_dict(to_dict(report)) does not round-trip")

    surrogate = repro.api.serve(model, trace, **SERVE_KNOBS,
                                engine="surrogate", calibration_budget=24)
    after = scheduler.step_cache_stats()
    # steps the adaptive surrogate costed exactly (through the memo)
    probes = after["hits"] + after["misses"] - memo["hits"] - memo["misses"]
    errors = {}
    for name in ("ttft", "tpot", "e2e"):
        want, got = getattr(exact, name)(), getattr(surrogate, name)()
        for q in ("p50", "p90"):
            errors[f"{name}_{q}"] = abs(got[q] - want[q]) / want[q]
    tolerance = repro.costmodel.SURROGATE_TOLERANCE
    off = {k: round(v, 4) for k, v in errors.items() if v > tolerance}
    if off:
        checks.append(f"surrogate outside SURROGATE_TOLERANCE: {off}")

    payload.pop("step_cache")
    summary = {"requests": exact.num_requests,
               "distinct_steps": exact.distinct_steps,
               "total_cycles": exact.total_cycles,
               "ttft_p90": exact.ttft()["p90"], "tpot_p90": exact.tpot()["p90"]}
    return {
        "attempted": len(trace.requests), "failed": lost + len(checks),
        "checks": checks + ([f"{lost} requests missing, short or with "
                             f"TTFT > e2e"] if lost else []),
        "summary": summary,
        "digest": digest([payload, surrogate.metrics()]),
        "extra": {
            "serve.scheduler.step_memo_hits": memo["hits"],
            "serve.scheduler.step_memo_misses": memo["misses"],
            "serve.scheduler.step_memo_hit_ratio":
                memo["hits"] / (memo["hits"] + memo["misses"]),
            "costmodel.probes": probes,
            "costmodel.ttft_p90_err": errors["ttft_p90"],
            "costmodel.tpot_p90_err": errors["tpot_p90"],
        },
    }


def fleet_surrogate_ladder(seed: int, clock) -> Dict[str, Any]:
    """Offline calibration in set-up, then four fleet cells on the surrogate."""
    import repro.api
    import repro.costmodel
    from repro.core.errors import ConfigError
    from repro.serve import generators, library, memory, scheduler

    clock.enter("setup")
    model = library._serve_model(32)
    traces = {rate: generators.generate_trace(
        "heavy-tail", rate=rate, num_requests=LADDER_REQUESTS, seed=seed,
        **LADDER_PROFILE) for rate in LADDER_RATES}
    bounded = repro.api.get_platform("sda").replace(
        name=f"sda-kv{LADDER_KV_ROWS}",
        hbm_capacity_bytes=LADDER_KV_ROWS * memory.kv_bytes_per_row(
            model, SERVE_KNOBS["num_layers"]))
    checks: List[str] = []
    scheduler.clear_step_cache()
    fitted, calibration = repro.costmodel.calibrate_model(
        model, batch_cap=SERVE_KNOBS["batch_cap"],
        num_layers=SERVE_KNOBS["num_layers"],
        kv_tile_rows=SERVE_KNOBS["kv_tile_rows"], **LADDER_PROBES)
    memo = scheduler.step_cache_stats()
    if memo["misses"] != calibration["probes"]:
        checks.append(f"calibration simulated {memo['misses']} of "
                      f"{calibration['probes']} probes: the memo was warm")

    clock.enter("timed")
    reports = []
    for rate, is_bounded in LADDER_CELLS:
        try:
            reports.append(repro.api.serve_fleet(
                model, traces[rate], num_replicas=4, routing="least-loaded",
                platform=bounded if is_bounded else "sda", **SERVE_KNOBS,
                report_mode="streaming", engine="surrogate",
                cost_model=fitted))
        except ConfigError as error:  # an oversize submit aborts the cell
            reports.append(error)
    clock.enter("post")

    after = scheduler.step_cache_stats()
    added = after["misses"] - memo["misses"]
    if added:
        checks.append(f"timed phase simulated {added} steps exactly")
    lost: List[str] = []
    lost_requests = 0
    cells = []
    for (rate, is_bounded), fleet in zip(LADDER_CELLS, reports):
        trace = traces[rate]
        label = f"{rate:g}{'-bounded' if is_bounded else ''}"
        if isinstance(fleet, ConfigError):
            lost_requests += len(trace.requests)
            lost.append(f"cell {label}: {fleet}")
            continue
        missing = len(trace.requests) - fleet.num_requests
        tokens = sum(r.output_tokens for r in trace.requests)
        if missing or fleet.total_output_tokens != tokens:
            lost_requests += max(missing, 1)
            lost.append(f"cell {label}: {fleet.num_requests} of "
                        f"{len(trace.requests)} requests completed")
        if is_bounded and fleet.preemptions == 0:
            checks.append(f"cell {label}: no preemptions under bounded KV")
        cells.append(fleet.metrics())
    bounded_cell = reports[-1]
    pressure = ({"preemptions": bounded_cell.preemptions,
                 "admission_stalls": bounded_cell.admission_stalls}
                if not isinstance(bounded_cell, ConfigError) else {})
    summary = {"probes": calibration["probes"],
               "holdout_mean_rel": calibration["holdout_mean_rel"],
               **pressure,
               "ttft_p90": [cell["ttft_p90"] for cell in cells]}
    return {
        "attempted": sum(len(traces[rate].requests)
                         for rate, _ in LADDER_CELLS),
        "failed": lost_requests + len(checks),
        "checks": checks + lost, "summary": summary,
        "digest": digest([calibration, cells]),
        "extra": {
            "serve.scheduler.step_memo_hits": after["hits"] - memo["hits"],
            "serve.scheduler.step_memo_misses": added,
            "serve.memory.preemptions": pressure.get("preemptions", 0),
            "serve.memory.admission_stalls": pressure.get("admission_stalls", 0),
            "costmodel.probes": calibration["probes"],
        },
    }


#: figures that run natively (no sweep points), one operation per pass
NATIVE_FIGURES = 2


def _claims(results: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """The paper's claims, checked in direction only.

    Returns (failures, misses).  Misses are per-class claims that this
    reproduction does not hold on every seed at ``DEFAULT_SCALE``: the
    high-variance figure 14 speedup and the largest-batch figure 15 speedup
    measured 0.98 and 0.95 on some seeds.  They are reported, not failed;
    the figure-level speedups are failed.
    """
    failures, misses = [], []
    fig8 = results["8"]
    if not fig8["traffic_identical"]:
        failures.append("fig 8: simulator and HDL reference traffic differ")
    if not fig8["pearson_correlation"] > 0.85:
        failures.append(f"fig 8: cycle correlation "
                        f"{fig8['pearson_correlation']:.3f} <= 0.85")
    for model, payload in results["9"]["per_model"].items():
        if not payload["summary"]["pid"] >= 1.0:
            failures.append(f"fig 9 {model}: pid {payload['summary']['pid']} < 1")
    for key in ("static", "dynamic"):
        gain = results["12"][key]["summary"]["utilization_gain"]
        if not gain > 1.0:
            failures.append(f"fig 12 {key}: utilization gain {gain} <= 1")
    by_variance = results["14"]["speedup_by_variance"]
    overall = statistics.geometric_mean(by_variance.values())
    if not overall > 1.0:
        failures.append(f"fig 14: geomean speedup {overall} <= 1")
    misses += [f"fig 14 {variance}: speedup {speedup:.3f}"
               for variance, speedup in by_variance.items() if not speedup > 1.0]
    for key in ("max_speedup", "smallest_batch_speedup"):
        if not results["15"][key] > 1.0:
            failures.append(f"fig 15: {key} {results['15'][key]} <= 1")
    if not results["15"]["largest_batch_speedup"] > 1.0:
        misses.append(f"fig 15 largest_batch_speedup: "
                      f"{results['15']['largest_batch_speedup']:.3f}")
    return failures, misses


def paper_figures(seed: int, clock, cache_dir: str) -> Dict[str, Any]:
    """A cold figure pass that fills a fresh sweep cache, then a warm pass."""
    from repro.experiments import (figure1, figure8, figure9_10, figure12_13,
                                   figure14, figure15, figure17, figure19_20,
                                   figure21)
    from repro.experiments.common import DEFAULT_SCALE
    from repro.sweep import SweepRunner

    clock.enter("setup")
    scale = dataclasses.replace(DEFAULT_SCALE, seed=seed)

    def figures(runner) -> Dict[str, Any]:
        # the large-batch twins, figures 10 and 20, are left out
        return {
            "1": figure1.run(scale),
            "8": figure8.run(scale),
            "9": figure9_10.run(scale, large_batch=False, runner=runner),
            "12": figure12_13.run(scale, runner=runner),
            "14": figure14.run(scale, runner=runner),
            "15": figure15.run(scale, runner=runner),
            "17": figure17.run(scale, runner=runner),
            "19": figure19_20.run(scale, large_batch=False, runner=runner),
            "21": figure21.run(scale, runner=runner),
        }

    checks: List[str] = []
    cold_runner = SweepRunner(jobs=1, cache=cache_dir)
    if len(cold_runner.cache):
        checks.append(f"sweep cache {cache_dir} is not empty")

    clock.enter("timed")
    cold = figures(cold_runner)
    warm_runner = SweepRunner(jobs=1, cache=cache_dir)
    warm = figures(warm_runner)
    clock.enter("post")

    cold_stats = cold_runner.cumulative_stats
    warm_stats = warm_runner.cumulative_stats
    stored = len(cold_runner.cache)
    # cold-state guard: every distinct point was simulated by this pass
    if cold_stats.simulated != stored or cold_stats.simulated == 0:
        checks.append(f"cold pass simulated {cold_stats.simulated} points "
                      f"but the cache holds {stored}")
    if warm_stats.simulated:
        checks.append(f"warm pass simulated {warm_stats.simulated} points")
    if digest(warm) != digest(cold):
        checks.append("warm pass results differ from the cold pass")
    failures, misses = _claims(cold)
    checks += failures
    caches = (cold_runner.cache, warm_runner.cache)
    gets = sum(c.hits + c.misses for c in caches)
    summary = {"points": cold_stats.points, "simulated": cold_stats.simulated,
               "hdl_cycle_corr": cold["8"]["pearson_correlation"],
               "claims_missed": misses}
    return {
        "attempted": cold_stats.points + warm_stats.points + 2 * NATIVE_FIGURES,
        "failed": len(checks),
        "checks": checks, "summary": summary,
        "digest": digest(cold),
        "extra": {
            "sweep.cache.hit_ratio": sum(c.hits for c in caches) / gets,
            "hdl.cycle_corr": cold["8"]["pearson_correlation"],
        },
    }
