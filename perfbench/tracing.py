"""Per-layer attribution from outside the program.

The benchmark wraps the public functions of each layer at the names their
callers look up, and keeps one in-memory aggregate per (phase, layer): a
call count and a self time.  A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of all layers
add up to the time covered by the outermost spans.

``SITES`` is the layer table.  Each row names the layer, where the wrapper is
installed, and which workloads must call it (in any phase).  After a traced
run, :meth:`Tracer.self_check` fails a run in which such a site recorded no
calls: either the layer stopped being exercised or the wrapper sits at a name
no caller looks up (``from ..sim import simulate`` style imports bind the
original function, so wrapping ``repro.sim.simulate`` would see nothing).
``ABSENT`` lists the layers that must record no calls in a workload's timed
phase, which is what makes each workload measure what it is named for.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

EXACT = "serve-exact-cold"
LADDER = "fleet-surrogate-ladder"
FIGURES = "paper-figures"

#: (layer, module, attribute path, workloads that must call it, extra count)
SITES: Tuple[Tuple[str, str, str, Tuple[str, ...], Optional[str]], ...] = (
    # graph builders, at the names the serving step and the workload
    # adapters (run under repro.sweep.runner.execute_point) look up
    ("workloads", "repro.serve.workload", "build_qkv_layer", (EXACT, LADDER), "workloads.qkv.calls"),
    ("workloads", "repro.serve.workload", "build_attention_layer", (EXACT, LADDER), "workloads.attention.calls"),
    ("workloads", "repro.serve.workload", "build_moe_layer", (EXACT, LADDER), "workloads.moe.calls"),
    ("workloads", "repro.api.workload", "build_attention_layer", (FIGURES,), "workloads.attention.calls"),
    ("workloads", "repro.api.workload", "build_moe_layer", (FIGURES,), "workloads.moe.calls"),
    ("workloads", "repro.workloads.model", "build_qkv_layer", (FIGURES,), "workloads.qkv.calls"),
    ("workloads", "repro.workloads.model", "build_attention_layer", (FIGURES,), "workloads.attention.calls"),
    ("workloads", "repro.workloads.model", "build_moe_layer", (FIGURES,), "workloads.moe.calls"),
    ("workloads", "repro.experiments.figure8", "build_swiglu_layer", (FIGURES,), None),
    ("sim.lowering", "repro.sim.runner", "lower", (EXACT, LADDER, FIGURES), None),
    ("sim.engine", "repro.sim.lowering", "LoweredProgram.run", (EXACT, LADDER, FIGURES), None),
    ("hdl", "repro.experiments.figure8", "reference_simulate", (FIGURES,), None),
    ("serve.workload", "repro.serve.workload", "ServeStepWorkload.run", (EXACT, LADDER), None),
    ("serve.scheduler", "repro.serve.scheduler", "ReplicaEngine.submit", (EXACT, LADDER), None),
    ("serve.scheduler", "repro.serve.scheduler", "ReplicaEngine.step", (EXACT, LADDER), "serve.scheduler.steps"),
    ("serve.scheduler", "repro.serve.scheduler", "ReplicaEngine.report", (EXACT, LADDER), None),
    ("serve.memory", "repro.serve.memory", "KVPagePool.try_admit", (LADDER,), None),
    ("serve.memory", "repro.serve.memory", "KVPagePool.try_grow", (LADDER,), None),
    ("serve.memory", "repro.serve.memory", "KVPagePool.release", (LADDER,), None),
    ("serve.fleet", "repro.serve.fleet", "simulate_fleet", (LADDER,), None),
    ("serve.streaming", "repro.serve.streaming", "StreamingStats.observe_request", (LADDER,), None),
    ("serve.streaming", "repro.serve.streaming", "StreamingStats.observe_step", (LADDER,), None),
    ("costmodel", "repro.costmodel", "calibrate_model", (LADDER,), None),
    ("costmodel", "repro.costmodel.models", "CalibratedCostModel.predict", (EXACT, LADDER), "costmodel.predicted"),
    ("costmodel", "repro.costmodel.runtime", "AdaptiveSurrogate.cycles", (EXACT,), None),
    ("sweep.runner", "repro.sweep.runner", "SweepRunner.run_points", (FIGURES,), None),
    ("sweep.cache", "repro.sweep.cache", "ResultCache.get", (FIGURES,), None),
    ("sweep.cache", "repro.sweep.cache", "ResultCache.put", (FIGURES,), None),
    ("experiments", "repro.experiments.figure1", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure8", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure9_10", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure12_13", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure14", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure15", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure17", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure19_20", "run", (FIGURES,), None),
    ("experiments", "repro.experiments.figure21", "run", (FIGURES,), None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(site[0] for site in SITES))

#: per-layer metrics read from the program's counters and reports, or
#: derived, rather than counted by the wrappers
DERIVED: Tuple[str, ...] = (
    "serve.scheduler.step_memo_hits", "serve.scheduler.step_memo_misses",
    "serve.scheduler.step_memo_hit_ratio", "serve.memory.preemptions",
    "serve.memory.admission_stalls", "costmodel.probes",
    "costmodel.predicted", "costmodel.clamped", "costmodel.calibrate_s",
    "costmodel.ttft_p90_err", "costmodel.tpot_p90_err", "hdl.cycle_corr",
    "sweep.cache.hit_ratio", "trace.overhead_ratio", "trace.unattributed_s",
)

#: every per-layer metric a traced run reports, on every workload
PER_LAYER: Tuple[str, ...] = (
    tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s"))
    + tuple(dict.fromkeys(site[4] for site in SITES
                          if site[4] is not None and site[4] not in DERIVED))
    + DERIVED)

#: layers that must record no calls in a workload's timed phase
ABSENT: Dict[str, Tuple[str, ...]] = {
    EXACT: ("hdl", "serve.memory", "serve.fleet", "serve.streaming",
            "costmodel", "sweep.runner", "sweep.cache", "experiments"),
    LADDER: ("workloads", "sim.lowering", "sim.engine", "hdl",
             "serve.workload", "sweep.runner", "sweep.cache", "experiments"),
    FIGURES: ("serve.workload", "serve.scheduler", "serve.memory",
              "serve.fleet", "serve.streaming", "costmodel"),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``module:path``, e.g. a class and a method."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Phase-scoped call counts and self times, keyed by layer.

    ``phase`` names the part of the run being recorded (``"start"``,
    ``"setup"``, ``"timed"`` or ``"post"``); every wrapped call is charged
    to the phase that is current when it returns.  Times are host seconds;
    :meth:`layer_metrics` rescales them to reference speed.
    """

    def __init__(self) -> None:
        self.phase = "start"
        self._open: List[float] = []  # child-span time of each open span
        self.calls: Dict[Tuple[str, str], int] = {}
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[Tuple[str, str], int] = {}
        self.site_calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.excluded_s = 0.0

    def enter(self, phase: str) -> None:
        self.phase = phase

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of foreign work to no layer (see ``speed.py``)."""
        self.excluded_s += seconds
        if self._open:
            self._open[-1] += seconds

    def install(self) -> None:
        for layer, module_name, path, _, extra in SITES:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(layer, f"{module_name}:{path}",
                                            extra, original))

    def _wrap(self, layer: str, site: str, extra: Optional[str],
              fn: Callable) -> Callable:
        self.site_calls[site] = 0
        self.inclusive_s[site] = 0.0
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            excluded = self.excluded_s
            open_spans.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                key = (self.phase, layer)
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + duration - children
                if extra is not None:
                    count_key = (self.phase, extra)
                    self.counts[count_key] = self.counts.get(count_key, 0) + 1
                self.site_calls[site] += 1
                self.inclusive_s[site] += duration - (self.excluded_s - excluded)

        return wrapper

    def layer_metrics(self, timed_speed: float,
                      setup_speed: float) -> Dict[str, float]:
        """Every ``PER_LAYER`` metric: the wrappers' ones, zero elsewhere.

        Layer metrics cover the timed phase; the speeds rescale host seconds
        of the timed and set-up phases to reference speed.
        """
        metrics: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = self.calls.get(("timed", layer), 0)
            metrics[f"{layer}.self_s"] = timed_speed * self.self_s.get(
                ("timed", layer), 0.0)
        for site in SITES:
            if site[4] is not None and site[4] not in DERIVED:
                metrics[site[4]] = self.counts.get(("timed", site[4]), 0)
        metrics["costmodel.predicted"] = sum(
            v for (_, key), v in self.counts.items()
            if key == "costmodel.predicted")
        metrics["costmodel.calibrate_s"] = setup_speed * self.inclusive_s[
            "repro.costmodel:calibrate_model"]
        return metrics

    def self_check(self, workload: str) -> List[str]:
        """Failures: a required site never called, an absent layer called."""
        failures = [f"wrapper {module}:{path} ({layer}) recorded 0 calls"
                    for layer, module, path, users, _ in SITES
                    if workload in users
                    and self.site_calls[f"{module}:{path}"] == 0]
        failures += [f"layer {layer} recorded {self.calls[('timed', layer)]} "
                     f"calls in the timed phase of {workload}"
                     for layer in ABSENT[workload]
                     if self.calls.get(("timed", layer), 0)]
        return failures
