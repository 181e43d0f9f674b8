"""Serving workload adapters — serving steps and whole serving runs as Workloads.

Two adapters connect the serving simulator to the unified scenario API:

* :class:`ServeStepWorkload` — **one engine step** of a continuous-batching
  server: QKV generation and the MoE block over the step's token batch plus
  decode attention over the per-request KV-cache lengths, composed exactly
  like :func:`repro.workloads.model.evaluate_layer` composes a decoder layer
  (sub-layers are data dependent, so step latency is their sum, scaled by the
  layer count).  The scheduler maps every step it issues onto one of these,
  so serving rides the same builders, unified schedules and simulator as the
  closed-loop experiments.  Each sub-layer is one :class:`TermCost`; ``run``
  can take them from a memo keyed on the input each term depends on, which
  is how the scheduler shares QKV / MoE terms between steps of equal token
  count and attention terms between steps of equal KV lengths.
* :class:`ServeWorkload` — a **whole serving run**: a
  :class:`~repro.serve.scheduler.ServeConfig` plus an arrival trace; ``run``
  executes the open-loop simulation
  (:func:`repro.serve.scheduler.simulate_serving`) under the given schedule
  and reports the flat :meth:`~repro.serve.report.ServingReport.metrics`.
  Because it is a registered workload, serving runs drop into scenarios,
  sweep grids and the result cache like any layer workload.

Both adapters are plain frozen-field dataclasses: picklable across the sweep
pool and canonicalizable for content-hash caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, Hashable,
                    NamedTuple, Optional, Tuple)

from ..api.workload import BuiltWorkload, WorkloadBase, register_workload
from ..core.errors import ConfigError
from ..data.expert_routing import generate_routing_trace, representative_iteration
from ..platforms import resolve_platform
from ..schedules import Schedule
from ..sim import SimReport, collector_paused, simulate
from ..sim.executors.common import HardwareConfig
from ..workloads.attention import AttentionConfig, AttentionProgram, build_attention_layer
from ..workloads.configs import ModelConfig
from ..workloads.moe import MoELayerConfig, MoEProgram, build_moe_layer
from ..workloads.qkv import QKVConfig, QKVProgram, build_qkv_layer
from .arrivals import ArrivalTrace
from .policy import DEFAULT_POLICY

if TYPE_CHECKING:  # the scheduler imports this module
    from .scheduler import ServeConfig

#: a step's sub-layer terms, as ``ServeStepWorkload.run`` names and sums them
STEP_TERMS = ("qkv", "attention", "moe")


class TermCost(NamedTuple):
    """One sub-layer simulation's figures: all a step composes from it."""

    cycles: float
    offchip_traffic: int
    onchip_memory: int
    allocated_compute: int

    @classmethod
    def of(cls, report: SimReport) -> "TermCost":
        return cls(report.cycles, report.offchip_traffic, report.onchip_memory,
                   report.allocated_compute)


#: ``lookup(term, key, simulate)`` -> the term's cost, memoized or simulated
TermLookup = Callable[[str, Hashable, Callable[[], TermCost]], TermCost]


# -- one symbolic-batch program per term context --------------------------------
# A step term's program depends on the step only through its batch, which the
# programs leave symbolic (bound by each run's input tokens), so steps of one
# serving context share one built and lowering-planned program per term.  The
# builders are looked up as module globals at call time, so wrapping them
# (tracing, tests) sees each build.

@lru_cache(maxsize=16)
def _qkv_program(model: ModelConfig, compute_bw: int) -> QKVProgram:
    return build_qkv_layer(QKVConfig(model=model, batch=None, compute_bw=compute_bw))


@lru_cache(maxsize=16)
def _attention_program(model: ModelConfig, strategy: str, num_regions: int,
                       coarse_chunk: int, kv_tile_rows: int,
                       compute_bw: int) -> AttentionProgram:
    return build_attention_layer(AttentionConfig(
        model=model, batch=None, strategy=strategy, num_regions=num_regions,
        coarse_chunk=coarse_chunk, kv_tile_rows=kv_tile_rows, compute_bw=compute_bw))


@lru_cache(maxsize=16)
def _moe_program(model: ModelConfig, tile_rows: Optional[int],
                 num_regions: Optional[int], compute_bw: int) -> MoEProgram:
    return build_moe_layer(MoELayerConfig(
        model=model, batch=None, tile_rows=tile_rows, num_regions=num_regions,
        combine_output=num_regions is None, compute_bw=compute_bw))


def clear_program_cache() -> None:
    """Drop the shared term programs (and their lowering plans)."""
    for cached in (_qkv_program, _attention_program, _moe_program):
        cached.cache_clear()


@register_workload
@dataclass
class ServeStepWorkload(WorkloadBase):
    """One continuous-batching engine step as a (composite) workload.

    ``num_tokens`` is the step's token batch — the QKV / MoE batch dimension
    (prompt tokens of prefilling requests plus one token per decoding
    request); ``kv_lengths`` carries one KV-cache length per *running
    request* — the attention batch.  ``routing_seed`` makes the MoE routing
    of the step deterministic without shipping per-token assignments.
    """

    kind: ClassVar[str] = "serve_step"

    model: ModelConfig
    num_tokens: int
    kv_lengths: Tuple[int, ...]
    routing_seed: int = 0
    num_layers: int = 1
    kv_tile_rows: int = 64
    moe_compute_bw: int = 8192
    attention_compute_bw: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "kv_lengths", tuple(int(v) for v in self.kv_lengths))
        if self.num_tokens < 1:
            raise ConfigError(f"serve step: num_tokens must be >= 1, got {self.num_tokens}")
        if not self.kv_lengths:
            raise ConfigError("serve step: at least one running request is required")
        if self.num_tokens < len(self.kv_lengths):
            raise ConfigError(
                f"serve step: {self.num_tokens} tokens cannot cover "
                f"{len(self.kv_lengths)} running requests (>= 1 token each)")

    def build(self, schedule: Schedule,
              hardware: Optional[HardwareConfig] = None) -> BuiltWorkload:
        raise ConfigError("ServeStepWorkload is composite (three sub-layer programs); "
                          "use run() — there is no single Program to build")

    def run(self, schedule: Schedule, hardware: Optional[HardwareConfig] = None,
            *, lookup: Optional[TermLookup] = None) -> Dict[str, float]:
        """Simulate the three sub-layers and compose the step's metrics.

        ``lookup(term, key, simulate)``, when given, supplies each term's
        :class:`TermCost` — from a memo, or by calling ``simulate()`` — so a
        term that is already known is neither built nor simulated.  ``key``
        is the step input the term depends on beyond the model, schedule,
        hardware and compute knobs: the token batch for QKV, the KV lengths
        for attention, the token batch and routing seed for MoE.
        """
        hardware = resolve_platform(hardware).hardware
        terms = (("qkv", self.num_tokens, self._qkv),
                 ("attention", self.kv_lengths, self._attention),
                 ("moe", (self.num_tokens, self.routing_seed), self._moe))
        costs: Dict[str, TermCost] = {}
        # the routing draw, input tokens and term simulations allocate in
        # bursts that reference counting frees; the collector waits
        with collector_paused():
            for term, key, cost in terms:
                simulate_term = partial(cost, schedule, hardware)
                costs[term] = (simulate_term() if lookup is None
                               else lookup(term, key, simulate_term))

        layer_cycles = sum(c.cycles for c in costs.values())
        metrics: Dict[str, float] = {
            "cycles": float(layer_cycles * self.num_layers),
            "offchip_traffic_bytes": float(
                sum(c.offchip_traffic for c in costs.values()) * self.num_layers),
            "onchip_memory_bytes": float(
                sum(c.onchip_memory for c in costs.values())),
            "allocated_compute_flops_per_cycle": float(
                sum(c.allocated_compute for c in costs.values())),
            "num_layers": float(self.num_layers),
        }
        for term, cost in costs.items():
            metrics[f"step_{term}_cycles"] = float(cost.cycles)
        return metrics

    def _qkv(self, schedule: Schedule, hardware: HardwareConfig) -> TermCost:
        qkv = _qkv_program(self.model, self.moe_compute_bw)
        return TermCost.of(simulate(qkv.program, qkv.inputs(num_rows=self.num_tokens),
                                    hardware=hardware))

    def _attention(self, schedule: Schedule, hardware: HardwareConfig) -> TermCost:
        par = schedule.parallelization
        attn = _attention_program(self.model, par.strategy, par.num_regions,
                                  par.coarse_chunk, self.kv_tile_rows,
                                  self.attention_compute_bw)
        return TermCost.of(simulate(attn.program, attn.inputs(list(self.kv_lengths)),
                                    hardware=hardware))

    def _moe(self, schedule: Schedule, hardware: HardwareConfig) -> TermCost:
        # static schedules may carry tiles larger than this step's token batch
        tile_rows = schedule.moe_tile_rows
        if tile_rows is not None:
            tile_rows = min(tile_rows, self.num_tokens)
        assignments = representative_iteration(generate_routing_trace(
            self.model, batch_size=self.num_tokens, num_iterations=1,
            seed=self.routing_seed))
        moe = _moe_program(self.model, tile_rows, schedule.moe_num_regions,
                           self.moe_compute_bw)
        return TermCost.of(simulate(moe.program, moe.inputs(assignments),
                                    hardware=hardware))

    def label(self) -> str:
        return f"serve_step:{self.model.name}:t{self.num_tokens}:r{len(self.kv_lengths)}"


@register_workload
@dataclass
class ServeWorkload(WorkloadBase):
    """A whole open-loop serving run: ``config`` serving ``trace``.

    ``run`` executes the continuous-batching scheduler against ``trace`` under
    the given unified schedule and returns the flat serving metrics (TTFT /
    TPOT / e2e percentiles, goodput, queue depths — see
    :meth:`repro.serve.report.ServingReport.metrics`).  Use
    :func:`repro.api.serve` (or :func:`repro.serve.scheduler.simulate_serving`
    directly) when the full :class:`~repro.serve.report.ServingReport` —
    per-request records and the queue timeline — is needed.
    """

    kind: ClassVar[str] = "serve"

    config: ServeConfig
    trace: ArrivalTrace

    def build(self, schedule: Schedule,
              hardware: Optional[HardwareConfig] = None) -> BuiltWorkload:
        raise ConfigError("ServeWorkload simulates a request-level serving run; "
                          "use run() — there is no single Program to build")

    def report(self, schedule: Schedule,
               hardware: Optional[HardwareConfig] = None):
        """The full :class:`~repro.serve.report.ServingReport` of this run."""
        from .scheduler import simulate_serving

        return simulate_serving(self.config, self.trace, schedule,
                                hardware=hardware)

    def run(self, schedule: Schedule,
            hardware: Optional[HardwareConfig] = None) -> Dict[str, float]:
        return self.report(schedule, hardware).metrics()

    def label(self) -> str:
        base = f"serve:{self.trace.name}:cap{self.config.batch_cap}"
        policy = self.config.policy
        return base if policy == DEFAULT_POLICY else f"{base}:{policy.label}"
