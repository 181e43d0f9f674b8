"""Shared experiment configuration.

The paper's experiments run full-size Qwen3-30B-A3B / Mixtral-8x7B layers on a
Rust simulator for hours; this pure-Python reproduction runs *scaled* model
dimensions (see :func:`repro.workloads.configs.scaled_config`) that preserve
the structural parameters driving every result — expert counts, top-k routing,
trace skew, tiling structure, parallel-region counts — while keeping each
simulated design point in the seconds range.  :class:`ExperimentScale` bundles
those knobs; ``DEFAULT_SCALE`` is used by the benchmark harness and
``SMOKE_SCALE`` by the fast integration tests.  EXPERIMENTS.md records which
scale was used for each regenerated figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigError
from ..data.expert_routing import generate_routing_trace, representative_iteration
from ..data.kv_traces import VarianceClass, make_batches_by_variance
from ..platforms import Platform, get_platform
from ..workloads.configs import MIXTRAL_8X7B, QWEN3_30B_A3B, ModelConfig, scaled_config
from ..sim.executors.common import HardwareConfig


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by all experiments."""

    name: str
    #: divisor applied to hidden / intermediate / head dimensions
    model_scale: int = 16
    #: reduce the expert pool (None keeps the model's full expert count)
    max_experts: Optional[int] = None
    #: MoE batch size for the Figure 9 / 12 / 13 experiments
    moe_batch: int = 64
    #: MoE batch size for the Figure 10 experiment ("large batch"; the paper
    #: uses 1024 — the default scale uses 512 to keep the pure-Python sweep fast)
    moe_large_batch: int = 512
    #: attention batch size (Figures 14, 21)
    attention_batch: int = 64
    #: number of batch sizes swept by the Figure 15 batch sweep
    batch_sweep_points: int = 8
    #: static tile sweeps
    moe_tiles_small_batch: Tuple[int, ...] = (8, 16, 32, 64)
    moe_tiles_large_batch: Tuple[int, ...] = (16, 64, 256, 512)
    #: time-multiplexing region sweep (None = fully spatial baseline)
    timemux_regions: Tuple[Optional[int], ...] = (None, 64, 32, 16, 8, 4)
    #: KV-trace batches sampled per variance class
    traces_per_class: int = 3
    #: decoder layers evaluated end to end (None = the model's full layer count)
    end_to_end_layers: Optional[int] = None
    #: arrival-rate ladder (requests per Mcycle) for the serving load curve
    serve_rates: Tuple[float, ...] = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
    #: requests per serving trace
    serve_requests: int = 48
    #: continuous-batching cap of the serving experiment
    serve_batch_cap: int = 4
    #: decoder layers per serving step (the step-latency multiplier)
    serve_layers: int = 2
    #: expert-pool cap for the serving model (None keeps the full pool; the
    #: serving default caps even at full scale because every scheduler step
    #: simulates the MoE, unlike the one-shot figure experiments)
    serve_max_experts: Optional[int] = 16
    #: replica counts swept by the fleet-latency experiment
    fleet_replicas: Tuple[int, ...] = (1, 2, 4)
    #: routing policies swept by the fleet-latency experiment
    fleet_routings: Tuple[str, ...] = ("round-robin", "least-loaded", "least-kv")
    #: one-time cold-start cost charged per fleet replica (cycles)
    fleet_warmup_cycles: float = 0.0
    #: HBM budgets (in KV pages of ``kv_tile_rows`` rows) swept by the
    #: memory-pressure experiment; ``None`` is the unbounded baseline
    memory_capacity_pages: Tuple[Optional[int], ...] = (None, 8, 4)
    #: TTFT budget (cycles) the memory-pressure experiment's strict goodput
    #: counts against (requests over budget complete but aren't "good")
    memory_ttft_slo: float = 150_000.0
    #: scheduling-policy presets compared by the policy-shootout experiment
    #: (see :func:`repro.serve.serve_policy_names`)
    policy_names: Tuple[str, ...] = ("default", "chunked-prefill",
                                     "prefill-decode", "priority",
                                     "slo-preempt")
    #: platforms the policy shootout runs on (unbounded + capacity-bounded,
    #: so policies are compared both with and without memory pressure)
    policy_platforms: Tuple[str, ...] = ("sda", "sda-hbm-small")
    #: tail-TTFT budget (cycles) the policy shootout's SLO attainment
    #: counts against
    policy_ttft_slo: float = 100_000.0
    #: platforms the capacity experiment probes for max sustainable load
    capacity_platforms: Tuple[str, ...] = ("sda", "sda-hbm-small")
    #: TTFT budget (cycles) the capacity experiment reports attainment against
    capacity_ttft_slo: float = 150_000.0
    #: SLO-attainment fraction a rate must clear to count as sustainable
    capacity_attainment: float = 0.9
    #: registered trace generator shaping the capacity experiment's traffic
    capacity_generator: str = "heavy-tail"
    seed: int = 0


DEFAULT_SCALE = ExperimentScale(name="default")

#: a much smaller configuration used by the integration tests
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    model_scale=32,
    max_experts=16,
    moe_batch=16,
    moe_large_batch=64,
    attention_batch=16,
    batch_sweep_points=4,
    moe_tiles_small_batch=(4, 8, 16),
    moe_tiles_large_batch=(8, 32),
    timemux_regions=(None, 8, 4),
    traces_per_class=1,
    end_to_end_layers=2,
    serve_rates=(40.0, 160.0, 640.0),
    serve_requests=12,
    fleet_replicas=(1, 2),
    fleet_routings=("round-robin", "least-loaded"),
    memory_ttft_slo=50_000.0,
    policy_names=("default", "chunked-prefill", "slo-preempt"),
    policy_ttft_slo=50_000.0,
    capacity_ttft_slo=50_000.0,
)


def qwen_model(scale: ExperimentScale) -> ModelConfig:
    """The Qwen3-30B-A3B-like configuration at the experiment scale."""
    model = scaled_config(QWEN3_30B_A3B, scale=scale.model_scale)
    return _cap_experts(model, scale)


def mixtral_model(scale: ExperimentScale) -> ModelConfig:
    """The Mixtral-8x7B-like configuration at the experiment scale."""
    model = scaled_config(MIXTRAL_8X7B, scale=scale.model_scale * 2)
    return _cap_experts(model, scale)


def _cap_experts(model: ModelConfig, scale: ExperimentScale) -> ModelConfig:
    from ..workloads.configs import cap_experts

    return cap_experts(model, scale.max_experts)


def platform(scale: ExperimentScale) -> Platform:
    """The evaluation platform (Section 5.1): the registered ``"sda"`` preset."""
    return get_platform("sda")


def hardware(scale: ExperimentScale) -> HardwareConfig:
    """The evaluation hardware configuration (Section 5.1)."""
    return platform(scale).hardware


#: experiment override spellings of the serving load-grid axes
AXIS_OVERRIDES = {"rates": "arrival_rate", "batch_caps": "batch_cap",
                  "platforms": "platform", "policies": "policy",
                  "routings": "routing", "num_replicas": "num_replicas"}


def serving_grid(scale: ExperimentScale, name: str, axes, overrides,
                 lengths, fleet=None, knobs=None, trace=None, **grid):
    """A serving experiment's :func:`~repro.serve.sweep.load_grid` at ``scale``.

    The base config is the scale's server (``serve_*`` model, batch cap and
    layers, plus ``knobs``), wrapped in a fleet with the ``fleet`` knobs when
    those are given; the trace spec is the scale's request count and seed
    plus ``lengths`` and ``trace``.  Caller ``overrides`` are routed by name:
    an :data:`AXIS_OVERRIDES` spelling replaces that axis' values,
    ``ttft_slo`` / ``platform`` / ``name`` replace the ``load_grid`` keyword,
    a config knob is applied to the config, and a trace-spec key — or any
    other name — goes to the trace spec (``seed`` names both and sets both).
    """
    from ..serve.fleet import FleetConfig, configure, knob_names
    from ..serve.library import _serve_model
    from ..serve.scheduler import ServeConfig
    from ..serve.sweep import load_grid

    config = ServeConfig(model=_serve_model(scale.model_scale,
                                            max_experts=scale.serve_max_experts),
                         batch_cap=scale.serve_batch_cap,
                         num_layers=scale.serve_layers, seed=scale.seed,
                         **(knobs or {}))
    if fleet is not None:
        config = FleetConfig(serve=config, **fleet)
    axes = dict(axes)
    trace = {"num_requests": scale.serve_requests, "seed": scale.seed,
             **lengths, **(trace or {})}
    grid = {"name": f"{name}-{scale.name}", **grid}
    applied = {}
    for key, value in overrides.items():
        if AXIS_OVERRIDES.get(key) in axes:
            axes[AXIS_OVERRIDES[key]] = value
        elif key in ("ttft_slo", "platform", "name"):
            grid[key] = value
        else:
            if key in knob_names(config):
                applied[key] = value
            if key in trace or key not in knob_names(config):
                trace[key] = value
    return load_grid(configure(config, **applied), axes, trace=trace, **grid)


def resolve_scale(value) -> ExperimentScale:
    """An :class:`ExperimentScale` from a preset name or a scale object."""
    if isinstance(value, ExperimentScale):
        return value
    if value == "default":
        return DEFAULT_SCALE
    if value == "smoke":
        return SMOKE_SCALE
    raise ConfigError(f"unknown experiment scale {value!r}; "
                      f"expected 'default', 'smoke' or an ExperimentScale")


def moe_routing(model: ModelConfig, batch: int, scale: ExperimentScale) -> Sequence[Sequence[int]]:
    """A representative expert-routing iteration for the MoE experiments."""
    return _routing_draw(model, batch, scale.seed)


@lru_cache(maxsize=16)
def _routing_draw(model: ModelConfig, batch: int, seed: int) -> Tuple[Tuple[int, ...], ...]:
    # figures 9, 12 and 17 ask for the same few seeded draws over and over;
    # the result is an immutable tuple of tuples, so sharing it is safe
    trace = generate_routing_trace(model, batch_size=batch, num_iterations=8, seed=seed)
    return representative_iteration(trace)


def kv_batches(scale: ExperimentScale, batch: Optional[int] = None
               ) -> Dict[VarianceClass, list]:
    """KV-length batches per variance class for the attention experiments."""
    return make_batches_by_variance(batch_size=batch or scale.attention_batch,
                                    samples_per_class=scale.traces_per_class,
                                    seed=scale.seed)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (used by the Figure 21 summary)."""
    values = [float(v) for v in values if v > 0]
    if not values:
        return 0.0
    return float(np.exp(np.mean(np.log(values))))
