"""One serving config everywhere: every knob reaches the engine on every path.

:class:`ServeConfig` (and :class:`FleetConfig` for fleets) is the only place
a serving knob is declared.  These tests pin that each entry point — the
``repro.api`` facade, the two workload adapters and :func:`load_grid` axes
run through the sweep runner — hands the engine exactly the config one
would build directly, for every field, and that a grid point reproduces the
facade run on the same trace and config (the runner's derived per-point
seed must not leak into the config or the trace).
"""

import dataclasses
from dataclasses import replace

import pytest

import repro.api as api
import repro.serve.fleet as fleet_module
import repro.serve.sweep as sweep_module
from repro.core.errors import ConfigError
from repro.schedules import Schedule
from repro.serve import (AutoscalerConfig, FleetConfig, FleetWorkload,
                         ReplicaEngine, ServeConfig, ServeWorkload, configure,
                         generate_trace, load_grid)
from repro.sweep import SweepRunner
from repro.sweep.runner import execute_point
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

MODEL = replace(scaled_config(QWEN3_30B_A3B, scale=64), name="reach-2e",
                num_experts=2, experts_per_token=1)
OTHER_MODEL = replace(MODEL, name="reach-other")

TRACE_SPEC = {"num_requests": 4, "seed": 5, "prompt_mean": 32.0,
              "prompt_max": 64, "output_mean": 3.0, "output_max": 4}
TRACE = generate_trace("poisson", rate=300.0, **TRACE_SPEC)

#: a non-default value for every ServeConfig field
SERVE_VALUES = {
    "model": OTHER_MODEL, "batch_cap": 3, "num_layers": 1, "kv_tile_rows": 32,
    "moe_compute_bw": 4096, "attention_compute_bw": 128, "seed": 7,
    "kv_mode": "contiguous", "eviction_policy": "evict-youngest",
    "policy": "chunked-prefill", "report_mode": "streaming",
    "window_cycles": 50_000.0, "sketch_accuracy": 0.02, "engine": "surrogate",
    "cost_model": "table", "calibration_budget": 8,
}
#: a non-default value for every FleetConfig dispatcher field
FLEET_VALUES = {"num_replicas": 3, "routing": "least-kv",
                "warmup_cycles": 1_000.0,
                "autoscaler": AutoscalerConfig(max_replicas=4)}
#: fields that are only valid alongside another one
COMPANIONS = {"cost_model": {"engine": "surrogate"}}


class _Captured(Exception):
    pass


@pytest.fixture
def captured(monkeypatch):
    """Record the config each ReplicaEngine / fleet is built with, then stop
    before any simulation runs."""
    seen = []

    def engine_init(self, config, *args, **kwargs):
        seen.append(config)
        raise _Captured

    def fake_fleet(config, *args, **kwargs):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(ReplicaEngine, "__init__", engine_init)
    monkeypatch.setattr(fleet_module, "simulate_fleet", fake_fleet)
    monkeypatch.setattr(sweep_module, "simulate_fleet", fake_fleet)
    return seen


def _capture(seen, run):
    with pytest.raises(_Captured):
        run()
    return seen.pop()


def _grid_point(config, knobs):
    spec = load_grid(config, {"arrival_rate": (300.0,),
                              **{k: (v,) for k, v in knobs.items()}},
                     trace=TRACE_SPEC)
    point, = spec.points()
    return point


def test_every_field_has_a_probe_value():
    assert set(SERVE_VALUES) == {f.name for f in dataclasses.fields(ServeConfig)}
    assert set(FLEET_VALUES) == \
        {f.name for f in dataclasses.fields(FleetConfig)} - {"serve"}


@pytest.mark.parametrize("field", sorted(SERVE_VALUES))
def test_serve_knob_reaches_the_engine_on_every_path(field, captured):
    knobs = {field: SERVE_VALUES[field], **COMPANIONS.get(field, {})}
    expected = ServeConfig(**{"model": MODEL, **knobs})
    assert expected != ServeConfig(model=MODEL)
    facade = dict(knobs)
    model = facade.pop("model", MODEL)
    fleet = FleetConfig(serve=ServeConfig(model=MODEL))
    paths = {
        "api.serve": lambda: api.serve(model, TRACE, **facade),
        "ServeWorkload": lambda: ServeWorkload(
            configure(ServeConfig(model=MODEL), **knobs), TRACE).run(None),
        "load_grid serve": lambda: execute_point(
            _grid_point(ServeConfig(model=MODEL), knobs)),
    }
    for name, run in paths.items():
        assert _capture(captured, run) == expected, name
    # the fleet paths: the knob lands on the per-replica template
    for name, run in {
        "api.serve_fleet": lambda: api.serve_fleet(model, TRACE, **facade),
        "FleetWorkload": lambda: FleetWorkload(configure(fleet, **knobs),
                                               TRACE).run(None),
        "load_grid fleet": lambda: execute_point(_grid_point(fleet, knobs)),
    }.items():
        assert _capture(captured, run).serve == expected, name


@pytest.mark.parametrize("field", sorted(FLEET_VALUES))
def test_fleet_knob_reaches_the_dispatcher_on_every_path(field, captured):
    value = FLEET_VALUES[field]
    expected = FleetConfig(serve=ServeConfig(model=MODEL), **{field: value})
    base = FleetConfig(serve=ServeConfig(model=MODEL))
    facade = {"num_replicas": 1, field: value}
    paths = {
        "api.serve_fleet": lambda: api.serve_fleet(MODEL, TRACE, **facade),
        "FleetWorkload": lambda: FleetWorkload(
            configure(base, **{field: value}), TRACE).run(None),
        "load_grid fleet": lambda: execute_point(
            _grid_point(base, {field: value})),
    }
    for name, run in paths.items():
        assert _capture(captured, run) == expected, name


def test_unknown_knobs_are_rejected():
    with pytest.raises(ConfigError, match="unknown serving knobs"):
        api.serve(MODEL, TRACE, hardware="sda")
    with pytest.raises(ConfigError, match="unknown serving knobs"):
        api.serve_fleet(MODEL, TRACE, batch_size=4)
    with pytest.raises(ConfigError, match="unknown serving knobs"):
        load_grid(ServeConfig(model=MODEL),
                  {"arrival_rate": (1.0,), "num_replicas": (2,)}, trace={})


def test_load_grid_point_matches_the_facade():
    """Same trace, same config, non-zero seeds: the grid row is the facade
    run, so the runner's derived seed reached neither config nor trace."""
    config = ServeConfig(model=MODEL, batch_cap=2, num_layers=1, seed=5)
    spec = load_grid(config, {"arrival_rate": (300.0,)}, trace=TRACE_SPEC,
                     schedule=Schedule.dynamic(), ttft_slo=20_000.0)
    row, = SweepRunner(jobs=1).metrics(spec)
    report = api.serve(MODEL, TRACE, batch_cap=2, num_layers=1, seed=5)
    metrics = report.metrics()
    assert {key: row[key] for key in metrics} == metrics
    assert row["slo_attainment"] == report.slo_attainment(20_000.0)


def test_fleet_grid_point_matches_the_facade():
    config = FleetConfig(serve=ServeConfig(model=MODEL, batch_cap=2,
                                           num_layers=1, seed=5),
                         num_replicas=2, routing="least-loaded")
    spec = load_grid(config, {"arrival_rate": (300.0,)}, trace=TRACE_SPEC)
    row, = SweepRunner(jobs=1).metrics(spec)
    metrics = api.serve_fleet(MODEL, TRACE, num_replicas=2,
                              routing="least-loaded", batch_cap=2,
                              num_layers=1, seed=5).metrics()
    assert {key: row[key] for key in metrics} == metrics
    assert (row["num_replicas"], row["routing"]) == (2.0, "least-loaded")
