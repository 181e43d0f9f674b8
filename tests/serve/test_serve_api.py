"""Integration of repro.serve with the api / sweep layers."""

from dataclasses import replace

import pytest

import repro.api as api
from repro.api.workload import workload_from_params
from repro.schedules import Schedule
from repro.serve import (ServeConfig, ServeWorkload, ServingReport, load_grid,
                         poisson_trace)
from repro.sweep import ResultCache, SweepRunner, canonicalize
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config


@pytest.fixture(scope="module")
def model():
    return replace(scaled_config(QWEN3_30B_A3B, scale=64), name="api-2e",
                   num_experts=2, experts_per_token=1)


@pytest.fixture(scope="module")
def tiny_trace():
    return poisson_trace(rate=300.0, num_requests=4, seed=0, prompt_mean=32.0,
                         prompt_max=64, output_mean=3.0, output_max=4)


class TestServeFacade:
    def test_serve_is_part_of_the_public_api(self):
        assert "serve" in api.__all__
        assert callable(api.serve)

    def test_facade_returns_a_full_report(self, model, tiny_trace):
        report = api.serve(model, tiny_trace, batch_cap=2, num_layers=1, seed=0)
        assert isinstance(report, ServingReport)
        assert report.num_requests == len(tiny_trace)
        assert report.schedule == "dynamic"  # the default schedule

    def test_serve_scenarios_are_registered(self):
        names = api.scenario_names()
        for name in ("serve-poisson", "serve-batch-cap", "serve-burst"):
            assert name in names
            scenario = api.get_scenario(name, num_requests=2)
            assert len(scenario) >= 2


class TestServeWorkloadAdapter:
    def test_params_reconstruct_the_workload(self, model, tiny_trace):
        workload = ServeWorkload(ServeConfig(model=model, batch_cap=2,
                                             num_layers=1), tiny_trace)
        rebuilt = workload_from_params(workload.kind, workload.params())
        assert rebuilt == workload

    def test_workload_canonicalizes_for_cache_hashing(self, model, tiny_trace):
        workload = ServeWorkload(ServeConfig(model=model, batch_cap=2),
                                 tiny_trace)
        payload = canonicalize(workload)
        assert payload["__dataclass__"].endswith("ServeWorkload")

    def test_build_is_rejected_run_returns_flat_metrics(self, model, tiny_trace):
        from repro.core.errors import ConfigError

        workload = ServeWorkload(ServeConfig(model=model, batch_cap=2,
                                             num_layers=1), tiny_trace)
        with pytest.raises(ConfigError, match="no single Program"):
            workload.build(Schedule.dynamic())
        metrics = workload.run(Schedule.dynamic())
        assert metrics["requests"] == float(len(tiny_trace))
        assert metrics["ttft_p50"] > 0


class TestScenarioExecution:
    def test_scenario_runs_and_caches(self, model, tiny_trace, tmp_path):
        scenario = api.Scenario(
            name="serve-test",
            workloads=ServeWorkload(ServeConfig(model=model, batch_cap=2,
                                                num_layers=1), tiny_trace),
            schedules={"dynamic": Schedule.dynamic(),
                       "static": Schedule.static("static", tile_rows=4)})
        cache = ResultCache(tmp_path / "cache")
        cold = api.run(scenario, runner=SweepRunner(jobs=1, cache=cache))
        assert cold.stats.simulated == 2
        warm = api.run(scenario, runner=SweepRunner(jobs=1, cache=cache))
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == 2
        assert [r.metrics for r in warm.rows] == [r.metrics for r in cold.rows]
        # the grid is addressable by (workload, schedule) labels
        cell = cold[(scenario.grid()[0][0], "dynamic")]
        assert cell["goodput_rpmc"] > 0


#: the short request profile the load-grid tests serve
TINY_TRACE = dict(prompt_mean=32.0, prompt_max=64, output_mean=3.0,
                  output_max=4)


class TestLatencyLoadSpec:
    def test_grid_shape_and_coordinates(self, model):
        spec = load_grid(ServeConfig(model=model, num_layers=1),
                         {"arrival_rate": (50.0, 400.0), "batch_cap": (1, 2)},
                         trace=dict(num_requests=3, seed=0, **TINY_TRACE),
                         schedule=Schedule.dynamic())
        assert len(spec) == 4
        assert spec.task == "serve"
        metrics = SweepRunner(jobs=1).metrics(spec)
        coords = {(m["arrival_rate"], m["batch_cap"]) for m in metrics}
        assert coords == {(50.0, 1.0), (50.0, 2.0), (400.0, 1.0), (400.0, 2.0)}

    def test_rerun_is_deterministic(self, model):
        spec = load_grid(ServeConfig(model=model, num_layers=1, seed=1),
                         {"arrival_rate": (200.0,), "batch_cap": (2,)},
                         trace=dict(num_requests=3, seed=1, **TINY_TRACE))
        first = SweepRunner(jobs=1).metrics(spec)
        second = SweepRunner(jobs=1).metrics(spec)
        assert first == second

    def test_load_increases_tail_latency(self, model):
        spec = load_grid(ServeConfig(model=model, batch_cap=1, num_layers=1),
                         {"arrival_rate": (20.0, 2000.0)},
                         trace=dict(num_requests=6, seed=0, **TINY_TRACE))
        light, heavy = SweepRunner(jobs=1).metrics(spec)
        assert heavy["e2e_p95"] > light["e2e_p95"]
        assert heavy["queue_queued_mean"] >= light["queue_queued_mean"]
