"""Fleet-scale serving: dispatch, routing, warm-up, autoscaling, determinism."""

import json
from dataclasses import replace

import pytest

from repro.api import run_experiment, serve_fleet
from repro.core.errors import ConfigError
from repro.schedules import Schedule
from repro.serve import (AutoscalerConfig, FleetConfig, FleetReport,
                         FleetWorkload, ServeConfig, burst_trace,
                         get_routing_policy, load_grid, poisson_trace,
                         routing_policy_names, simulate_fleet,
                         simulate_serving, trace_from_lists)
from repro.serve.arrivals import ArrivalTrace
from repro.sweep import SweepRunner, canonicalize
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config


@pytest.fixture(scope="module")
def model():
    return replace(scaled_config(QWEN3_30B_A3B, scale=64), name="fleet-2e",
                   num_experts=2, experts_per_token=1)


def serve_config(model, **overrides):
    defaults = dict(batch_cap=2, num_layers=1, kv_tile_rows=64, seed=3)
    defaults.update(overrides)
    return ServeConfig(model=model, **defaults)


@pytest.fixture(scope="module")
def busy_trace():
    """Requests arriving faster than a single cap-2 replica drains them."""
    return trace_from_lists(
        arrivals=[0.0, 0.0, 0.0, 500.0, 500.0, 1000.0, 1500.0, 1500.0],
        prompt_tokens=[32, 16, 16, 32, 16, 16, 32, 16],
        output_tokens=[3, 2, 2, 3, 1, 2, 2, 2],
        name="fleet-busy")


class TestSingleReplicaEquivalence:
    def test_fleet_of_one_matches_simulate_serving_bitwise(self, model, busy_trace):
        """The acceptance criterion: one replica, zero warm-up == the single
        engine, bit for bit (same requests, steps and every latency)."""
        config = serve_config(model)
        single = simulate_serving(config, busy_trace, Schedule.dynamic())
        fleet = simulate_fleet(FleetConfig(serve=config, num_replicas=1),
                               busy_trace, Schedule.dynamic())
        assert fleet.num_replicas == 1
        assert fleet.replicas[0].serving.to_dict() == single.to_dict()
        assert fleet.total_cycles == single.total_cycles
        assert fleet.ttft() == single.ttft()
        assert fleet.e2e() == single.e2e()

    def test_fleet_of_one_poisson_matches_too(self, model):
        trace = poisson_trace(rate=300.0, num_requests=10, seed=7,
                              prompt_mean=24.0, prompt_max=64,
                              output_mean=3.0, output_max=8)
        config = serve_config(model)
        single = simulate_serving(config, trace, Schedule.dynamic())
        fleet = simulate_fleet(FleetConfig(serve=config, num_replicas=1),
                               trace, Schedule.dynamic())
        assert fleet.replicas[0].serving.to_dict() == single.to_dict()


class TestDispatch:
    def test_every_request_served_exactly_once(self, model, busy_trace):
        for routing in routing_policy_names():
            fleet = simulate_fleet(
                FleetConfig(serve=serve_config(model), num_replicas=2,
                            routing=routing),
                busy_trace, Schedule.dynamic())
            ids = sorted(r.request_id for r in fleet.requests)
            assert ids == list(range(len(busy_trace))), routing

    def test_round_robin_alternates_replicas(self, model, busy_trace):
        fleet = simulate_fleet(
            FleetConfig(serve=serve_config(model), num_replicas=2,
                        routing="round-robin"),
            busy_trace, Schedule.dynamic())
        counts = [rep.serving.num_requests for rep in fleet.replicas]
        assert counts == [4, 4]

    def test_replication_relieves_the_queue(self, model, busy_trace):
        config = serve_config(model)
        one = simulate_fleet(FleetConfig(serve=config, num_replicas=1),
                             busy_trace, Schedule.dynamic())
        four = simulate_fleet(FleetConfig(serve=config, num_replicas=4,
                                          routing="least-loaded"),
                              busy_trace, Schedule.dynamic())
        assert four.ttft()["p95"] < one.ttft()["p95"]

    def test_least_loaded_balances_better_than_round_robin(self, model):
        # uneven work (one huge prompt early) skews round-robin's blind
        # alternation; the load-aware policies route around the hot replica
        trace = trace_from_lists(
            arrivals=[0.0, 100.0, 200.0, 300.0, 400.0, 500.0],
            prompt_tokens=[128, 16, 16, 16, 16, 16],
            output_tokens=[6, 2, 2, 2, 2, 2],
            name="skewed")
        config = serve_config(model)
        reports = {
            routing: simulate_fleet(
                FleetConfig(serve=config, num_replicas=2, routing=routing),
                trace, Schedule.dynamic())
            for routing in ("round-robin", "least-loaded")}
        assert (reports["least-loaded"].imbalance
                <= reports["round-robin"].imbalance)

    def test_unknown_routing_rejected(self, model):
        with pytest.raises(ConfigError, match="unknown routing policy"):
            FleetConfig(serve=serve_config(model), routing="random")
        with pytest.raises(ConfigError, match="unknown routing policy"):
            get_routing_policy("nope")


class TestWarmup:
    def test_warmup_delays_the_first_step(self, model, busy_trace):
        config = serve_config(model)
        cold = simulate_fleet(
            FleetConfig(serve=config, num_replicas=1, warmup_cycles=10_000.0),
            busy_trace, Schedule.dynamic())
        warm = simulate_fleet(FleetConfig(serve=config, num_replicas=1),
                              busy_trace, Schedule.dynamic())
        cold_first = cold.replicas[0].serving.steps[0]
        warm_first = warm.replicas[0].serving.steps[0]
        assert cold_first.start == warm_first.start + 10_000.0
        assert cold.ttft()["p50"] > warm.ttft()["p50"]

    def test_warmup_charged_once_per_replica(self, model, busy_trace):
        fleet = simulate_fleet(
            FleetConfig(serve=serve_config(model), num_replicas=2,
                        warmup_cycles=5_000.0),
            busy_trace, Schedule.dynamic())
        for rep in fleet.replicas:
            steps = rep.serving.steps
            assert steps[0].start >= 5_000.0
            # later steps are contiguous: the penalty never recurs
            for prev, cur in zip(steps, steps[1:]):
                assert cur.start >= prev.start + prev.cycles - 1e-9

    def test_negative_warmup_rejected(self, model):
        with pytest.raises(ConfigError, match="warmup_cycles"):
            FleetConfig(serve=serve_config(model), warmup_cycles=-1.0)


class TestAutoscaler:
    def autoscaled(self, model, **overrides):
        defaults = dict(min_replicas=1, max_replicas=3, scale_up_depth=2.0,
                        scale_down_depth=0.25, smoothing=1.0,
                        cooldown_cycles=0.0)
        defaults.update(overrides)
        trace = burst_trace(rate=800.0, num_requests=16, burst_size=4, seed=5,
                            prompt_mean=24.0, prompt_max=64,
                            output_mean=3.0, output_max=8)
        return simulate_fleet(
            FleetConfig(serve=serve_config(model), num_replicas=1,
                        routing="least-loaded",
                        autoscaler=AutoscalerConfig(**defaults)),
            trace, Schedule.dynamic())

    def test_burst_load_scales_the_fleet_up(self, model):
        fleet = self.autoscaled(model)
        ups = [e for e in fleet.scaling_events if e.action == "scale-up"]
        assert ups
        assert fleet.num_replicas > fleet.initial_replicas
        assert fleet.metrics()["scale_ups"] == len(ups)

    def test_max_replicas_caps_the_active_fleet(self, model):
        # num_replicas counts every replica ever spawned (retired included);
        # the cap bounds how many are *active* at once, visible in the
        # after-event counts and the final fleet size
        fleet = self.autoscaled(model, max_replicas=2)
        assert fleet.final_replicas <= 2
        for event in fleet.scaling_events:
            assert 1 <= event.num_replicas <= 2

    def test_cooldown_throttles_scaling(self, model):
        eager = self.autoscaled(model, cooldown_cycles=0.0)
        throttled = self.autoscaled(model, cooldown_cycles=10**9)
        assert len(throttled.scaling_events) <= 1 < len(eager.scaling_events)

    def test_retired_replicas_drain_their_queue(self, model):
        fleet = self.autoscaled(model)
        ids = sorted(r.request_id for r in fleet.requests)
        assert ids == list(range(16))
        for rep in fleet.replicas:
            if rep.retired_at is not None:
                assert rep.retired_at >= rep.spawned_at

    def test_invalid_autoscaler_configs_rejected(self):
        with pytest.raises(ConfigError, match="max_replicas"):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigError, match="smoothing"):
            AutoscalerConfig(smoothing=0.0)
        with pytest.raises(ConfigError, match="scale_down_depth"):
            AutoscalerConfig(scale_up_depth=1.0, scale_down_depth=2.0)


class TestDeterminism:
    def test_fleet_report_is_bit_identical_across_runs(self, model, busy_trace):
        config = FleetConfig(serve=serve_config(model), num_replicas=3,
                             routing="least-kv", warmup_cycles=2_500.0,
                             autoscaler=AutoscalerConfig(
                                 max_replicas=4, scale_up_depth=2.0,
                                 cooldown_cycles=1_000.0))
        first = simulate_fleet(config, busy_trace, Schedule.dynamic())
        second = simulate_fleet(config, busy_trace, Schedule.dynamic())
        assert first.to_dict() == second.to_dict()

    def test_pooled_sweep_matches_in_process_run(self, model):
        """The fleet task is deterministic under the multiprocessing runner."""
        spec = load_grid(
            FleetConfig(serve=serve_config(model)),
            {"num_replicas": (1, 2), "routing": ("round-robin",),
             "arrival_rate": (200.0, 800.0)},
            trace=dict(num_requests=6, seed=3, prompt_mean=24.0,
                       prompt_max=64, output_mean=3.0, output_max=8),
            schedule=Schedule.dynamic())
        pooled = SweepRunner(jobs=2).metrics(spec)
        local = SweepRunner(jobs=1).metrics(spec)
        assert pooled == local
        assert len(pooled) == 4

    def test_empty_trace_yields_empty_report(self, model):
        empty = ArrivalTrace(name="empty", requests=())
        fleet = simulate_fleet(
            FleetConfig(serve=serve_config(model), num_replicas=2),
            empty, Schedule.dynamic())
        assert fleet.num_requests == 0
        assert fleet.total_cycles == 0.0
        assert fleet.goodput == 0.0
        assert fleet.imbalance == 0.0
        assert fleet.to_dict() == FleetReport.from_dict(fleet.to_dict()).to_dict()


class TestFleetReportRoundTrip:
    def test_to_dict_from_dict_round_trips(self, model, busy_trace):
        fleet = simulate_fleet(
            FleetConfig(serve=serve_config(model), num_replicas=2,
                        routing="least-loaded", warmup_cycles=1_000.0,
                        autoscaler=AutoscalerConfig(scale_up_depth=2.0,
                                                    cooldown_cycles=0.0)),
            busy_trace, Schedule.dynamic())
        restored = FleetReport.from_dict(fleet.to_dict())
        assert restored.to_dict() == fleet.to_dict()
        assert restored.metrics() == fleet.metrics()

    def test_facade_report_round_trips_through_json(self, model, busy_trace):
        fleet = serve_fleet(model, busy_trace, num_replicas=2,
                            routing="least-loaded", batch_cap=2, num_layers=1)
        restored = FleetReport.from_dict(json.loads(json.dumps(fleet.to_dict())))
        assert restored.to_dict() == fleet.to_dict()
        assert restored.metrics() == fleet.metrics()


class TestFleetWorkload:
    def workload(self, model, **overrides):
        trace = poisson_trace(rate=400.0, num_requests=6, seed=3,
                              prompt_mean=24.0, prompt_max=64,
                              output_mean=3.0, output_max=8)
        defaults = dict(num_replicas=2)
        defaults.update(overrides)
        return FleetWorkload(FleetConfig(serve=serve_config(model),
                                         **defaults), trace)

    def test_run_reports_fleet_metrics(self, model):
        metrics = self.workload(model).run(Schedule.dynamic())
        assert metrics["replicas_total"] == 2.0
        assert metrics["requests"] == 6.0
        assert metrics["ttft_p95"] > 0
        assert metrics["util_mean"] > 0

    def test_build_is_rejected(self, model):
        with pytest.raises(ConfigError, match="run\\(\\)"):
            self.workload(model).build(Schedule.dynamic())

    def test_workload_is_canonicalizable_and_labelled(self, model):
        workload = self.workload(model, routing="least-kv",
                                 autoscaler=AutoscalerConfig())
        assert canonicalize(workload.params()) == canonicalize(workload.params())
        assert workload.label().startswith("fleet:")
        assert ":r2:least-kv" in workload.label()


class TestFleetSpec:
    def test_experiment_overrides_shape_the_grid(self):
        result = run_experiment("fleet-latency", scale="smoke",
                                rates=(160.0, 640.0), num_replicas=(1, 2),
                                routings=("round-robin",), num_requests=6)
        assert len(result.rows) == 4
        assert all(row["ttft_p50"] > 0 for row in result.rows)
        assert [(row["num_replicas"], row["arrival_rate"])
                for row in result.rows] == [(1.0, 160.0), (1.0, 640.0),
                                            (2.0, 160.0), (2.0, 640.0)]

    def test_empty_rates_rejected(self, model):
        with pytest.raises(ConfigError, match="arrival rate"):
            load_grid(FleetConfig(serve=serve_config(model)),
                      {"arrival_rate": ()}, trace={})

    def test_grid_is_replica_major(self, model):
        spec = load_grid(FleetConfig(serve=serve_config(model)),
                         {"num_replicas": (1, 2),
                          "routing": ("round-robin", "least-kv"),
                          "arrival_rate": (100.0, 200.0)},
                         trace={"num_requests": 4})
        points = [p.kwargs() for p in spec.points()]
        assert len(points) == 8
        assert [p["config"].num_replicas for p in points] == [1] * 4 + [2] * 4
        assert [p["config"].routing for p in points[:4]] == \
            ["round-robin", "round-robin", "least-kv", "least-kv"]
        assert [p["arrival_rate"] for p in points[:2]] == [100.0, 200.0]


class TestKVRouting:
    """least-kv semantics (quantized, hash-seed-stable ties) and most-free-kv."""

    def engines(self, model, n=3, hardware=None):
        from repro.serve.scheduler import ReplicaEngine

        return [ReplicaEngine(serve_config(model), Schedule.dynamic(),
                              hardware, replica_id=i) for i in range(n)]

    def test_least_kv_ties_break_on_lowest_replica_id(self, model):
        policy = get_routing_policy("least-kv")
        replicas = self.engines(model)
        request = trace_from_lists([0.0], [16], [2], name="t").requests[0]
        # all idle: equal (zero) kv_load, lowest id must win regardless of
        # the order the dispatcher happens to hold its replicas in
        assert policy.choose(replicas, request).replica_id == 0
        assert policy.choose(list(reversed(replicas)), request).replica_id == 0

    def test_least_kv_compares_quantized_footprints(self, model):
        # kv_tile_rows=64: a 16-token and a 40-token context both quantize to
        # one tile, so the two replicas tie and id breaks it; a 65-token
        # context is two tiles and loses
        policy = get_routing_policy("least-kv")
        replicas = self.engines(model)
        short = trace_from_lists([0.0], [40], [2], name="s").requests[0]
        tiny = trace_from_lists([0.0], [16], [2], name="y").requests[0]
        long = trace_from_lists([0.0], [65], [2], name="l").requests[0]
        replicas[0].submit(long)
        replicas[1].submit(short)
        replicas[2].submit(tiny)
        assert replicas[0].kv_load == 128
        assert replicas[1].kv_load == replicas[2].kv_load == 64
        request = trace_from_lists([0.0], [16], [2], name="t").requests[0]
        assert policy.choose(replicas, request).replica_id == 1

    def test_least_kv_dispatch_stable_across_hash_seeds(self, model):
        """The whole fleet report is identical under different
        PYTHONHASHSEED values — no routing decision leans on hash order."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        script = (
            "import json\n"
            "from dataclasses import replace\n"
            "from repro.schedules import Schedule\n"
            "from repro.serve import FleetConfig, ServeConfig, poisson_trace, "
            "simulate_fleet\n"
            "from repro.workloads.configs import QWEN3_30B_A3B, scaled_config\n"
            "model = replace(scaled_config(QWEN3_30B_A3B, scale=64),\n"
            "                name='fleet-2e', num_experts=2, experts_per_token=1)\n"
            "trace = poisson_trace(rate=500.0, num_requests=8, seed=3,\n"
            "                      prompt_mean=24.0, prompt_max=64,\n"
            "                      output_mean=3.0, output_max=8)\n"
            "config = FleetConfig(serve=ServeConfig(model=model, batch_cap=2,\n"
            "                                       num_layers=1, seed=3),\n"
            "                     num_replicas=3, routing='least-kv')\n"
            "print(json.dumps(simulate_fleet(config, trace, "
            "Schedule.dynamic()).to_dict(), sort_keys=True))\n")

        def run(hash_seed):
            env = dict(os.environ, PYTHONPATH=str(repo / "src"),
                       PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            return json.loads(proc.stdout)

        assert run("0") == run("4242")

    def test_most_free_kv_degrades_to_least_kv_when_unbounded(self, model):
        trace = poisson_trace(rate=500.0, num_requests=8, seed=3,
                              prompt_mean=24.0, prompt_max=64,
                              output_mean=3.0, output_max=8)
        least, most = (
            simulate_fleet(
                FleetConfig(serve=serve_config(model), num_replicas=3,
                            routing=routing),
                trace, Schedule.dynamic()).to_dict()
            for routing in ("least-kv", "most-free-kv"))
        # same dispatch decisions on every request; only the policy label
        # differs in the payload (step_cache is live process-wide memo state,
        # not run state — excluded from run-equality comparisons)
        assert least.pop("routing") == "least-kv"
        assert most.pop("routing") == "most-free-kv"
        for payload in (least, most):
            for replica in payload["replicas"]:
                replica["serving"].pop("step_cache")
        assert least == most

    def test_free_kv_pages_signal(self, model):
        from repro.platforms import get_platform
        from repro.serve import kv_bytes_per_row

        unbounded, = self.engines(model, n=1)
        assert unbounded.free_kv_pages == float("inf")
        row_bytes = kv_bytes_per_row(model, 1)
        platform = get_platform("sda").replace(
            "sda-test-fleet", hbm_capacity_bytes=8 * 64 * row_bytes)
        bounded, = self.engines(model, n=1, hardware=platform)
        assert bounded.free_kv_pages == 8.0
        bounded.submit(trace_from_lists([0.0], [16], [2], name="t").requests[0])
        bounded.step()
        assert bounded.free_kv_pages == 7.0

    def test_fleet_aggregates_memory_counters(self, model):
        from repro.platforms import get_platform
        from repro.serve import kv_bytes_per_row

        row_bytes = kv_bytes_per_row(model, 1)
        platform = get_platform("sda").replace(
            "sda-test-fleet-small", hbm_capacity_bytes=6 * 64 * row_bytes)
        trace = trace_from_lists(
            arrivals=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            prompt_tokens=[96, 96, 96, 96, 96, 96],
            output_tokens=[96, 96, 96, 96, 96, 96],
            name="fleet-pressure")
        fleet = simulate_fleet(
            FleetConfig(serve=serve_config(model, batch_cap=4),
                        num_replicas=2, routing="most-free-kv"),
            trace, Schedule.dynamic(), hardware=platform)
        expected = sum(r.serving.memory.preemptions for r in fleet.replicas
                       if r.serving.memory is not None)
        assert fleet.preemptions == expected
        metrics = fleet.metrics()
        assert metrics["preemptions"] == float(fleet.preemptions)
        assert 0.0 < metrics["kv_occupancy_max"] <= 1.0
        assert fleet.num_requests == 6
        restored = FleetReport.from_dict(fleet.to_dict())
        assert restored.to_dict() == fleet.to_dict()
        assert restored.metrics() == fleet.metrics()
