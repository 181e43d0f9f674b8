"""SweepRunner execution: determinism, pooling and cache correctness."""

from dataclasses import replace

import pytest

from repro.api import AttentionWorkload, MoEWorkload, Schedule
from repro.core.errors import ConfigError
from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.sweep import ResultCache, SweepRunner, SweepSpec, execute_point, resolve_runner
from repro.sweep.runner import DEFAULT_RUNNER
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config, sda_hardware


def tile_schedule(tile) -> Schedule:
    return Schedule.dynamic() if tile is None else Schedule.static(f"tile={tile}", tile)


def tiny_moe_spec(seed: int = 0, tiles=(4, 8, None)) -> SweepSpec:
    """A tiny MoE grid over the generic ``workload`` task (the shipped task)."""
    model = replace(scaled_config(QWEN3_30B_A3B, scale=32), name="tiny-4e",
                    num_experts=4, experts_per_token=2)
    trace = generate_routing_trace(model, batch_size=8, num_iterations=2, seed=seed)
    assignments = [list(a) for a in representative_iteration(trace)]
    return SweepSpec(
        name="tiny-moe",
        task="workload",
        base={"workload": MoEWorkload(model=model, batch=8, assignments=assignments),
              "platform": sda_hardware()},
        axes={"schedule": [tile_schedule(t) for t in tiles]},
        seed=seed,
    )


class TestDeterminism:
    def test_same_spec_twice_is_identical(self):
        runner = SweepRunner(jobs=1)
        first = [r.metrics for r in runner.run(tiny_moe_spec())]
        second = [r.metrics for r in runner.run(tiny_moe_spec())]
        assert first == second
        assert all(m["cycles"] > 0 for m in first)

    def test_pooled_workers_match_serial(self):
        spec = tiny_moe_spec()
        serial = [r.metrics for r in SweepRunner(jobs=1).run(spec)]
        pooled = [r.metrics for r in SweepRunner(jobs=2).run(spec)]
        assert serial == pooled  # bit-identical cycles, traffic, memory, flops

    def test_different_seed_changes_routing_hence_results(self):
        base = [r.metrics for r in DEFAULT_RUNNER.run(tiny_moe_spec(seed=0))]
        other = [r.metrics for r in DEFAULT_RUNNER.run(tiny_moe_spec(seed=3))]
        assert base != other


class TestCaching:
    def test_cached_rerun_is_correct_and_skips_simulation(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        fresh = runner.run(tiny_moe_spec())
        assert runner.last_stats.simulated == len(fresh) > 0
        assert not any(r.cached for r in fresh)

        rerun = runner.run(tiny_moe_spec())
        assert runner.last_stats.simulated == 0
        assert runner.last_stats.cache_hits == len(rerun)
        assert all(r.cached for r in rerun)
        # the headline satellite: cached result == fresh result
        assert [r.metrics for r in rerun] == [r.metrics for r in fresh]

    def test_cache_shared_across_runner_instances(self, tmp_path):
        SweepRunner(jobs=1, cache=ResultCache(tmp_path)).run(tiny_moe_spec())
        other = SweepRunner(jobs=2, cache=ResultCache(tmp_path))
        results = other.run(tiny_moe_spec())
        assert other.last_stats.simulated == 0
        assert all(r.cached for r in results)

    def test_growing_a_grid_only_simulates_new_points(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.run(tiny_moe_spec(tiles=(4, 8)))
        runner.run(tiny_moe_spec(tiles=(4, 8, None)))
        assert runner.last_stats.simulated == 1
        assert runner.last_stats.cache_hits == 2

    def test_runner_accepts_path_as_cache(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=tmp_path / "c")
        assert isinstance(runner.cache, ResultCache)

    def test_duplicate_points_simulated_once(self):
        # zip grids may legitimately repeat a point (Figure 21's overlapping
        # batch classes); identical cache keys must collapse to one simulation
        spec = tiny_moe_spec(tiles=(4, 4, 8))
        runner = SweepRunner(jobs=1)
        results = runner.run(spec)
        assert runner.last_stats.points == 3
        assert runner.last_stats.simulated == 2
        assert results[0].metrics == results[1].metrics
        assert results[0].metrics != results[2].metrics


class TestExecution:
    def test_results_come_back_in_grid_order(self):
        spec = tiny_moe_spec()
        results = DEFAULT_RUNNER.run(spec)
        assert [r.point.index for r in results] == list(range(len(spec)))
        schedules = [r.point.kwargs()["schedule"] for r in results]
        assert schedules == list(spec.axes["schedule"])

    def test_unknown_task_rejected(self):
        spec = SweepSpec(name="bad", task="nonexistent", axes={"a": [1]})
        with pytest.raises(ConfigError):
            DEFAULT_RUNNER.run(spec)

    def test_execute_point_injects_point_seed(self):
        from repro.sweep.tasks import TASKS
        name = "_seed_probe_test_task"
        TASKS[name] = lambda seed=0: {"seed": float(seed)}
        try:
            point = SweepSpec(name="s", task=name, seed=5).points()[0]
            assert execute_point(point)["seed"] == float(point.seed)
        finally:
            del TASKS[name]

    def test_seedless_task_runs_without_injection(self):
        from repro.sweep.tasks import TASKS
        name = "_seedless_probe_test_task"
        TASKS[name] = lambda value: {"value": float(value)}
        try:
            point = SweepSpec(name="s", task=name, axes={"value": [2]}).points()[0]
            assert execute_point(point) == {"value": 2.0}
        finally:
            del TASKS[name]

    def test_attention_workload_rejects_short_traces(self):
        from repro.sweep.tasks import get_task
        model = scaled_config(QWEN3_30B_A3B, scale=32)
        workload = AttentionWorkload(model=model, batch=8, lengths=[64, 64])
        with pytest.raises(ConfigError):
            get_task("workload")(workload=workload, schedule=Schedule.dynamic(),
                                 platform=sda_hardware())

    def test_workload_task_takes_platform_not_hardware(self):
        from repro.sweep.tasks import get_task
        model = scaled_config(QWEN3_30B_A3B, scale=32)
        workload = AttentionWorkload(model=model, batch=8, lengths=[64, 64])
        with pytest.raises(TypeError):
            get_task("workload")(workload=workload, schedule=Schedule.dynamic(),
                                 hardware=sda_hardware())

    def test_resolve_runner_defaults_to_serial_uncached(self):
        assert resolve_runner(None) is DEFAULT_RUNNER
        assert DEFAULT_RUNNER.jobs == 1 and DEFAULT_RUNNER.cache is None
        custom = SweepRunner(jobs=2)
        assert resolve_runner(custom) is custom
