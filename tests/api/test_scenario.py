"""Scenario records, the registry and the ``run`` entry point."""

from dataclasses import replace

import pytest

import repro.api as api
from repro.api import (MoEWorkload, ResultCache, Scenario, Schedule, SweepRunner,
                       get_scenario, register_scenario, run, scenario_names)
from repro.api.scenario import SCENARIOS
from repro.core.errors import ConfigError
from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config


@pytest.fixture(scope="module")
def tiny_scenario_factory():
    model = replace(scaled_config(QWEN3_30B_A3B, scale=32), name="tiny-4e",
                    num_experts=4, experts_per_token=2)
    trace = generate_routing_trace(model, batch_size=8, num_iterations=2, seed=0)
    assignments = [list(a) for a in representative_iteration(trace)]

    def factory(seed: int = 0) -> Scenario:
        return Scenario(
            name="tiny-tiling",
            workloads=MoEWorkload(model=model, batch=8, assignments=assignments),
            schedules={"tile=4": Schedule.static("tile=4", 4),
                       "dynamic": Schedule.dynamic()},
            seed=seed)

    return factory


class TestScenarioRecord:
    def test_single_workload_and_schedule_wrapped(self, tiny_scenario_factory):
        scenario = tiny_scenario_factory()
        assert list(scenario.workloads) == ["moe:tiny-4e:b8"]
        assert set(scenario.schedules) == {"tile=4", "dynamic"}
        assert len(scenario) == 2

    def test_grid_is_workload_major(self, tiny_scenario_factory):
        scenario = tiny_scenario_factory()
        assert scenario.grid() == [("moe:tiny-4e:b8", "tile=4", "sda"),
                                   ("moe:tiny-4e:b8", "dynamic", "sda")]

    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigError):
            Scenario(name="empty", workloads={}, schedules={})

    def test_sweep_spec_uses_generic_task(self, tiny_scenario_factory):
        spec = tiny_scenario_factory().sweep_spec()
        assert spec.task == "workload"
        assert spec.mode == "zip"
        assert len(spec) == 2


class TestRun:
    def test_run_collects_grid_in_order(self, tiny_scenario_factory):
        result = run(tiny_scenario_factory())
        assert [(r.workload, r.schedule, r.platform) for r in result.rows] == \
            result.scenario.grid()
        assert all(r["cycles"] > 0 for r in result.rows)

    def test_result_accessors(self, tiny_scenario_factory):
        result = run(tiny_scenario_factory())
        cell = result[("moe:tiny-4e:b8", "dynamic")]
        assert cell["cycles"] > 0
        assert result.for_workload("moe:tiny-4e:b8")["dynamic"] == cell
        assert result.for_schedule("dynamic")["moe:tiny-4e:b8"] == cell
        with pytest.raises(KeyError):
            result[("moe:tiny-4e:b8", "nonexistent")]
        flat = result.to_rows()
        assert flat[0]["workload"] == "moe:tiny-4e:b8" and "cycles" in flat[0]

    def test_warm_cache_rerun_skips_simulation(self, tiny_scenario_factory, tmp_path):
        cold = run(tiny_scenario_factory(), cache=ResultCache(tmp_path))
        assert cold.stats.simulated == len(cold.rows) > 0
        warm = run(tiny_scenario_factory(), cache=ResultCache(tmp_path))
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(warm.rows)
        assert [r.metrics for r in warm.rows] == [r.metrics for r in cold.rows]
        assert all(r.cached for r in warm.rows)

    def test_explicit_runner_takes_precedence(self, tiny_scenario_factory, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        run(tiny_scenario_factory(), runner=runner)
        assert runner.cumulative_stats.points > 0

    def test_overrides_only_for_registered_names(self, tiny_scenario_factory):
        with pytest.raises(ConfigError):
            run(tiny_scenario_factory(), seed=3)


class TestRegistry:
    def test_round_trip_register_lookup_run_cached_rerun(self, tiny_scenario_factory,
                                                         tmp_path):
        register_scenario("_test-tiny-tiling")(tiny_scenario_factory)
        try:
            assert "_test-tiny-tiling" in scenario_names()
            scenario = get_scenario("_test-tiny-tiling")
            assert scenario.name == "tiny-tiling"
            cold = run("_test-tiny-tiling", cache=ResultCache(tmp_path))
            warm = run("_test-tiny-tiling", cache=ResultCache(tmp_path))
            assert warm.stats.simulated == 0
            assert [r.metrics for r in warm.rows] == [r.metrics for r in cold.rows]
        finally:
            del SCENARIOS["_test-tiny-tiling"]

    def test_factory_overrides_forwarded(self, tiny_scenario_factory):
        register_scenario("_test-override")(tiny_scenario_factory)
        try:
            assert get_scenario("_test-override", seed=7).seed == 7
        finally:
            del SCENARIOS["_test-override"]

    def test_duplicate_registration_rejected(self, tiny_scenario_factory):
        register_scenario("_test-dup")(tiny_scenario_factory)
        try:
            with pytest.raises(ConfigError):
                register_scenario("_test-dup")(tiny_scenario_factory)
        finally:
            del SCENARIOS["_test-dup"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            get_scenario("nonexistent-scenario")


class TestPlatformAxis:
    def test_default_platform_is_sda(self, tiny_scenario_factory):
        scenario = tiny_scenario_factory()
        assert list(scenario.platforms) == ["sda"]

    def test_raw_hardware_config_is_one_platform(self, tiny_scenario_factory):
        from repro.workloads.configs import sda_hardware

        base = tiny_scenario_factory()
        raw = Scenario(name="raw", workloads=base.workloads,
                       schedules=base.schedules, platforms=sda_hardware())
        assert len(raw.platforms) == 1
        (platform,) = raw.platforms.values()
        assert platform.hardware == sda_hardware()

    def test_hardware_keyword_is_rejected(self, tiny_scenario_factory):
        from repro.workloads.configs import sda_hardware

        base = tiny_scenario_factory()
        with pytest.raises(TypeError):
            Scenario(name="legacy", workloads=base.workloads,
                     schedules=base.schedules, hardware=sda_hardware())
        assert not hasattr(base, "hardware")

    def test_platforms_sweep_as_third_axis(self, tiny_scenario_factory, tmp_path):
        """The acceptance criterion: hardware sweeps through the pooled runner
        and cache — distinct cache keys per platform, full hits on rerun."""
        from repro.api import platform_grid

        base = tiny_scenario_factory()
        scenario = Scenario(name="hw-sweep", workloads=base.workloads,
                            schedules=base.schedules,
                            platforms=platform_grid(onchip_bandwidths=(64.0, 256.0)))
        assert len(scenario) == 1 * 2 * 2  # one workload, two schedules, two platforms
        keys = [p.cache_key() for p in scenario.sweep_spec().points()]
        assert len(set(keys)) == len(keys)  # platform identity is in every key

        cold = run(scenario, cache=ResultCache(tmp_path))
        assert cold.stats.simulated == len(cold.rows)
        assert [(r.workload, r.schedule, r.platform) for r in cold.rows] == \
            scenario.grid()
        # more on-chip bandwidth must not slow the memory-bound layer down
        for schedule in base.schedules:
            slow = cold[("moe:tiny-4e:b8", schedule, "sda")]
            fast = cold[("moe:tiny-4e:b8", schedule, "sda-onchip256")]
            assert fast["cycles"] <= slow["cycles"]

        warm = run(scenario, cache=ResultCache(tmp_path))
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(warm.rows)
        assert [r.metrics for r in warm.rows] == [r.metrics for r in cold.rows]

    def test_equal_hardware_different_name_is_a_distinct_point(self,
                                                               tiny_scenario_factory):
        """Platform *identity* participates in the content hash."""
        from repro.api import Platform, get_platform

        base = tiny_scenario_factory()
        twin = Platform(name="sda-twin", hardware=get_platform("sda").hardware)
        scenario = Scenario(name="twins", workloads=base.workloads,
                            schedules={"dynamic": base.schedules["dynamic"]},
                            platforms={"sda": "sda", "sda-twin": twin})
        keys = [p.cache_key() for p in scenario.sweep_spec().points()]
        assert len(set(keys)) == 2

    def test_multi_platform_accessors(self, tiny_scenario_factory):
        from repro.api import platform_grid

        base = tiny_scenario_factory()
        scenario = Scenario(name="acc", workloads=base.workloads,
                            schedules={"dynamic": base.schedules["dynamic"]},
                            platforms=platform_grid(onchip_bandwidths=(64.0, 128.0)))
        result = run(scenario)
        with pytest.raises(KeyError):
            result[("moe:tiny-4e:b8", "dynamic")]  # ambiguous across platforms
        cell = result[("moe:tiny-4e:b8", "dynamic", "sda-onchip128")]
        assert cell["cycles"] > 0
        assert result.for_platform("sda")[("moe:tiny-4e:b8", "dynamic")]["cycles"] > 0
        assert len(result.select(platform="sda-onchip128")) == 1
        assert {row["platform"] for row in result.to_rows()} == \
            {"sda", "sda-onchip128"}
        # multi-platform for_workload keys carry the platform label
        assert set(result.for_workload("moe:tiny-4e:b8")) == \
            {("dynamic", "sda"), ("dynamic", "sda-onchip128")}

    def test_scenario_json_round_trip(self, tiny_scenario_factory):
        import json

        from repro.api import platform_grid

        base = tiny_scenario_factory()
        scenario = Scenario(name="rt", workloads=base.workloads,
                            schedules=base.schedules,
                            platforms=platform_grid(onchip_bandwidths=(64.0, 256.0)),
                            seed=5, description="round trip")
        payload = json.loads(json.dumps(scenario.to_dict()))
        rebuilt = Scenario.from_dict(payload)
        assert rebuilt.to_dict() == scenario.to_dict()
        assert rebuilt.grid() == scenario.grid()
        # the round-tripped scenario hashes (= caches) identically
        original_keys = [p.cache_key() for p in scenario.sweep_spec().points()]
        rebuilt_keys = [p.cache_key() for p in rebuilt.sweep_spec().points()]
        assert rebuilt_keys == original_keys


class TestBuiltInScenarios:
    def test_library_registered(self):
        names = scenario_names()
        for name in ("dense-ffn", "prefill-decode-mix", "figure9", "figure10"):
            assert name in names

    def test_dense_ffn_end_to_end_with_warm_rerun(self, tmp_path):
        # the brand-new scenario of this redesign: dense FFN had no home in
        # the per-figure structure; through the API it is three declarations
        cold = run("dense-ffn", cache=ResultCache(tmp_path))
        assert cold.stats.simulated == len(cold.rows) > 0
        dynamic = cold.for_schedule("dynamic")
        assert all(m["cycles"] > 0 for m in dynamic.values())
        warm = run("dense-ffn", cache=ResultCache(tmp_path))
        assert warm.stats.simulated == 0
        assert [r.metrics for r in warm.rows] == [r.metrics for r in cold.rows]

    def test_prefill_decode_mix_runs(self):
        result = run("prefill-decode-mix", batch=8)
        assert {r.schedule for r in result.rows} == {"coarse", "interleave", "dynamic"}
        assert all(r["cycles"] > 0 for r in result.rows)

    def test_figure_factory_seed_override_changes_routing(self):
        from repro.experiments.common import SMOKE_SCALE
        base = get_scenario("figure9", scale=SMOKE_SCALE)
        reseeded = get_scenario("figure9", scale=SMOKE_SCALE, seed=3)
        assert base.seed != reseeded.seed
        assert base.workloads != reseeded.workloads  # different routing traces


class TestFacade:
    def test_all_names_importable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None
