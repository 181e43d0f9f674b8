"""API equivalence: the facade reproduces the pre-redesign metrics bit-for-bit.

Two layers of pinning:

* adapter-level — a workload adapter run under a unified schedule produces the
  *exact* metrics dictionary of a hand-constructed builder config simulation,
* figure-level — the registered ``figure9`` scenario reproduces the golden
  values recorded from the pre-redesign code path
  (``tests/experiments/goldens_smoke.json``) with exact equality, not just the
  golden test's 2% tolerance.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import AttentionWorkload, MoEWorkload, Schedule, get_scenario, run
from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.experiments import figure9_10
from repro.experiments.common import SMOKE_SCALE
from repro.schedules import parallelization
from repro.sim import simulate
from repro.workloads.attention import AttentionConfig, build_attention_layer
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config, sda_hardware
from repro.workloads.moe import MoELayerConfig, build_moe_layer

GOLDENS_PATH = Path(__file__).parent.parent / "experiments" / "goldens_smoke.json"


@pytest.fixture(scope="module")
def tiny_model():
    return replace(scaled_config(QWEN3_30B_A3B, scale=32), name="tiny-4e",
                   num_experts=4, experts_per_token=2)


@pytest.fixture(scope="module")
def routing(tiny_model):
    trace = generate_routing_trace(tiny_model, batch_size=8, num_iterations=2, seed=0)
    return [list(a) for a in representative_iteration(trace)]


class TestAdapterEquivalence:
    def test_moe_adapter_matches_direct_config(self, tiny_model, routing):
        hw = sda_hardware()
        for schedule, tile_rows in ((Schedule.static("tile=4", 4), 4),
                                    (Schedule.dynamic(), None)):
            via_api = MoEWorkload(model=tiny_model, batch=8,
                                  assignments=routing).run(schedule, hw)
            config = MoELayerConfig(model=tiny_model, batch=8, tile_rows=tile_rows)
            program = build_moe_layer(config)
            direct = simulate(program.program, program.inputs(routing), hardware=hw)
            assert via_api == direct.to_dict()

    def test_moe_adapter_matches_timemux_config(self, tiny_model, routing):
        hw = sda_hardware()
        schedule = Schedule.dynamic(num_experts=4, timemux_regions=2)
        via_api = MoEWorkload(model=tiny_model, batch=8, assignments=routing,
                              combine_output=False).run(schedule, hw)
        config = MoELayerConfig(model=tiny_model, batch=8, tile_rows=None,
                                num_regions=2, combine_output=False)
        program = build_moe_layer(config)
        direct = simulate(program.program, program.inputs(routing), hardware=hw)
        assert via_api == direct.to_dict()

    def test_attention_adapter_matches_direct_config(self, tiny_model):
        hw = sda_hardware()
        lengths = [32, 256, 64, 128, 48, 512, 96, 64]
        for strategy in ("coarse", "interleave", "dynamic"):
            schedule = Schedule(name=strategy,
                                parallelization=parallelization(strategy, num_regions=4,
                                                                coarse_chunk=2))
            via_api = AttentionWorkload(model=tiny_model, batch=8,
                                        lengths=lengths).run(schedule, hw)
            config = AttentionConfig(model=tiny_model, batch=8, strategy=strategy,
                                     num_regions=4, kv_tile_rows=64, coarse_chunk=2)
            program = build_attention_layer(config)
            direct = simulate(program.program, program.inputs(lengths), hardware=hw)
            assert via_api == direct.to_dict()


class TestPlatformEquivalence:
    def test_default_platform_reproduces_explicit_hardware_exactly(self, tiny_model,
                                                                   routing):
        """The platform redesign's acceptance anchor: a scenario without an
        explicit platform (= the registered "sda" platform) produces the exact
        metrics of a raw sda_hardware() config and of the named platform."""
        from repro.api import Scenario

        workload = MoEWorkload(model=tiny_model, batch=8, assignments=routing)
        schedules = {"tile=4": Schedule.static("tile=4", 4),
                     "dynamic": Schedule.dynamic()}
        default_result = run(Scenario(name="default-platform", workloads=workload,
                                      schedules=schedules))
        explicit_result = run(Scenario(name="explicit-hw", workloads=workload,
                                       schedules=schedules, platforms=sda_hardware()))
        named_result = run(Scenario(name="named-platform", workloads=workload,
                                    schedules=schedules, platforms="sda"))
        assert [r.metrics for r in default_result.rows] == \
            [r.metrics for r in explicit_result.rows] == \
            [r.metrics for r in named_result.rows]
        assert all(r.platform == "sda" for r in default_result.rows)
        # and the workload-task metrics equal a direct builder simulation
        config = MoELayerConfig(model=tiny_model, batch=8, tile_rows=4)
        program = build_moe_layer(config)
        direct = simulate(program.program, program.inputs(routing),
                          hardware=sda_hardware())
        assert default_result[("moe:tiny-4e:b8", "tile=4")] == direct.to_dict()

    def test_all_three_spellings_share_cache_entries(self, tiny_model, routing,
                                                     tmp_path):
        """None / "sda" / sda_hardware() resolve to one cache identity."""
        from repro.api import ResultCache, Scenario

        workload = MoEWorkload(model=tiny_model, batch=8, assignments=routing)
        schedules = {"dynamic": Schedule.dynamic()}
        cache = ResultCache(tmp_path)
        cold = run(Scenario(name="a", workloads=workload, schedules=schedules),
                   cache=cache)
        assert cold.stats.simulated == 1
        for spelling in ({"platforms": "sda"}, {"platforms": sda_hardware()}):
            warm = run(Scenario(name="b", workloads=workload, schedules=schedules,
                                **spelling), cache=ResultCache(tmp_path))
            assert warm.stats.simulated == 0, spelling


class TestFigureEquivalence:
    def test_registered_figure9_scenario_reproduces_goldens_exactly(self):
        """The acceptance criterion: scenario metrics == pre-redesign goldens."""
        recorded = json.loads(GOLDENS_PATH.read_text())["figures"]["figure9"]
        scenario = get_scenario("figure9", scale=SMOKE_SCALE)
        result = run(scenario)
        fig9 = figure9_10.run(SMOKE_SCALE)
        for model_name, golden in recorded.items():
            dynamic = result[(model_name, "dynamic")]
            assert dynamic["cycles"] == golden["dynamic_cycles"]
            assert dynamic["offchip_traffic_bytes"] == \
                golden["dynamic_offchip_traffic_bytes"]
            assert dynamic["onchip_memory_bytes"] == golden["dynamic_onchip_memory_bytes"]
            # and the figure module (itself rewired through the API) agrees on
            # the derived Pareto summaries
            summary = fig9["per_model"][model_name]["summary"]
            assert summary["pid"] == golden["pid"]
            assert summary["speedup_at_matched_memory"] == \
                golden["speedup_at_matched_memory"]

    def test_scenario_and_figure_module_share_cache_entries(self, tmp_path):
        """The registered scenario and the figure module run identical points."""
        from repro.api import ResultCache
        cache = ResultCache(tmp_path)
        run(get_scenario("figure9", scale=SMOKE_SCALE), cache=cache)
        from repro.sweep import SweepRunner
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        figure9_10.run(SMOKE_SCALE, runner=runner)
        assert runner.last_stats.simulated == 0  # every point served from cache
