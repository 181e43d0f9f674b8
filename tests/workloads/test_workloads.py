"""Integration tests: the paper's workloads run end to end and match numpy."""

import numpy as np
import pytest

from repro.core.builder import tokens_to_matrix
from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.sim import run_functional, simulate
from repro.workloads.attention import AttentionConfig, build_attention_layer
from repro.workloads.configs import MIXTRAL_8X7B, QWEN3_30B_A3B, ModelConfig, scaled_config
from repro.workloads.moe import (MoELayerConfig,
    build_moe_layer,
    static_tiling_config,
    time_multiplexed_config)
from repro.workloads.qkv import QKVConfig, build_qkv_layer
from repro.workloads.simple_moe import SimpleMoEConfig, build_simple_moe
from repro.workloads.swiglu import (SwiGLUConfig, SwiGLUTiling, build_swiglu_layer,
                                    random_swiglu_data, swiglu_reference)
from repro.core.errors import ConfigError


class TestSimpleMoE:
    """The Section 3.3 walk-through, checked against numpy."""

    @pytest.mark.parametrize("tile_rows", [4, 3, None])
    def test_matches_reference(self, rng, tile_rows):
        cfg = SimpleMoEConfig(num_rows=10, hidden_dim=64, out_dim=128, num_experts=2,
                              tile_rows=tile_rows, weight_tile_cols=64)
        built = build_simple_moe(cfg, seed=3)
        x = rng.standard_normal((10, 64)).astype(np.float32)
        routing = [0, 1, 0, 0, 1, 1, 0, 1, 0, 0]
        report = simulate(built.program, built.inputs(x, routing))
        out = tokens_to_matrix(report.output_tokens(built.output_name))
        assert np.allclose(out, built.reference(x, routing), atol=1e-3)

    def test_three_experts(self, rng):
        cfg = SimpleMoEConfig(num_rows=9, hidden_dim=32, out_dim=64, num_experts=3,
                              tile_rows=2, weight_tile_cols=32)
        built = build_simple_moe(cfg, seed=5)
        x = rng.standard_normal((9, 32)).astype(np.float32)
        routing = [0, 1, 2, 0, 1, 2, 2, 1, 0]
        report = run_functional(built.program, built.inputs(x, routing))
        out = tokens_to_matrix(report.output_tokens(built.output_name))
        assert np.allclose(out, built.reference(x, routing), atol=1e-3)

    def test_dynamic_tiling_loads_less(self, rng):
        x = rng.standard_normal((10, 64)).astype(np.float32)
        routing = [0] * 9 + [1]
        reports = {}
        for tile in (2, None):
            cfg = SimpleMoEConfig(num_rows=10, hidden_dim=64, out_dim=128,
                                  tile_rows=tile, weight_tile_cols=64)
            built = build_simple_moe(cfg, seed=0)
            reports[tile] = simulate(built.program, built.inputs(x, routing))
        assert reports[None].offchip_traffic < reports[2].offchip_traffic


class TestSwiGLULayer:
    def test_functional_against_numpy(self):
        cfg = SwiGLUConfig(batch=16, hidden=32, intermediate=64)
        weights, activations = random_swiglu_data(cfg, seed=2)
        tiling = SwiGLUTiling(8, 32, 32)
        program = build_swiglu_layer(cfg, tiling, weights=weights, activations=activations)
        report = run_functional(program)
        out = tokens_to_matrix(report.output_tokens("store_out"))
        assert np.allclose(out, swiglu_reference(activations, weights), atol=1e-2)

    def test_traffic_decreases_with_batch_tile(self):
        cfg = SwiGLUConfig()
        small = simulate(build_swiglu_layer(cfg, SwiGLUTiling(16, 256, 64)))
        large = simulate(build_swiglu_layer(cfg, SwiGLUTiling(64, 256, 64)))
        assert large.offchip_traffic < small.offchip_traffic
        assert large.cycles < small.cycles

    def test_invalid_tiling_rejected(self):
        cfg = SwiGLUConfig()
        with pytest.raises(ConfigError):
            build_swiglu_layer(cfg, SwiGLUTiling(48, 256, 64))
        with pytest.raises(ConfigError):
            build_swiglu_layer(cfg, SwiGLUTiling(16, 128, 64))


def tiny_moe_model(num_experts=4, top_k=2) -> ModelConfig:
    base = scaled_config(QWEN3_30B_A3B, scale=64)
    from dataclasses import replace
    return replace(base, num_experts=num_experts, experts_per_token=top_k,
                   name=f"tiny-{num_experts}e")


class TestMoELayer:
    def test_functional_against_numpy(self, rng):
        model = tiny_moe_model(num_experts=3, top_k=2)
        cfg = MoELayerConfig(model=model, batch=6, tile_rows=2, weight_col_tiles=2,
                             with_payload=True, collect_output=True)
        built = build_moe_layer(cfg)
        assignments = [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2), (0, 2)]
        x = rng.standard_normal((6, model.hidden_dim)).astype(np.float32) * 0.1
        report = run_functional(built.program, built.inputs(assignments, activations=x))
        out = tokens_to_matrix(report.output_tokens(built.output_name))
        ref = built.reference(assignments, x)
        assert np.allclose(out, ref, rtol=1e-2, atol=1e-2)

    def test_dynamic_tiling_pareto_improvement(self):
        model = tiny_moe_model(num_experts=8, top_k=2)
        trace = generate_routing_trace(model, batch_size=32, seed=0)
        assignments = representative_iteration(trace)
        results = {}
        for tile in (4, 16, None):
            cfg = MoELayerConfig(model=model, batch=32, tile_rows=tile)
            built = build_moe_layer(cfg)
            results[tile] = simulate(built.program, built.inputs(assignments))
        # dynamic tiling: traffic no worse than the best static point, memory
        # below the largest static tile
        assert results[None].offchip_traffic <= results[4].offchip_traffic
        assert results[None].offchip_traffic <= results[16].offchip_traffic
        assert results[None].onchip_memory <= results[16].onchip_memory

    def test_time_multiplexing_reduces_allocated_compute(self):
        model = tiny_moe_model(num_experts=8, top_k=2)
        trace = generate_routing_trace(model, batch_size=16, seed=1)
        assignments = representative_iteration(trace)
        spatial = build_moe_layer(static_tiling_config(model, 16, 8, combine_output=False))
        muxed = build_moe_layer(time_multiplexed_config(model, 16, num_regions=2, tile_rows=8))
        spatial_report = simulate(spatial.program, spatial.inputs(assignments))
        muxed_report = simulate(muxed.program, muxed.inputs(assignments))
        assert muxed_report.allocated_compute < spatial_report.allocated_compute
        assert muxed_report.compute_utilization > spatial_report.compute_utilization

    def test_symbolic_batch_serves_every_batch(self, rng):
        model = tiny_moe_model(num_experts=3, top_k=2)
        built = build_moe_layer(MoELayerConfig(
            model=model, batch=None, tile_rows=2, weight_col_tiles=2,
            with_payload=True, collect_output=True))
        assert not built.program.input_named("x").stream.shape.outermost().is_static
        for assignments in ([(0, 1), (1, 2), (0, 2)], [(2, 0)] * 7):
            x = rng.standard_normal((len(assignments), model.hidden_dim)).astype(np.float32)
            report = run_functional(built.program,
                                    built.inputs(assignments, activations=x * 0.1))
            out = tokens_to_matrix(report.output_tokens(built.output_name))
            assert np.allclose(out, built.reference(assignments, x * 0.1),
                               rtol=1e-2, atol=1e-2)
        concrete = build_moe_layer(MoELayerConfig(model=model, batch=3))
        with pytest.raises(ConfigError, match="cover the batch"):
            concrete.inputs([(0, 1)] * 4)

    @pytest.mark.parametrize("variant", [{}, {"num_regions": 4, "combine_output": False}])
    def test_handle_views_are_linear_in_the_expert_count(self, monkeypatch, variant):
        from dataclasses import replace

        from repro.core.graph import StreamHandle

        views = []
        init = StreamHandle.__init__

        def counting(handle, producer, port):
            views.append(port)
            init(handle, producer, port)

        monkeypatch.setattr(StreamHandle, "__init__", counting)
        model = replace(scaled_config(QWEN3_30B_A3B, scale=32), num_experts=128)
        build_moe_layer(MoELayerConfig(model=model, batch=None, **variant))
        # ~41 views per expert; one fresh `partition.outputs` per expert
        # loop iteration made 128 ** 2 = 16,384 more
        assert len(views) < 48 * 128

    def test_invalid_configs(self):
        model = tiny_moe_model()
        with pytest.raises(ConfigError):
            MoELayerConfig(model=model, batch=8, tile_rows=0)
        with pytest.raises(ConfigError):
            MoELayerConfig(model=model, batch=8, num_regions=3)
        with pytest.raises(ConfigError):
            MoELayerConfig(model=model, batch=8, num_regions=2, combine_output=True)


class TestAttention:
    def setup_method(self):
        self.model = scaled_config(QWEN3_30B_A3B, scale=32)

    @pytest.mark.parametrize("strategy", ["coarse", "interleave", "dynamic"])
    def test_strategies_run_and_produce_all_rows(self, strategy):
        cfg = AttentionConfig(model=self.model, batch=8, strategy=strategy,
                              num_regions=2, kv_tile_rows=64, coarse_chunk=4,
                              collect_output=True)
        built = build_attention_layer(cfg)
        lengths = [64, 640, 128, 320, 64, 1280, 192, 64]
        report = simulate(built.program, built.inputs(lengths))
        rows = [v for v in report.output_values(built.output_name)]
        assert len(rows) == 8
        assert report.cycles > 0

    def test_dynamic_beats_coarse_on_small_batch(self):
        lengths = [512] * 4
        cycles = {}
        for strategy in ("coarse", "dynamic"):
            cfg = AttentionConfig(model=self.model, batch=4, strategy=strategy,
                                  num_regions=4, kv_tile_rows=64, coarse_chunk=16)
            built = build_attention_layer(cfg)
            cycles[strategy] = simulate(built.program, built.inputs(lengths)).cycles
        # coarse-grained assignment puts all four requests in one region
        assert cycles["coarse"] > 1.5 * cycles["dynamic"]

    def test_traffic_scales_with_kv_length(self):
        cfg = AttentionConfig(model=self.model, batch=4, strategy="interleave",
                              num_regions=2, kv_tile_rows=64)
        built = build_attention_layer(cfg)
        short = simulate(built.program, built.inputs([64, 64, 64, 64]))
        built2 = build_attention_layer(cfg)
        long = simulate(built2.program, built2.inputs([1024, 1024, 1024, 1024]))
        assert long.offchip_traffic > 10 * short.offchip_traffic

    def test_invalid_strategy(self):
        with pytest.raises(ConfigError):
            AttentionConfig(model=self.model, batch=4, strategy="magic")


class TestQKV:
    def test_builds_and_runs(self):
        model = scaled_config(MIXTRAL_8X7B, scale=32)
        cfg = QKVConfig(model=model, batch=8, num_regions=2, weight_col_tiles=2)
        built = build_qkv_layer(cfg)
        report = simulate(built.program, built.inputs())
        assert report.offchip_traffic > 0
        assert report.cycles > 0

    def test_symbolic_batch_takes_the_rows_from_the_inputs(self):
        model = scaled_config(MIXTRAL_8X7B, scale=32)
        symbolic = build_qkv_layer(QKVConfig(model=model, batch=None, num_regions=2))
        concrete = build_qkv_layer(QKVConfig(model=model, batch=5, num_regions=2))
        assert symbolic.program.name.endswith("_bB")
        assert (simulate(symbolic.program, symbolic.inputs(num_rows=5)).to_dict()
                == simulate(concrete.program, concrete.inputs()).to_dict())
        with pytest.raises(ConfigError, match="num_rows"):
            symbolic.inputs()
