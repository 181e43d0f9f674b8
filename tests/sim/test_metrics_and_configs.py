"""Tests for the metrics collector, hardware/model configurations and lowering details."""

import pytest

from repro.core.dtypes import TileType
from repro.core.errors import ConfigError, GraphError
from repro.core.graph import InputStream, Program
from repro.core.shape import StreamShape
from repro.core.stream import tokens_from_nested
from repro.core.dtypes import Tile
from repro.ops import Bufferize, LinearOffChipStore, Map
from repro.ops.functions import Scale
from repro.sim import simulate
from repro.sim.executors.common import HardwareConfig, OpContext, OutputBuilder
from repro.sim.lowering import lower
from repro.sim.metrics import SimMetrics
from repro.workloads.configs import (LLAMA_3_1_8B, MIXTRAL_8X7B, QWEN3_30B_A3B, ModelConfig,
                                     scaled_config, sda_hardware)


class TestSimMetrics:
    def test_aggregation(self):
        metrics = SimMetrics()
        metrics.offchip_bandwidth = 1024.0
        metrics.record_compute_bw("mm", 1024)
        metrics.record_element("mm", cycles=10.0, flops=2048)
        metrics.record_element("mm", cycles=10.0, flops=2048)
        metrics.record_offchip("load", 4096, time=5.0)
        metrics.record_offchip("store", 1024, time=50.0, is_write=True)
        metrics.record_onchip("buf", 100)
        metrics.record_onchip("buf", 60)          # keeps the maximum
        metrics.cycles = 100.0
        assert metrics.offchip_traffic == 5120
        assert metrics.offchip_traffic_read == 4096
        assert metrics.offchip_traffic_written == 1024
        assert metrics.onchip_memory == 100
        assert metrics.total_flops == 4096
        assert metrics.allocated_compute == 1024
        assert metrics.compute_utilization() == pytest.approx(4096 / (100 * 1024))
        assert metrics.offchip_bw_utilization() == pytest.approx(5120 / (1024 * 100))
        assert metrics.first_offchip_time == 5.0 and metrics.last_offchip_time == 50.0
        summary = metrics.summary()
        assert summary["cycles"] == 100.0

    def test_zero_division_guards(self):
        metrics = SimMetrics()
        assert metrics.compute_utilization() == 0.0
        assert metrics.offchip_bw_utilization() == 0.0


class TestHardwareConfig:
    def test_defaults_match_section_5_1(self):
        hw = sda_hardware()
        assert hw.onchip_bandwidth == 64.0
        assert hw.offchip_bandwidth == 1024.0
        assert hw.compute_tile == 16
        assert hw.timing_model == "roofline"

    def test_roofline_vs_detailed_timing(self):
        metrics = SimMetrics()
        roofline_ctx = OpContext("op", metrics, HardwareConfig(onchip_bandwidth=64.0),
                                 inputs_from_memory=True, outputs_to_memory=True)
        cycles = roofline_ctx.roofline_cycles(in_bytes=640, flops=1024, out_bytes=0,
                                              compute_bw=512)
        assert cycles == pytest.approx(10.0)   # memory term dominates: 640/64
        detailed_ctx = OpContext("op", metrics,
                                 HardwareConfig(timing_model="detailed"),
                                 inputs_from_memory=True)
        detailed = detailed_ctx.roofline_cycles(in_bytes=1024, flops=8192, out_bytes=0,
                                                compute_bw=512)
        assert detailed >= 1.0 and detailed == float(int(detailed))

    def test_fifo_only_operators_skip_memory_terms(self):
        ctx = OpContext("op", SimMetrics(), HardwareConfig(onchip_bandwidth=64.0))
        assert ctx.roofline_cycles(in_bytes=10_000, flops=64, out_bytes=10_000,
                                   compute_bw=64) == pytest.approx(1.0)


class TestOutputBuilder:
    def test_merge_and_flush(self):
        builder = OutputBuilder()
        assert builder.stop(1) == []
        assert builder.pending == 1
        builder.stop(3)
        tokens = builder.data("x")
        assert [type(t).__name__ for t in tokens] == ["Stop", "Data"]
        assert tokens[0].level == 3
        assert [type(t).__name__ for t in builder.done()] == ["Done"]


class TestModelConfigs:
    def test_full_configs(self):
        assert QWEN3_30B_A3B.num_experts == 128 and QWEN3_30B_A3B.experts_per_token == 8
        assert MIXTRAL_8X7B.num_experts == 8 and MIXTRAL_8X7B.experts_per_token == 2
        assert QWEN3_30B_A3B.kv_dim == 4 * 128
        assert LLAMA_3_1_8B.expert_ffn_params == 3 * 4096 * 14336

    def test_scaled_config_preserves_structure(self):
        scaled = scaled_config(QWEN3_30B_A3B, scale=16)
        assert scaled.num_experts == QWEN3_30B_A3B.num_experts
        assert scaled.experts_per_token == QWEN3_30B_A3B.experts_per_token
        assert scaled.hidden_dim == QWEN3_30B_A3B.hidden_dim // 16
        assert scaled.hidden_dim % 16 == 0
        with pytest.raises(ConfigError):
            scaled_config(QWEN3_30B_A3B, scale=0)

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(name="bad", hidden_dim=64, moe_intermediate_dim=64, num_experts=2,
                        experts_per_token=4, num_layers=1, num_attention_heads=1,
                        num_kv_heads=1, head_dim=16)


class TestLowering:
    @staticmethod
    def _tokens():
        return {"x": tokens_from_nested([[Tile.meta(1, 32), Tile.meta(1, 32)]], 1)}

    def _program(self):
        x = InputStream(StreamShape([1, 2]), TileType(1, 32), name="x").stream
        scaled = Map(x, Scale(2.0), name="scale")
        buffered = Bufferize(scaled.output, rank=1, name="buf")
        store = LinearOffChipStore(scaled.output, name="store")
        return Program([store, buffered.output]), scaled

    def test_memory_neighbour_flags(self):
        program, scaled = self._program()
        lowered = lower(program, inputs=self._tokens())
        ctx = lowered.contexts["scale"]
        # the Map's consumer set includes a Bufferize and an off-chip store
        assert ctx.outputs_to_memory
        assert not ctx.inputs_from_memory

    def test_missing_input_tokens_raise(self):
        program, _ = self._program()
        with pytest.raises(GraphError):
            lower(program, inputs={})

    def test_unknown_output_name_raises(self):
        program, _ = self._program()
        lowered = lower(program, inputs=self._tokens())
        lowered.run()
        with pytest.raises(GraphError):
            lowered.output_tokens("nope")

    def test_a_program_is_planned_once_and_lowered_per_run(self):
        program, _ = self._program()
        assert program.lowering_plan is None
        first = lower(program, inputs=self._tokens())
        plan = program.lowering_plan
        bounded = HardwareConfig(channel_capacity=1, channel_latency=3.0)
        second = lower(program, inputs=self._tokens(), hardware=bounded)
        assert program.lowering_plan is plan
        # the plan holds names and indices; each run gets its own channels,
        # with the run's capacity and latency
        assert [c.name for c in first.engine.channels] == [
            "x.stream->scale.in0", "scale.out0->buf.in0", "scale.out0->store.in0",
            "buf.out0->collect"]
        assert [c.name for c in second.engine.channels] == plan.channel_names
        assert not set(map(id, first.engine.channels)) & set(map(id, second.engine.channels))
        assert {(c.capacity, c.latency) for c in second.engine.channels} == {(1, 3.0)}
        assert [p.name for p in second.engine.processes] == [
            "x", "scale", "buf", "store", "collect:buf.out0"]
        # lowering again on the same hardware repeats the run exactly
        runs = [simulate(program, self._tokens()) for _ in range(2)]
        assert program.lowering_plan is plan
        assert runs[0].to_dict() == runs[1].to_dict()
        assert runs[0].metrics.per_op == runs[1].metrics.per_op
        stored = [list(map(repr, run.output_tokens("store"))) for run in runs]
        assert stored[0] == stored[1] and len(stored[0]) == 4

    def test_report_outputs_and_utilization(self):
        program, _ = self._program()
        report = simulate(program, self._tokens())
        assert report.offchip_traffic == 2 * 32 * 2
        assert 0.0 <= report.offchip_bw_utilization <= 1.0
        assert "store" in report.outputs
