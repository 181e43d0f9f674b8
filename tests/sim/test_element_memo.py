"""Per-element waste the simulator no longer spends, with results unchanged.

* Map memoizes each element's (result, flops, cycles, on-chip bytes) on the
  shapes of metadata-only inputs.  Runs with the memo must match runs that
  compute every element afresh (the memo monkeypatched away), and the memo
  holds one entry per distinct input shape.
* Reshape pushes nothing for builder calls that produce no tokens (its stops)
  nor to a port without consumers (often the padding indicator).
"""

from dataclasses import replace

import pytest

import repro.sim.executors.compute as compute
from repro.api import AttentionWorkload, MoEWorkload
from repro.core.builder import tiles_to_tokens
from repro.core.dims import Dim
from repro.core.dtypes import Tile, TileType
from repro.core.graph import InputStream, Program
from repro.core.shape import StreamShape
from repro.core.stream import Data, Stop, tokens_from_nested
from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.ops import Map, Reshape
from repro.ops.functions import ElemAdd, Scale
from repro.schedules import Schedule, parallelization
from repro.sim import simulate
from repro.sim.engine import Engine
from repro.sim.executors.common import HardwareConfig
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

MODEL = replace(scaled_config(QWEN3_30B_A3B, scale=32), num_experts=8, experts_per_token=2)


def _run(workload, schedule):
    built = workload.build(schedule, None)
    report = simulate(built.program, built.inputs)
    return report.to_dict(), {name: vars(stats).copy()
                              for name, stats in report.metrics.per_op.items()}


def _moe_workload():
    assignments = representative_iteration(generate_routing_trace(
        MODEL, batch_size=12, num_iterations=2, seed=3))
    return MoEWorkload(model=MODEL, batch=12, assignments=assignments)


MOE_SCHEDULES = [Schedule.dynamic(), Schedule.static("tile-1", 1),
                 Schedule.static("tile-4", 4), Schedule.static("tile-12", 12)]
ATTENTION_SCHEDULES = [
    Schedule(name=strategy, parallelization=parallelization(strategy, num_regions=2,
                                                            coarse_chunk=3))
    for strategy in ("coarse", "interleave", "dynamic")]


class TestMapMemo:
    @pytest.mark.parametrize("schedule", MOE_SCHEDULES, ids=lambda s: s.name)
    def test_moe_sweep_matches_uncached(self, schedule, monkeypatch):
        memoized = _run(_moe_workload(), schedule)
        monkeypatch.setattr(compute, "_shape_key", lambda values: None)
        assert _run(_moe_workload(), schedule) == memoized

    @pytest.mark.parametrize("schedule", ATTENTION_SCHEDULES, ids=lambda s: s.name)
    def test_attention_matches_uncached(self, schedule, monkeypatch):
        workload = AttentionWorkload(model=MODEL, batch=6,
                                     lengths=[40, 300, 64, 129, 8, 200], kv_tile_rows=32)
        memoized = _run(workload, schedule)
        monkeypatch.setattr(compute, "_shape_key", lambda values: None)
        assert _run(workload, schedule) == memoized

    def test_fresh_meta_tiles_of_k_shapes_keep_k_entries(self, monkeypatch):
        computed = []
        element_costs = compute._element_costs

        def counting(op, ctx, values):
            computed.append(tuple((v.rows, v.cols, v.dtype.name) for v in values))
            return element_costs(op, ctx, values)

        monkeypatch.setattr(compute, "_element_costs", counting)
        # shapes differing in rows only, in columns only and in dtype only
        shapes = [(1, 16, "bf16"), (2, 16, "bf16"), (2, 8, "bf16"), (5, 16, "bf16"),
                  (5, 16, "f32")]
        tiles = [Tile.meta(*shapes[i % len(shapes)]) for i in range(60)]
        x = InputStream(StreamShape([len(tiles)]),
                        TileType(Dim.dynamic("R"), Dim.dynamic("C")), name="in").stream
        y = InputStream(StreamShape([len(tiles)]),
                        TileType(Dim.dynamic("R"), Dim.dynamic("C")), name="y").stream
        out = Map((x, y), ElemAdd()).output
        report = simulate(Program([out], name="memo"),
                          {"in": tiles_to_tokens(tiles),
                           "y": tiles_to_tokens([Tile.meta(t.rows, t.cols, t.dtype)
                                                 for t in tiles])})
        assert sorted(computed) == sorted((shape, shape) for shape in shapes)
        results = [(t.value.rows, t.value.cols, t.value.dtype.name)
                   for t in report.output_tokens(out.name) if isinstance(t, Data)]
        assert results == [(t.rows, t.cols, t.dtype.name) for t in tiles]

    def test_payload_inputs_skip_the_memo(self, monkeypatch):
        computed = []
        element_costs = compute._element_costs

        def counting(op, ctx, values):
            computed.append(values)
            return element_costs(op, ctx, values)

        monkeypatch.setattr(compute, "_element_costs", counting)
        x = InputStream(StreamShape([3]), TileType(1, 2), name="in").stream
        out = Map(x, Scale(2.0)).output
        tiles = [Tile.from_array([[float(v), 1.0]]) for v in (1, 2, 3)]
        report = simulate(Program([out], name="payload"), {"in": tiles_to_tokens(tiles)})
        assert len(computed) == 3
        values = [t.value.to_array()[0, 0] for t in report.output_tokens(out.name)
                  if isinstance(t, Data)]
        assert values == [2.0, 4.0, 6.0]


#: (cycles, data structure, padding indicators) of the reshape programs below,
#: captured before Reshape stopped pushing empty runs and unconsumed ports
PINNED_RESHAPE = {
    0: (58.0, ["d", "d", "S1", "d", "d", "S2", "d", "d", "S2", "d", "d", "S1",
               "d", "d", "S2", "d", "d", "S2", "D"],
        [False, False, "S1", False, True, "S2", False, True, "S2", False, False, "S1",
         False, False, "S2", False, False, "S2", "D"]),
    1: (48.0, ["d", "d", "d", "S1", "d", "S2", "d", "d", "d", "d", "S1", "d", "d",
               "S2", "D"],
        [False, False, False, "S1", False, "S2", False, False, False, False, "S1",
         False, False, "S2", "D"]),
}


def _structure(tokens, values=False):
    return [(t.value if values else "d") if isinstance(t, Data)
            else f"S{t.level}" if isinstance(t, Stop) else "D" for t in tokens]


def _recording_pushes(monkeypatch):
    """Wrap the engine's push handlers; the list of push effects they saw."""
    seen = []
    handlers = dict(Engine._HANDLERS)
    for kind in ("push", "push_all", "push_many", "tick_push_all", "tick_push_many"):
        def wrapped(engine, process, effect, horizon, handler=handlers[kind]):
            seen.append(effect)
            return handler(engine, process, effect, horizon)
        handlers[kind] = wrapped
    monkeypatch.setattr(Engine, "_HANDLERS", handlers)
    return seen


class TestReshapePushes:
    @pytest.mark.parametrize("padding_consumed", [False, True],
                             ids=["padding-unconsumed", "padding-consumed"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_no_empty_pushes(self, level, padding_consumed, monkeypatch):
        pushes = _recording_pushes(monkeypatch)
        tiles = [[Tile.meta(1, 4)] * n for n in (3, 1, 4, 2)]
        x = InputStream(StreamShape([4, Dim.ragged("L")]), TileType(1, 4), name="in").stream
        op = Reshape(x, chunk_size=2, level=level, pad=Tile.meta(1, 4))
        doubled = Map(op.data, Scale(2.0), compute_bw=1).output
        outputs = [doubled, op.padding] if padding_consumed else [doubled]
        # one-slot FIFOs: every push can back-pressure
        report = simulate(Program(outputs, name="reshape"),
                          {"in": tokens_from_nested(tiles, 1)},
                          hardware=HardwareConfig(channel_capacity=1))

        assert pushes
        for effect in pushes:
            assert effect[-2 if effect[0].startswith("tick") else 1], \
                f"push to a port without consumers: {effect!r}"
            if effect[0].endswith("push_many"):
                assert effect[-1], f"empty token run: {effect!r}"

        cycles, structure, padding = PINNED_RESHAPE[level]
        assert report.cycles == cycles
        assert _structure(report.output_tokens(doubled.name)) == structure
        if padding_consumed:
            assert _structure(report.output_tokens(op.padding.name), values=True) == padding
