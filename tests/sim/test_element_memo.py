"""Per-element waste the simulator no longer spends, with results unchanged.

* Map memoizes each element's (result, flops, cycles, on-chip bytes) on the
  shapes of metadata-only inputs, in a memo shared across runs.  Runs with
  the memo must match runs that compute every element afresh (the memo
  monkeypatched away), and the memo holds one entry per distinct input shape.
* Accum memoizes each update's (state, flops, cycles, on-chip bytes) on the
  (value shape, state shape) pair of metadata-only tiles, under the same
  contract.  Tests that count computations clear the shared memo first.
* Reshape pushes nothing for builder calls that produce no tokens (its stops)
  nor to a port without consumers (often the padding indicator).
"""

from dataclasses import replace

import numpy as np
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
from repro.ops import Accum, Map, Reshape, Zip
from repro.ops.functions import (ElemAdd, MatmulAccum, RetileCol, RetileRow, Scale,
                                 SumAccum)
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
        compute.clear_cost_memo()  # the memo is shared: start from an empty one
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


MOE_LAYER_SCHEDULES = MOE_SCHEDULES + [
    Schedule.dynamic("timemux-2", num_experts=MODEL.num_experts, timemux_regions=2)]


def _counting_accum_costs(monkeypatch):
    """Wrap Accum's update costing; the (value, state) pairs it was asked for,
    counted from an empty shared memo."""
    compute.clear_cost_memo()
    computed = []
    accum_costs = compute._accum_costs

    def counting(op, ctx, value, state):
        computed.append((value, state))
        return accum_costs(op, ctx, value, state)

    monkeypatch.setattr(compute, "_accum_costs", counting)
    return computed


def _meta_key(tile):
    return None if tile is None else (tile.rows, tile.cols, tile.dtype.name)


def _accum_program(groups, fn, dtype="bf16"):
    x = InputStream(StreamShape([len(groups), Dim.ragged("L")]),
                    TileType(Dim.dynamic("R"), Dim.dynamic("C"), dtype), name="in").stream
    out = Accum(x, fn, rank=1, compute_bw=64).output
    return Program([out], name="accum-memo"), {"in": tokens_from_nested(groups, 1)}, out


class TestAccumMemo:
    @pytest.mark.parametrize("schedule", MOE_LAYER_SCHEDULES, ids=lambda s: s.name)
    def test_moe_layers_match_uncached(self, schedule, monkeypatch):
        memoized = _run(_moe_workload(), schedule)
        monkeypatch.setattr(compute, "_accum_key", lambda value, state: None)
        assert _run(_moe_workload(), schedule) == memoized

    def test_k_shape_pairs_are_costed_k_times(self, monkeypatch):
        computed = _counting_accum_costs(monkeypatch)
        # SumAccum: the state takes the value's shape, so each group shape
        # brings two pairs (empty state, then equal state); RetileRow and
        # RetileCol grow the state a row or a column at a time
        groups = [[Tile.meta(2, 8)] * 3, [Tile.meta(4, 8)] * 2, [Tile.meta(2, 8)] * 4,
                  [Tile.meta(2, 8, "f32")] * 2, [Tile.meta(4, 8)]]
        program, inputs, out = _accum_program(groups, SumAccum())
        report = simulate(program, inputs)
        pairs = [(_meta_key(v), _meta_key(s)) for v, s in computed]
        assert len(pairs) == len(set(pairs)) == 6
        sums = [_meta_key(t.value) for t in report.output_tokens(out.name)
                if isinstance(t, Data)]
        assert sums == [_meta_key(group[0]) for group in groups]

        computed.clear()
        rows = [[Tile.meta(1, 8)] * n for n in (3, 1, 4, 2)]
        program, inputs, out = _accum_program(rows, RetileRow())
        report = simulate(program, inputs)
        assert len(computed) == 4  # states of 0, 1, 2 and 3 rows
        packed = [t.value.rows for t in report.output_tokens(out.name) if isinstance(t, Data)]
        assert packed == [3, 1, 4, 2]

        computed.clear()
        cols = [[Tile.meta(4, 1)] * n for n in (2, 3)]
        program, inputs, out = _accum_program(cols, RetileCol())
        report = simulate(program, inputs)
        assert len(computed) == 3  # states of 0, 1 and 2 columns
        packed = [t.value.cols for t in report.output_tokens(out.name) if isinstance(t, Data)]
        assert packed == [2, 3]

    def test_payload_tiles_skip_the_memo(self, monkeypatch):
        computed = _counting_accum_costs(monkeypatch)
        groups = [[Tile.from_array([[float(v), 1.0]]) for v in values]
                  for values in ((1, 2, 3), (4, 5))]
        program, inputs, out = _accum_program(groups, SumAccum(), dtype="f32")
        report = simulate(program, inputs)
        assert len(computed) == 5
        sums = [t.value.to_array()[0, 0] for t in report.output_tokens(out.name)
                if isinstance(t, Data)]
        assert sums == [6.0, 9.0]

    def test_matmul_accum_tuples_of_meta_tiles_share_the_memo(self, monkeypatch):
        computed = _counting_accum_costs(monkeypatch)
        shape = StreamShape([2, Dim.ragged("K")])
        a = InputStream(shape, TileType(2, 4), name="a").stream
        b = InputStream(shape, TileType(4, 3), name="b").stream
        out = Accum(Zip(a, b).output, MatmulAccum(), rank=1, compute_bw=64).output
        program = Program([out], name="matmul-accum")
        steps = (3, 2)

        def run(a_tile, b_tile):
            return simulate(program, {
                "a": tokens_from_nested([[a_tile()] * n for n in steps], 1),
                "b": tokens_from_nested([[b_tile()] * n for n in steps], 1)})

        report = run(lambda: Tile.meta(2, 4), lambda: Tile.meta(4, 3))
        # (A, B) shapes with an empty state, then with the (2, 3) product
        assert len(computed) == 2
        products = [(t.value.rows, t.value.cols) for t in report.output_tokens(out.name)
                    if isinstance(t, Data)]
        assert products == [(2, 3), (2, 3)]

        computed.clear()
        payload = run(lambda: Tile.from_array(np.ones((2, 4))),
                      lambda: Tile.from_array(np.ones((4, 3))))
        assert len(computed) == sum(steps)  # payload tuples skip the memo
        assert payload.cycles == report.cycles
        sums = [t.value.to_array()[0, 0] for t in payload.output_tokens(out.name)
                if isinstance(t, Data)]
        assert sums == [12.0, 8.0]


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
    """Wrap the engine's push handlers and inline pushes; the push effects
    they saw (an inline push is recorded as the effect it completes)."""
    seen = []
    handlers = dict(Engine._HANDLERS)
    for kind in ("push", "push_all", "push_many", "tick_push_all", "tick_push_many"):
        def wrapped(engine, process, effect, horizon, handler=handlers[kind]):
            seen.append(effect)
            return handler(engine, process, effect, horizon)
        handlers[kind] = wrapped
    monkeypatch.setattr(Engine, "_HANDLERS", handlers)
    push_now, tick_push_now = Engine.push_now, Engine.tick_push_now

    def inline_push(engine, channels, tokens):
        declined = push_now(engine, channels, tokens)
        if declined is None:
            seen.append(("push_many", channels, tokens))
        return declined

    def inline_tick_push(engine, cycles, channels, tokens):
        declined = tick_push_now(engine, cycles, channels, tokens)
        if declined is None:
            seen.append(("tick_push_many", cycles, channels, tokens))
        return declined

    monkeypatch.setattr(Engine, "push_now", inline_push)
    monkeypatch.setattr(Engine, "tick_push_now", inline_tick_push)
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
