"""The shared element-cost memo of Map, Accum and FlatMap.

Metadata-only elements are costed once per process, not once per run: the
memo is keyed on the executor kind, the function's ``cost_key()``, the
operator's compute bandwidth, its memory placement and the hardware fields
the roofline reads, plus the input shapes.  These tests check that

* random Accum / Map / FlatMap programs over metadata and payload tiles give
  the same report, per-operator stats and outputs with the memo as with its
  key forced to ``None`` — on a first run, on an all-hits rerun and after
  :func:`~repro.serve.clear_step_cache` empties it,
* the memo stays bounded and ``clear_step_cache`` empties it,
* functions key on their class and scalar parameters only.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.executors.compute as compute
from repro.core.dims import Dim
from repro.core.dtypes import BF16, ElemType, Tile, TileType
from repro.core.graph import InputStream, Program
from repro.core.shape import StreamShape
from repro.core.stream import Data, Done, Stop, tokens_from_nested
from repro.ops import Accum, FlatMap, LinearOffChipLoad, LinearOffChipStore, Map
from repro.ops.functions import (Exp, Matmul, MatmulAccum, RetileCol, RetileRow,
                                 RetileStreamify, RowSum, Scale, SplitCols, SumAccum)
from repro.serve import clear_step_cache
from repro.sim import simulate
from repro.sim.executors.common import HardwareConfig

# -- random programs -----------------------------------------------------------

#: (kind, function factory) stages; each keeps a rank-1 stream of tiles whose
#: groups hold equally shaped tiles, so every function's shape rule holds
STAGES = {
    "scale": lambda: ("Map", Scale(2.0)),
    "row-sum": lambda: ("Map", RowSum()),
    "sum": lambda: ("Accum", SumAccum()),
    "pack-rows": lambda: ("Accum", RetileRow()),
    "pack-cols": lambda: ("Accum", RetileCol()),
    "split-rows": lambda: ("FlatMap", RetileStreamify(2)),
    "split-cols": lambda: ("FlatMap", SplitCols(3)),
}

programs = st.fixed_dictionaries({
    # per group: (tile count, rows, cols, carries a payload)
    "groups": st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 3]),
                                 st.sampled_from([4, 48]), st.booleans()),
                       min_size=1, max_size=4),
    "stages": st.lists(st.sampled_from(sorted(STAGES)), min_size=1, max_size=4),
    # per stage, cycled: stages of one function may differ in bandwidth
    "compute_bw": st.lists(st.sampled_from([0, 1, 64]), min_size=1, max_size=3),
    "store": st.booleans(),
    "timing_model": st.sampled_from(["roofline", "detailed"]),
    "onchip_bandwidth": st.sampled_from([16.0, 64.0]),
})


def _tile(rows, cols, payload, seed):
    if not payload:
        return Tile.meta(rows, cols)
    return Tile.from_array(np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
                           + seed)


def _build(spec):
    """A program of the spec's stages over one rank-2 input stream; the
    stream stays rank 2 ([groups, elements]) between stages."""
    shape = StreamShape([len(spec["groups"]), Dim.ragged("L")])
    handle = InputStream(shape, TileType(Dim.dynamic("R"), Dim.dynamic("C")),
                         name="in").stream
    bws = spec["compute_bw"]
    for i, name in enumerate(spec["stages"]):
        kind, fn = STAGES[name]()
        bw = bws[i % len(bws)]
        if kind == "Map":
            handle = Map(handle, fn, compute_bw=bw).output
        elif kind == "Accum":
            # reduce each group to one tile, then re-open it as a one-tile group
            reduced = Accum(handle, fn, rank=1, compute_bw=bw).output
            handle = FlatMap(reduced, RetileStreamify(64), rank=1, compute_bw=bw).output
        else:
            # expand each tile, then pack the pieces back row-wise
            pieces = FlatMap(handle, fn, rank=1, compute_bw=bw).output
            packer = RetileRow() if isinstance(fn, RetileStreamify) else RetileCol()
            handle = Accum(pieces, packer, rank=1, compute_bw=bw).output
    sinks = [handle]
    if spec["store"]:
        sinks.append(LinearOffChipStore(handle, name="store"))
    nested = [[_tile(rows, cols, payload, g + i) for i in range(count)]
              for g, (count, rows, cols, payload) in enumerate(spec["groups"])]
    return Program(sinks, name="memo-prop"), {"in": tokens_from_nested(nested, 1)}


def _token(token):
    """A token by value (tiles compare by identity)."""
    if isinstance(token, Data):
        tile = token.value
        data = None if tile.data is None else tile.to_array().tolist()
        return ("data", tile.rows, tile.cols, tile.dtype.name, data)
    if isinstance(token, Stop):
        return ("stop", token.level)
    assert isinstance(token, Done)
    return ("done",)


def _observe_run(program, inputs, hardware):
    """The report, per-op stats and outputs of a run, by value and in
    operator order (twins below are separate builds, with other names)."""
    report = simulate(program, inputs, hardware=hardware)
    per_op = [vars(stats).copy() for stats in report.metrics.per_op.values()]
    outputs = [[_token(t) for t in tokens] for tokens in report.outputs.values()]
    return report.to_dict(), per_op, outputs


def _observe(spec, built=None):
    program, inputs = built or _build(spec)
    return _observe_run(program, inputs, HardwareConfig(
        timing_model=spec["timing_model"], onchip_bandwidth=spec["onchip_bandwidth"]))


@contextmanager
def _counting():
    """Count the element, update and expansion costs computed inside."""
    counts = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_element_costs", "_accum_costs", "_expansion_costs"):
            def counting(*args, costs=getattr(compute, name)):
                counts.append(args[0].kind)
                return costs(*args)
            patch.setattr(compute, name, counting)
        yield counts


class TestSharedMemo:
    @settings(max_examples=40, deadline=None)
    @given(spec=programs)
    def test_memo_matches_uncached(self, spec):
        built = _build(spec)  # one program, run four ways
        # the first run starts from what earlier examples (other bandwidths,
        # hardware and placements) left in the memo
        with _counting() as first_counts:
            first = _observe(spec, built)
        with _counting() as second_counts:
            second = _observe(spec, built)  # every metadata-only element hits
        clear_step_cache()
        cleared = _observe(spec, built)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compute, "_fixed_key", lambda op, ctx: None)
            with _counting() as uncached_counts:
                uncached = _observe(spec, built)
        assert first == second == cleared == uncached
        assert len(second_counts) <= len(first_counts) <= len(uncached_counts)
        if not any(payload for *_, payload in spec["groups"]):
            assert second_counts == []

    def test_memo_stays_bounded(self, monkeypatch):
        spec = {"groups": [(4, 1, 4, False), (3, 2, 6, False), (2, 3, 4, False)],
                "stages": ["pack-rows", "split-rows", "scale"], "compute_bw": [64],
                "store": True, "timing_model": "roofline", "onchip_bandwidth": 64.0}
        built = _build(spec)
        clear_step_cache()
        want = _observe(spec, built)
        small = compute._CostMemo(maxsize=3)
        monkeypatch.setattr(compute, "_COST_MEMO", small)
        for _ in range(2):
            assert _observe(spec, built) == want
            assert small.size <= 3
            assert sum(len(table) for table in small.tables.values()) <= 3

    def test_clear_step_cache_empties_the_memo(self):
        spec = {"groups": [(3, 1, 4, False)], "stages": ["pack-rows"], "compute_bw": [64],
                "store": False, "timing_model": "roofline", "onchip_bandwidth": 64.0}
        _observe(spec)
        assert compute._COST_MEMO.size > 0
        clear_step_cache()
        assert compute._COST_MEMO.size == 0 and not compute._COST_MEMO.tables
        with _counting() as counts:
            _observe(spec)
        assert counts  # cold again: the run costs its elements afresh


#: equal to BF16 in name (and so in hash) but not in width: memo keys must
#: keep the two apart
WIDE_BF16 = ElemType("bf16", 4, np.float32)

#: one operator over (4, 32) metadata tiles; each twin below differs from its
#: sibling in one part of the memo key, and in the costs it yields
KERNEL = {"fn": "scale", "bw": 512, "load": False, "store": False,
          "timing_model": "roofline", "onchip_bandwidth": 64.0, "compute_tile": 16,
          "dtype": BF16}
KERNEL_FNS = {
    "scale": lambda: ("Map", Scale(2.0)),
    "row-sum": lambda: ("Map", RowSum()),
    "sum": lambda: ("Accum", SumAccum()),
    "split-1": lambda: ("FlatMap", RetileStreamify(1)),
    "split-2": lambda: ("FlatMap", RetileStreamify(2)),
}
TWINS = {
    "compute_bw": ({"fn": "row-sum", "bw": 1}, {"fn": "row-sum", "bw": 64}),
    "outputs_to_memory": ({"store": True}, {}),
    "inputs_from_memory": ({"load": True}, {}),
    "timing_model": ({"bw": 1, "timing_model": "detailed"}, {"bw": 1}),
    "onchip_bandwidth": ({"store": True, "onchip_bandwidth": 16.0}, {"store": True}),
    "compute_tile": ({"store": True, "timing_model": "detailed", "compute_tile": 8},
                     {"store": True, "timing_model": "detailed"}),
    "function parameters": ({"fn": "split-1"}, {"fn": "split-2"}),
    "accum compute_bw": ({"fn": "sum", "bw": 1}, {"fn": "sum", "bw": 64}),
    "dtype": ({"store": True, "dtype": WIDE_BF16}, {"store": True}),
    "accum dtype": ({"fn": "sum", "bw": 1, "dtype": WIDE_BF16}, {"fn": "sum", "bw": 1}),
    "flatmap dtype": ({"fn": "split-2", "store": True, "dtype": WIDE_BF16},
                      {"fn": "split-2", "store": True}),
}


def _kernel(overrides):
    """A built one-operator program and its hardware."""
    spec = {**KERNEL, **overrides}
    if spec["load"]:
        source = LinearOffChipLoad(in_mem_shape=(4, 96), tile_shape=(4, 32),
                                   dtype=spec["dtype"]).output
        inputs = {}
    else:
        source = InputStream(StreamShape([1, 1, 3]), TileType(4, 32, spec["dtype"]),
                             name="in").stream
        inputs = {"in": tokens_from_nested([[[Tile.meta(4, 32, spec["dtype"])] * 3]], 2)}
    kind, fn = KERNEL_FNS[spec["fn"]]()
    op = {"Map": Map, "Accum": Accum, "FlatMap": FlatMap}[kind]
    out = op(source, fn, compute_bw=spec["bw"]).output
    sinks = [out, LinearOffChipStore(out)] if spec["store"] else [out]
    hardware = HardwareConfig(timing_model=spec["timing_model"],
                              onchip_bandwidth=spec["onchip_bandwidth"],
                              compute_tile=spec["compute_tile"])
    return Program(sinks), inputs, hardware


class TestKeyParts:
    """Two operators alike but for one part of the key do not share costs."""

    @pytest.mark.parametrize("part", sorted(TWINS))
    def test_twins_are_costed_apart(self, part):
        first, second = (_kernel(overrides) for overrides in TWINS[part])
        clear_step_cache()
        cold = _observe_run(*second)
        clear_step_cache()
        assert _observe_run(*first) != _observe_run(*_kernel(TWINS[part][1]))
        # the memo now holds the sibling's costs: the twin must not take them
        assert _observe_run(*second) == cold


class TestShapeKeys:
    def test_keys_hold_no_elem_type(self):
        # a key hashes in C: an ElemType would hash through Python
        def flat(key):
            return [x for part in key for x in (flat(part) if type(part) is tuple
                                                 else [part])]

        tile, wide = Tile.meta(4, 32), Tile.meta(4, 32, WIDE_BF16)
        keys = [compute._shape_key([tile, wide]), compute._tile_key(tile),
                compute._accum_key(wide, tile)]
        assert not any(isinstance(part, ElemType) for key in keys for part in flat(key))

    def test_equal_dtypes_share_a_key_and_unequal_ones_do_not(self):
        twin = ElemType("bf16", 2, np.float32)
        assert twin == BF16 and twin is not BF16
        assert compute._tile_key(Tile.meta(4, 32, twin)) == compute._tile_key(Tile.meta(4, 32))
        assert compute._tile_key(Tile.meta(4, 32, WIDE_BF16)) != \
            compute._tile_key(Tile.meta(4, 32))


class TestCostKey:
    def test_parameter_free_functions_key_on_their_class(self):
        for cls in (RetileRow, RetileCol, SumAccum, Exp, RowSum):
            assert cls().cost_key() is cls

    def test_scalar_parameters_are_part_of_the_key(self):
        assert Scale(2.0).cost_key() == Scale(2.0).cost_key()
        assert Scale(2.0).cost_key() != Scale(3.0).cost_key()
        assert Matmul(True).cost_key() != Matmul(False).cost_key()
        assert RetileStreamify(2).cost_key() != SplitCols(2).cost_key()
        # nested functions key through their own cost keys
        assert MatmulAccum(True).cost_key() != MatmulAccum(False).cost_key()
        assert hash(MatmulAccum().cost_key()) == hash(MatmulAccum().cost_key())

    def test_other_state_has_no_key(self):
        scale = Scale(2.0)
        scale.table = [1, 2]
        assert scale.cost_key() is None
        packed = MatmulAccum()
        packed.matmul.lookup = {}
        assert packed.cost_key() is None

    def test_functions_without_a_key_skip_the_memo(self, monkeypatch):
        monkeypatch.setattr(RetileRow, "cost_key", lambda self: None)
        spec = {"groups": [(3, 1, 4, False)] * 2, "stages": ["pack-rows"],
                "compute_bw": [64], "store": False, "timing_model": "roofline",
                "onchip_bandwidth": 64.0}
        clear_step_cache()
        with _counting() as counts:
            _observe(spec)
        # the pack costs every row; the keyed re-opening FlatMap hits on its second group
        assert counts.count("Accum") == 6 and counts.count("FlatMap") == 1
