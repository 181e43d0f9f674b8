"""Executors for the higher-order operators: Map, Accum, Scan, FlatMap.

Each data element is charged the Roofline latency of Section 4.3 —
``max(in_bytes / onchip_bw, flops / compute_bw, out_bytes / onchip_bw)`` —
where the memory terms only apply when the operator's inputs/outputs actually
cross on-chip memory (determined during lowering).

Token movement completes inline where the engine allows (see
:func:`~repro.sim.executors.common.inline_effects`) and otherwise uses the
batched effects: multi-input operators pop one aligned token per input in a
single ``pop_each`` round-trip, and output runs are pushed as one run.

The costs of a metadata-only element (its result, flops, cycles and on-chip
bytes) depend on nothing but its input shapes and a few fixed facts of the
operator, so Map, Accum and FlatMap share them across runs through one
bounded process-wide memo (:data:`_COST_MEMO`).  The fixed part of its key is
built once per executor: the executor kind, the function's
:meth:`~repro.ops.functions.MapFunction.cost_key`, ``compute_bw``, the
context's memory placement and the hardware fields the cost reads.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from ...core.dtypes import Tile, TupleValue, value_nbytes
from ...core.errors import StreamProtocolError
from ...core.stream import DONE, Data, Done, Stop, Token, stop_token
from ...ops.functions import Matmul, MatmulAccum
from ...ops.higher_order import Accum, FlatMap, Map, Scan
from ..channel import Channel
from ..engine import MISS
from .common import OpContext, OutputBuilder, inline_effects, matmul_onchip_bytes, push_all


class _CostMemo:
    """Element costs shared by every run in the process, bounded.

    One table per fixed key (see :func:`_fixed_key`) maps input shapes to
    costs.  When the entries reach ``maxsize`` every table is emptied, so
    memory stays bounded; results never depend on what the memo holds.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.size = 0
        self.tables: Dict[Hashable, dict] = {}

    def table(self, fixed: Optional[Hashable]) -> Optional[dict]:
        """The shared table of ``fixed``, or None when there is no key."""
        if fixed is None:
            return None
        table = self.tables.get(fixed)
        if table is None:
            table = self.tables[fixed] = {}
        return table

    def store(self, table: dict, key: Hashable, costs: tuple) -> None:
        if self.size >= self.maxsize:
            self.clear()
        table[key] = costs
        self.size += 1

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        size = self.size
        for table in self.tables.values():
            table.clear()
        self.tables.clear()
        self.size = 0
        return size


#: the process-wide element-cost memo (one cold exact serve holds about 1,000)
_COST_MEMO = _CostMemo(maxsize=1 << 16)


def clear_cost_memo() -> int:
    """Empty the shared element-cost memo; returns its entry count."""
    return _COST_MEMO.clear()


def _fixed_key(op, ctx: OpContext) -> Optional[tuple]:
    """The per-executor part of the memo key, or None if ``op.fn`` has none.

    Everything an element's costs depend on besides its input shapes: the
    executor kind (each charges a different roofline), the function, the
    allocated compute bandwidth, the memory placement and the hardware fields
    :meth:`OpContext.roofline_cycles` and the on-chip requirement read (the
    config itself is an unhashable dataclass).
    """
    fn = op.fn.cost_key()
    if fn is None:
        return None
    hardware = ctx.hardware
    return (op.kind, fn, op.compute_bw, ctx.inputs_from_memory, ctx.outputs_to_memory,
            hardware.timing_model, hardware.onchip_bandwidth, hardware.compute_tile)


def map_executor(op: Map, ins: Sequence[Channel], outs: Sequence[Sequence[Channel]],
                 ctx: OpContext):
    out_channels = outs[0] if outs else []
    single = ins[0] if len(ins) == 1 else None
    pop, _, push, _, tick_push = inline_effects(ctx)
    #: input shapes -> element costs, for metadata-only inputs (whose result,
    #: flops and cycles depend on nothing but their shapes)
    memo = _COST_MEMO.table(_fixed_key(op, ctx))
    store = _COST_MEMO.store
    #: the largest on-chip requirement recorded so far (a running max)
    onchip = -1
    while True:
        if single is not None:
            first = pop(single)
            if first is MISS:
                first = yield ("pop", single)
            tokens = (first,)
        else:
            tokens = yield ("pop_each", ins)
            first = tokens[0]
        if isinstance(first, Done):
            effect = push(out_channels, (DONE,))
            if effect is not None:
                yield effect
            return
        if isinstance(first, Stop):
            levels = [t.level for t in tokens if isinstance(t, Stop)]
            if len(levels) != len(tokens):
                raise StreamProtocolError(
                    f"{ctx.op_name}: input streams desynchronized (stop vs data)")
            effect = push(out_channels, (stop_token(max(levels)),))
            if effect is not None:
                yield effect
            continue
        values = []
        for token in tokens:
            if not isinstance(token, Data):
                raise StreamProtocolError(
                    f"{ctx.op_name}: input streams desynchronized (data vs control)")
            values.append(token.value)
        key = _shape_key(values) if memo is not None else None
        costs = memo.get(key) if key is not None else None
        if costs is None:
            costs = _element_costs(op, ctx, values)
            if key is not None:
                store(memo, key, costs)
        result, flops, cycles, nbytes = costs
        if nbytes is not None and nbytes > onchip:
            ctx.record_onchip(nbytes)
            onchip = nbytes
        ctx.record_element(cycles, flops)
        effect = tick_push(cycles, out_channels, (Data(result),))
        if effect is not None:
            yield effect


def _shape_key(values) -> Optional[tuple]:
    """The memo key of metadata-only tile inputs, or None if any carries data.

    A tile's dtype enters as its :attr:`~repro.core.dtypes.ElemType.key`, so
    the key hashes in C."""
    key = []
    for value in values:
        if type(value) is not Tile or value.data is not None:
            return None
        key.append((value.rows, value.cols, value.dtype.key))
    return tuple(key)


def _tile_key(value) -> Optional[tuple]:
    """The memo key of one metadata-only tile, or None."""
    if type(value) is not Tile or value.data is not None:
        return None
    return (value.rows, value.cols, value.dtype.key)


def _element_costs(op: Map, ctx: OpContext, values: list) -> tuple:
    """``(result, flops, cycles, on-chip bytes or None)`` of one Map element."""
    result = op.fn(*values)
    flops = op.fn.flops(*values)
    in_bytes = sum(value_nbytes(v) for v in values)
    out_bytes = value_nbytes(result)
    cycles = ctx.roofline_cycles(in_bytes, flops, out_bytes, op.compute_bw)
    onchip = None
    if isinstance(op.fn, Matmul) and isinstance(values[0], Tile) and isinstance(values[-1], Tile):
        onchip = matmul_onchip_bytes(values[0], values[-1], None, ctx.hardware.compute_tile)
    return result, flops, cycles, onchip


def accum_executor(op: Accum, ins: Sequence[Channel], outs: Sequence[Sequence[Channel]],
                   ctx: OpContext):
    out_channels = outs[0] if outs else []
    channel = ins[0]
    state = op.fn.init()
    saw_value = False
    pop, _, push, tick, tick_push = inline_effects(ctx)
    #: (value shape, state shape) -> update costs, for metadata-only tiles
    memo = _COST_MEMO.table(_fixed_key(op, ctx))
    store = _COST_MEMO.store
    #: the largest on-chip requirement recorded so far (a running max)
    onchip = -1
    while True:
        token = pop(channel)
        if token is MISS:
            token = yield ("pop", channel)
        if isinstance(token, Data):
            value = token.value
            key = _accum_key(value, state) if memo is not None else None
            costs = memo.get(key) if key is not None else None
            if costs is None:
                costs = _accum_costs(op, ctx, value, state)
                if key is not None:
                    store(memo, key, costs)
            state, flops, cycles, nbytes = costs
            if nbytes > onchip:
                ctx.record_onchip(nbytes)
                onchip = nbytes
            effect = tick(cycles)
            if effect is not None:
                yield effect
            ctx.record_element(cycles, flops)
            saw_value = True
        elif isinstance(token, Stop):
            if token.level >= op.rank:
                if saw_value:
                    out_bytes = value_nbytes(state) if state is not None else 0
                    cycles = ctx.roofline_cycles(0.0, 0.0, out_bytes, op.compute_bw)
                    effect = tick_push(cycles, out_channels, (Data(state),))
                    if effect is not None:
                        yield effect
                if token.level > op.rank:
                    effect = push(out_channels, (stop_token(token.level - op.rank),))
                    if effect is not None:
                        yield effect
                state = op.fn.init()
                saw_value = False
            # stops below the reduction rank are internal to the group
        elif isinstance(token, Done):
            if saw_value:
                # streams that end without a trailing top-level stop
                effect = push(out_channels, (Data(state),))
                if effect is not None:
                    yield effect
            effect = push(out_channels, (DONE,))
            if effect is not None:
                yield effect
            return


def _accum_key(value, state) -> Optional[tuple]:
    """The memo key of a metadata-only value (a tile, or a tuple of tiles as
    MatmulAccum takes) and state, or None."""
    if type(value) is Tile:
        if value.data is not None:
            return None
        value_key = (value.rows, value.cols, value.dtype.key)
    elif type(value) is TupleValue:
        value_key = _shape_key(value.elements)
        if value_key is None:
            return None
    else:
        return None
    if state is None:
        return (value_key, None)
    if type(state) is not Tile or state.data is not None:
        return None
    return (value_key, (state.rows, state.cols, state.dtype.key))


def _accum_costs(op: Accum, ctx: OpContext, value, state) -> tuple:
    """``(new state, flops, cycles, on-chip bytes)`` of one Accum update."""
    flops = op.fn.flops(value, state)
    new_state = op.fn(value, state)
    cycles = ctx.roofline_cycles(value_nbytes(value), flops, 0.0, op.compute_bw)
    if isinstance(op.fn, MatmulAccum) and isinstance(value, TupleValue):
        onchip = matmul_onchip_bytes(
            value[0], value[1], new_state if isinstance(new_state, Tile) else None,
            ctx.hardware.compute_tile)
    else:
        # Accum keeps its (possibly dynamically sized) accumulator on chip.
        onchip = value_nbytes(new_state) if new_state is not None else 0
    return new_state, flops, cycles, onchip


def scan_executor(op: Scan, ins: Sequence[Channel], outs: Sequence[Sequence[Channel]],
                  ctx: OpContext):
    out_channels = outs[0] if outs else []
    channel = ins[0]
    state = op.fn.init()
    while True:
        token = yield ("pop", channel)
        if isinstance(token, Data):
            value = token.value
            flops = op.fn.flops(value, state)
            state = op.fn(value, state)
            in_bytes = value_nbytes(value)
            out_bytes = value_nbytes(state) if state is not None else 0
            cycles = ctx.roofline_cycles(in_bytes, flops, out_bytes, op.compute_bw)
            ctx.record_onchip(out_bytes)
            ctx.record_element(cycles, flops)
            yield ("tick_push_all", cycles, out_channels, Data(state))
        elif isinstance(token, Stop):
            if token.level >= op.rank:
                state = op.fn.init()
            yield push_all(out_channels, token)
        elif isinstance(token, Done):
            yield push_all(out_channels, DONE)
            return


def _emit_expansion(builder: OutputBuilder, pieces, depth: int) -> List[Token]:
    """Serialize a (possibly nested) expansion produced by a FlatMap function.

    ``pieces`` is nested ``depth`` levels deep (``depth == 1`` means a flat list
    of values).  The caller closes the whole expansion with ``stop(rank)``.
    """
    tokens: List[Token] = []
    if depth <= 1:
        for value in pieces:
            tokens.extend(builder.data(value))
        return tokens
    for group in pieces:
        tokens.extend(_emit_expansion(builder, group, depth - 1))
        builder.stop(depth - 1)
    return tokens


def flatmap_executor(op: FlatMap, ins: Sequence[Channel], outs: Sequence[Sequence[Channel]],
                     ctx: OpContext):
    out_channels = outs[0] if outs else []
    channel = ins[0]
    builder = OutputBuilder()
    pop, _, push, _, tick_push = inline_effects(ctx)
    #: input shape -> expansion costs, for metadata-only tiles
    memo = _COST_MEMO.table(_fixed_key(op, ctx))
    store = _COST_MEMO.store
    while True:
        token = pop(channel)
        if token is MISS:
            token = yield ("pop", channel)
        if isinstance(token, Data):
            value = token.value
            key = _tile_key(value) if memo is not None else None
            costs = memo.get(key) if key is not None else None
            if costs is None:
                costs = _expansion_costs(op, ctx, value)
                if key is not None:
                    store(memo, key, costs)
            pieces, flops, cycles = costs
            ctx.record_element(cycles, flops)
            # Each input element expands into `rank` new innermost dimensions;
            # its expansion is closed by a stop of level `rank`.
            tokens = _emit_expansion(builder, pieces, op.rank)
            builder.stop(op.rank)
            effect = tick_push(cycles, out_channels, tokens)
            if effect is not None:
                yield effect
        elif isinstance(token, Stop):
            builder.stop(token.level + op.rank)
        elif isinstance(token, Done):
            effect = push(out_channels, builder.done())
            if effect is not None:
                yield effect
            return


def _expansion_costs(op: FlatMap, ctx: OpContext, value) -> tuple:
    """``(pieces, flops, cycles)`` of one FlatMap element."""
    pieces = op.fn(value)
    flops = op.fn.flops(value)
    out_bytes = sum(value_nbytes(p) for p in _flatten_pieces(pieces))
    cycles = ctx.roofline_cycles(value_nbytes(value), flops, out_bytes, op.compute_bw)
    return pieces, flops, cycles


def _flatten_pieces(pieces) -> List:
    if isinstance(pieces, (list, tuple)):
        out: List = []
        for piece in pieces:
            out.extend(_flatten_pieces(piece))
        return out
    return [pieces]
