"""Executors for the shape operators: Flatten, Reshape, Promote, Expand, Repeat, Zip.

Shape operators only manipulate stop tokens; data values pass through
untouched (Reshape additionally inserts padding values and emits the padding
indicator stream).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...core.dtypes import TupleValue
from ...core.errors import StreamProtocolError
from ...core.stream import DONE, Data, Done, Stop, stop_token
from ...ops.shape_ops import Expand, Flatten, Promote, Repeat, Reshape, Zip
from ..channel import Channel
from ..engine import MISS
from .common import OpContext, OutputBuilder, inline_effects, push_all, push_tokens


def flatten_executor(op: Flatten, ins: Sequence[Channel],
                     outs: Sequence[Sequence[Channel]], ctx: OpContext):
    out_channels = outs[0] if outs else []
    channel = ins[0]
    span = op.max_level - op.min_level
    pop, _, push, _, _ = inline_effects(ctx)
    while True:
        token = pop(channel)
        if token is MISS:
            token = yield ("pop", channel)
        if isinstance(token, Data):
            out = token
        elif isinstance(token, Stop):
            level = token.level
            if level <= op.min_level:
                out = token
            elif level <= op.max_level:
                continue  # interior boundaries of the flattened range disappear
            else:
                out = stop_token(level - span)
        elif isinstance(token, Done):
            effect = push(out_channels, (DONE,))
            if effect is not None:
                yield effect
            return
        effect = push(out_channels, (out,))
        if effect is not None:
            yield effect


def reshape_executor(op: Reshape, ins: Sequence[Channel],
                     outs: Sequence[Sequence[Channel]], ctx: OpContext):
    # Only data elements and the final Done produce tokens: a builder's stop
    # just folds into its pending boundary, so stops push nothing, and a port
    # without consumers (often the padding indicator) is never pushed to.
    data_outs = outs[0] if outs else []
    pad_outs = outs[1] if len(outs) > 1 else []
    channel = ins[0]
    data_builder = OutputBuilder()
    pad_builder = OutputBuilder()
    pop, _, push, _, _ = inline_effects(ctx)

    def stop(level: int) -> None:
        data_builder.stop(level)
        pad_builder.stop(level)

    if op.level == 0:
        count = 0
        while True:
            token = pop(channel)
            if token is MISS:
                token = yield ("pop", channel)
            if isinstance(token, Data):
                if data_outs:
                    effect = push(data_outs, data_builder.data(token.value))
                    if effect is not None:
                        yield effect
                if pad_outs:
                    effect = push(pad_outs, pad_builder.data(False))
                    if effect is not None:
                        yield effect
                count += 1
                if count == op.chunk_size:
                    stop(1)
                    count = 0
            elif isinstance(token, (Stop, Done)):
                if count > 0:
                    while count < op.chunk_size:
                        if data_outs:
                            effect = push(data_outs, data_builder.data(op.pad))
                            if effect is not None:
                                yield effect
                        if pad_outs:
                            effect = push(pad_outs, pad_builder.data(True))
                            if effect is not None:
                                yield effect
                        count += 1
                    count = 0
                    stop(1)
                if isinstance(token, Stop):
                    stop(token.level + 1)
                else:
                    break
    else:
        groups = 0
        while True:
            token = pop(channel)
            if token is MISS:
                token = yield ("pop", channel)
            if isinstance(token, Data):
                if data_outs:
                    effect = push(data_outs, data_builder.data(token.value))
                    if effect is not None:
                        yield effect
                if pad_outs:
                    effect = push(pad_outs, pad_builder.data(False))
                    if effect is not None:
                        yield effect
            elif isinstance(token, Stop):
                if token.level < op.level:
                    stop(token.level)
                elif token.level == op.level:
                    groups += 1
                    if groups == op.chunk_size:
                        stop(op.level + 1)
                        groups = 0
                    else:
                        stop(op.level)
                else:
                    groups = 0
                    stop(token.level + 1)
            elif isinstance(token, Done):
                break
    if data_outs:
        effect = push(data_outs, data_builder.done())
        if effect is not None:
            yield effect
    if pad_outs:
        effect = push(pad_outs, pad_builder.done())
        if effect is not None:
            yield effect


def promote_executor(op: Promote, ins: Sequence[Channel],
                     outs: Sequence[Sequence[Channel]], ctx: OpContext):
    out_channels = outs[0] if outs else []
    channel = ins[0]
    held: Optional[int] = None
    saw_data = False
    pop, _, push, _, _ = inline_effects(ctx)
    while True:
        token = pop(channel)
        if token is MISS:
            token = yield ("pop", channel)
        if isinstance(token, Data):
            if held is not None:
                effect = push(out_channels, (stop_token(held),))
                if effect is not None:
                    yield effect
                held = None
            saw_data = True
            effect = push(out_channels, (token,))
            if effect is not None:
                yield effect
        elif isinstance(token, Stop):
            if held is not None:
                effect = push(out_channels, (stop_token(held),))
                if effect is not None:
                    yield effect
            held = token.level
        elif isinstance(token, Done):
            if held is not None:
                effect = push(out_channels, (stop_token(held + 1),))
                if effect is not None:
                    yield effect
            elif saw_data:
                effect = push(out_channels, (stop_token(1),))
                if effect is not None:
                    yield effect
            effect = push(out_channels, (DONE,))
            if effect is not None:
                yield effect
            return


def expand_executor(op: Expand, ins: Sequence[Channel],
                    outs: Sequence[Sequence[Channel]], ctx: OpContext):
    out_channels = outs[0] if outs else []
    data_channel, ref_channel = ins
    current = None
    while True:
        token = yield ("pop", ref_channel)
        if isinstance(token, Data):
            if current is None:
                item = yield ("pop", data_channel)
                while isinstance(item, Stop):
                    item = yield ("pop", data_channel)
                if isinstance(item, Done):
                    raise StreamProtocolError(
                        f"{ctx.op_name}: input stream exhausted before the reference stream")
                current = item.value
            yield push_all(out_channels, Data(current))
        elif isinstance(token, Stop):
            if token.level >= op.rank:
                current = None
            yield push_all(out_channels, token)
        elif isinstance(token, Done):
            yield push_all(out_channels, DONE)
            return


def repeat_executor(op: Repeat, ins: Sequence[Channel],
                    outs: Sequence[Sequence[Channel]], ctx: OpContext):
    out_channels = outs[0] if outs else []
    channel = ins[0]
    builder = OutputBuilder()
    while True:
        token = yield ("pop", channel)
        if isinstance(token, Data):
            tokens = []
            for _ in range(op.count):
                tokens.extend(builder.data(token.value))
            builder.stop(1)
            yield push_tokens(out_channels, tokens)
        elif isinstance(token, Stop):
            builder.stop(token.level + 1)
        elif isinstance(token, Done):
            yield push_tokens(out_channels, builder.done())
            return


def zip_executor(op: Zip, ins: Sequence[Channel],
                 outs: Sequence[Sequence[Channel]], ctx: OpContext):
    out_channels = outs[0] if outs else []
    while True:
        a, b = yield ("pop_each", ins)
        if isinstance(a, Done) or isinstance(b, Done):
            yield push_all(out_channels, DONE)
            return
        if isinstance(a, Stop) and isinstance(b, Stop):
            yield push_all(out_channels, stop_token(max(a.level, b.level)))
            continue
        if isinstance(a, Data) and isinstance(b, Data):
            yield push_all(out_channels, Data(TupleValue([a.value, b.value])))
            continue
        raise StreamProtocolError(
            f"{ctx.op_name}: zipped streams have mismatched structure ({a!r} vs {b!r})")
