"""Executors for the dynamic routing and merging operators.

Partition, Reassemble and EagerMerge move *chunks*: the data up to (and
including) the first stop token of level ``rank``.  Reassemble collects the
selected inputs of each selector element in arrival order (approximated by the
earliest-ready head token) without interleaving chunks; EagerMerge forwards
whichever input has a chunk available first and reports the origin of every
chunk on its selector output.
"""

from __future__ import annotations

from typing import List, Sequence

from ...core.dtypes import Selector
from ...core.errors import StreamProtocolError
from ...core.stream import DONE, Data, Done, Stop, Token
from ...ops.routing import EagerMerge, Partition, Reassemble
from ..channel import Channel
from ..engine import MISS
from .common import OpContext, OutputBuilder, inline_effects, push_all, push_tokens


def _selected_indices(value, num_targets: int) -> List[int]:
    if isinstance(value, Selector):
        return list(value.indices)
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    raise StreamProtocolError(f"cannot interpret {value!r} as a selector over {num_targets}")


def partition_executor(op: Partition, ins: Sequence[Channel],
                       outs: Sequence[Sequence[Channel]], ctx: OpContext):
    data_channel, selector_channel = ins
    builders = [OutputBuilder() for _ in range(op.num_consumers)]
    input_done = False
    pop, _, push, tick, _ = inline_effects(ctx)
    while True:
        token = pop(selector_channel)
        if token is MISS:
            token = yield ("pop", selector_channel)
        if isinstance(token, Done):
            for consumer, builder in enumerate(builders):
                effect = push(outs[consumer], builder.done())
                if effect is not None:
                    yield effect
            return
        if isinstance(token, Stop):
            # the selector's outer structure is flattened into each branch's
            # fresh dynamic outer dimension
            continue
        targets = _selected_indices(token.value, op.num_consumers)
        # collect one chunk: everything up to the first stop of level >= rank
        chunk: List[Token] = []
        while not input_done:
            item = pop(data_channel)
            if item is MISS:
                item = yield ("pop", data_channel)
            if isinstance(item, Done):
                input_done = True
                break
            if isinstance(item, Stop) and item.level >= op.rank:
                break
            chunk.append(item)
        if input_done and not chunk:
            # The routed stream is exhausted even though selectors keep coming.
            # This happens in dynamic parallelization (Figure 16), where the
            # availability feedback produces more selectors than there is work:
            # close every branch so downstream pipelines can finish.
            for consumer, builder in enumerate(builders):
                effect = push(outs[consumer], builder.done())
                if effect is not None:
                    yield effect
            return
        ctx.record_element(1.0)
        effect = tick(1.0)
        if effect is not None:
            yield effect
        for target in targets:
            builder = builders[target]
            tokens: List[Token] = []
            for item in chunk:
                if isinstance(item, Data):
                    tokens.extend(builder.data(item.value))
                elif isinstance(item, Stop):
                    builder.stop(item.level)
            builder.stop(op.rank)
            # Flush the chunk terminator immediately: the next token for this
            # branch may be arbitrarily far away (or never come), and downstream
            # pipelines — including the dynamic-parallelization feedback loop —
            # must observe the chunk boundary to make progress.
            tokens.extend(builder.flush())
            effect = push(outs[target], tokens)
            if effect is not None:
                yield effect


def reassemble_executor(op: Reassemble, ins: Sequence[Channel],
                        outs: Sequence[Sequence[Channel]], ctx: OpContext):
    data_channels = list(ins[:-1])
    selector_channel = ins[-1]
    out_channels = outs[0] if outs else []
    builder = OutputBuilder()
    rank = op.rank
    pop, pop_any, push, tick, _ = inline_effects(ctx)
    while True:
        token = pop(selector_channel)
        if token is MISS:
            token = yield ("pop", selector_channel)
        if isinstance(token, Done):
            effect = push(out_channels, builder.done())
            if effect is not None:
                yield effect
            return
        if isinstance(token, Stop):
            builder.stop(token.level + op.rank + 1)
            continue
        remaining = _selected_indices(token.value, op.num_producers)
        while remaining:
            if len(remaining) == 1:
                index = remaining[0]
                item = None
                remaining = ()
            else:
                # collect from whichever selected input has data available first
                chans = [data_channels[i] for i in remaining]
                picked = pop_any(chans)
                if picked is MISS:
                    picked = yield ("pop_any", chans)
                which, item = picked
                index = remaining[which]
                remaining = [i for i in remaining if i != index]
            # forward one chunk: data up to the first stop >= rank (or Done)
            channel = data_channels[index]
            tokens: List[Token] = []
            while True:
                if item is None:
                    item = pop(channel)
                    if item is MISS:
                        item = yield ("pop", channel)
                if isinstance(item, Done):
                    break
                if isinstance(item, Stop):
                    if item.level >= rank >= 1:
                        break
                    if item.level < rank:
                        builder.stop(item.level)
                    # other stops only occur for rank == 0 streams; they
                    # carry no data and are dropped
                else:
                    tokens.extend(builder.data(item.value))
                    if rank == 0:
                        break
                item = None
            if rank >= 1:
                builder.stop(rank)
            effect = push(out_channels, tokens)
            if effect is not None:
                yield effect
        ctx.record_element(1.0)
        effect = tick(1.0)
        if effect is not None:
            yield effect
        # after draining every selected input, the group closes one level up
        builder.stop(op.rank + 1)


def eager_merge_executor(op: EagerMerge, ins: Sequence[Channel],
                         outs: Sequence[Sequence[Channel]], ctx: OpContext):
    data_outs = outs[0] if outs else []
    selector_outs = outs[1] if len(outs) > 1 else []
    builder = OutputBuilder()
    live = list(range(op.num_producers))
    rank = op.rank
    pop = inline_effects(ctx)[0]
    while live:
        chans = [ins[i] for i in live]
        which, item = yield ("pop_any", chans)
        index = live[which]
        if isinstance(item, Done):
            live.remove(index)
            continue
        if isinstance(item, Stop):
            # outer structure of the input streams is flattened away
            continue
        # forward one chunk: data up to the first stop >= rank (or Done)
        channel = ins[index]
        tokens: List[Token] = []
        finished = False
        while True:
            if item is None:
                item = pop(channel)
                if item is MISS:
                    item = yield ("pop", channel)
            if isinstance(item, Done):
                finished = True
                break
            if isinstance(item, Stop):
                if item.level >= rank >= 1:
                    break
                if item.level < rank:
                    builder.stop(item.level)
                # other stops only occur for rank == 0 streams (dropped)
            else:
                tokens.extend(builder.data(item.value))
                if rank == 0:
                    break
            item = None
        if rank >= 1:
            builder.stop(rank)
        ctx.record_element(1.0)
        # As in Partition, chunk terminators are flushed eagerly so consumers
        # (e.g. the availability loop of dynamic parallelization) see them now.
        tokens.extend(builder.flush())
        yield ("tick_push_many", 1.0, data_outs, tokens)
        if selector_outs:
            yield push_all(selector_outs, Data(Selector(index, op.num_producers)))
        if finished:
            live.remove(index)
    yield push_tokens(data_outs, builder.done())
    if selector_outs:
        yield push_all(selector_outs, DONE)
