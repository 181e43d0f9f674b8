"""Decode attention with static and dynamic parallelization (Section 5.4).

During token generation, attention is memory-bound and its per-request cost is
proportional to the request's KV-cache length, which varies widely across a
batch.  The paper parallelizes the batch dimension across four spatial regions
and compares three work-distribution strategies (Figures 14, 15, 21):

* **static coarse-grained** — a fixed block of requests per region (16),
* **static interleaved** — round-robin assignment,
* **dynamic parallelization** — dispatch each request to whichever region
  becomes available next, using the Figure 16 feedback graph: a FlatMap seeds
  one initial assignment per region, an EagerMerge over the region outputs
  signals availability, and their merge drives the Partition selector.

Each region's pipeline streams the request's KV tiles from off-chip memory
(RandomOffChipLoad over a per-request address list), broadcasts the query row
over them (Expand), applies a fused score-and-weight attention tile function
and reduces over the request (Accum).  Softmax normalization is folded into
the fused tile function's FLOP count; the performance behaviour (bytes moved
and FLOPs per KV tile) matches the real computation, which is what the
parallelization study measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.builder import batch_dim, matrix_to_row_tokens, row_stream_input, selector_input
from ..core.dims import Dim
from ..core.dtypes import Address, AddressType, Selector, SelectorType, Tile, TileType
from ..core.errors import ConfigError
from ..core.graph import InputStream, Program, StreamHandle
from ..core.shape import StreamShape
from ..core.stream import Token, tokens_from_nested
from ..ops import (Accum, EagerMerge, Expand, FlatMap, Flatten, LinearOffChipStore,
                   Map, Partition, RandomOffChipLoad, Reassemble, Reshape)
from ..ops.functions import FlatMapFunction, MapFunction, SumAccum
from .configs import ModelConfig


class DecodeAttendTile(MapFunction):
    """Fused attention over one KV tile: ``softmax-weight(q · K_tile^T) · V_tile``.

    The function charges the FLOPs of both the score computation and the value
    weighting (4 * kv_rows * width per tile, plus the exponentials), and
    produces the request's partial output row.
    """

    name = "decode_attend_tile"

    def __call__(self, q: Tile, kv: Tile) -> Tile:
        if q.cols != kv.cols:
            raise ConfigError(f"query width {q.cols} must match the KV width {kv.cols}")
        if q.has_data and kv.has_data:
            scores = q.to_array() @ kv.to_array().T
            weights = np.exp(scores - scores.max())
            return Tile.from_array(weights @ kv.to_array(), q.dtype)
        return Tile.meta(1, kv.cols, q.dtype)

    def flops(self, q: Tile, kv: Tile) -> int:
        return 4 * kv.rows * kv.cols + 4 * kv.rows


class RoundRobinSeed(FlatMapFunction):
    """FlatMap function producing the initial round-robin region assignment (Fig. 16).

    ``rounds`` > 1 seeds several requests per region so that a region can load
    its next request while finishing the previous one (the availability signal
    then maintains that occupancy).
    """

    name = "round_robin_seed"

    def __init__(self, num_regions: int, rounds: int = 1):
        self.num_regions = int(num_regions)
        self.rounds = int(rounds)

    def __call__(self, _value) -> List[Selector]:
        return [Selector(region, self.num_regions)
                for _ in range(self.rounds)
                for region in range(self.num_regions)]


@dataclass
class AttentionConfig:
    """Configuration of the decode-attention parallelization experiment."""

    model: ModelConfig
    #: requests in the batch, or ``None`` for a symbolic batch that the
    #: runtime KV lengths bind (one program then serves every batch size)
    batch: Optional[int]
    #: "coarse", "interleave" or "dynamic"
    strategy: str = "interleave"
    num_regions: int = 4
    #: rows per KV tile streamed from off-chip memory
    kv_tile_rows: int = 128
    #: requests per region under the static coarse-grained strategy
    coarse_chunk: int = 16
    #: outstanding requests initially seeded per region under dynamic
    #: parallelization (keeps the pipeline busy across dispatch latency)
    initial_per_region: int = 2
    compute_bw: int = 256
    collect_output: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in ("coarse", "interleave", "dynamic"):
            raise ConfigError(f"unknown parallelization strategy {self.strategy!r}")
        if self.num_regions <= 0:
            raise ConfigError("num_regions must be positive")
        if self.kv_tile_rows <= 0:
            raise ConfigError("kv_tile_rows must be positive")

    @property
    def width(self) -> int:
        """Attention width: the KV head dimension the pipeline operates on."""
        return self.model.kv_dim

    def label(self) -> str:
        return f"attention_{self.model.name}_b{self.batch or 'B'}_{self.strategy}"


@dataclass
class AttentionProgram:
    """A built attention program plus its runtime input builders."""

    program: Program
    config: AttentionConfig
    output_name: Optional[str] = None

    def inputs(self, kv_lengths: Sequence[int],
               queries: Optional[np.ndarray] = None) -> Dict[str, List[Token]]:
        """Runtime token streams from per-request KV-cache lengths."""
        config = self.config
        batch = len(kv_lengths)
        if config.batch is not None and batch != config.batch:
            raise ConfigError(
                f"kv_lengths must cover the batch ({config.batch}), got {batch}")
        tokens: Dict[str, List[Token]] = {
            "q": matrix_to_row_tokens(queries, num_rows=batch, row_width=config.width),
            "kv_addr": _address_tokens(kv_lengths, config.kv_tile_rows),
        }
        if config.strategy == "dynamic":
            tokens["start"] = tokens_from_nested([Tile.meta(1, 1, "i32")], rank=0)
        else:
            tokens["assign"] = _static_assignment_tokens(config, batch)
        return tokens


def _address_tokens(kv_lengths: Sequence[int], kv_tile_rows: int) -> List[Token]:
    """Rank-1 stream: one group of KV-tile addresses per request."""
    groups: List[List[Address]] = []
    next_tile = 0
    for length in kv_lengths:
        tiles = max(1, -(-int(length) // kv_tile_rows))
        groups.append([Address(next_tile + t) for t in range(tiles)])
        next_tile += tiles
    return tokens_from_nested(groups, rank=1)


def _static_assignment(config: AttentionConfig, batch: int) -> List[int]:
    if config.strategy == "coarse":
        return [min(i // config.coarse_chunk, config.num_regions - 1)
                for i in range(batch)]
    return [i % config.num_regions for i in range(batch)]


def _static_assignment_tokens(config: AttentionConfig, batch: int) -> List[Token]:
    values = [Selector(region, config.num_regions)
              for region in _static_assignment(config, batch)]
    return tokens_from_nested(values, rank=0)


def _region_pipeline(q_branch: StreamHandle, addr_branch: StreamHandle,
                     config: AttentionConfig, prefix: str) -> StreamHandle:
    """One parallel region: stream KV tiles, attend, reduce per request."""
    kv = RandomOffChipLoad(addr_branch, tile_shape=(config.kv_tile_rows, config.width),
                           name=f"{prefix}_kv_load")
    q_flat = Flatten(q_branch, 0, 1, name=f"{prefix}_q_flat")
    q_rep = Expand(q_flat.output, kv.output, rank=1, name=f"{prefix}_q_expand")
    attend = Map((q_rep.output, kv.output), DecodeAttendTile(),
                 compute_bw=config.compute_bw, name=f"{prefix}_attend")
    reduced = Accum(attend.output, SumAccum(), rank=1, compute_bw=0,
                    name=f"{prefix}_reduce")
    return reduced.output


def build_attention_layer(config: AttentionConfig) -> AttentionProgram:
    """Build the decode-attention program for the selected parallelization strategy."""
    q = row_stream_input("q", config.batch, config.width)
    addr_shape = StreamShape([batch_dim(config.batch), Dim.ragged(name="L")])
    kv_addr = InputStream(addr_shape, AddressType(), name="kv_addr").stream

    if config.strategy == "dynamic":
        # Figure 16: seed one assignment per region, then dispatch on availability.
        start = InputStream(StreamShape([1]), TileType(1, 1, "i32"), name="start").stream
        seed_rounds = max(1, config.initial_per_region)
        seed = FlatMap(start, RoundRobinSeed(config.num_regions, rounds=seed_rounds),
                       rank=1, compute_bw=0,
                       expansion=[config.num_regions * seed_rounds], name="seed",
                       out_dtype=SelectorType(config.num_regions))
        selector = Flatten(seed.output, 0, 1, name="seed_flat").output
    else:
        selector = selector_input("assign", config.batch, config.num_regions)

    q_part = Partition(q, selector, rank=1, num_consumers=config.num_regions,
                       name="route_q")
    addr_part = Partition(kv_addr, selector, rank=1, num_consumers=config.num_regions,
                          name="route_addr")

    q_branches, addr_branches = q_part.outputs, addr_part.outputs
    region_outputs = [
        _region_pipeline(q_branches[r], addr_branches[r], config, f"region{r}")
        for r in range(config.num_regions)
    ]

    if config.strategy == "dynamic":
        gather = EagerMerge(region_outputs, rank=0, name="gather_dynamic")
        # Availability feedback: the gather's selector output says which region
        # just finished a request; merged with the seed it drives the Partitions.
        availability = EagerMerge([selector, gather.selector], rank=0,
                                  name="dispatch_selector")
        q_part.inputs[1] = availability.data
        addr_part.inputs[1] = availability.data
        out_handle = gather.data
    else:
        row_chunks = []
        for r, handle in enumerate(region_outputs):
            chunks = Reshape(handle, chunk_size=1, level=0, pad=Tile.meta(1, config.width),
                             name=f"region{r}_chunks")
            row_chunks.append(chunks.data)
        gather = Reassemble(row_chunks, selector, rank=1, name="gather")
        out_handle = gather.output

    store = LinearOffChipStore(out_handle, name="store_out")
    sinks: List = [store]
    output_name = None
    if config.collect_output:
        sinks.append(out_handle)
        output_name = out_handle.name
    program = Program(sinks, name=config.label())
    return AttentionProgram(program=program, config=config, output_name=output_name)
