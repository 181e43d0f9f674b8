"""The simplified MoE of Section 3.3 (Listing 1, Figures 6-7).

A two-expert (or N-expert) MoE layer where each expert is a single matrix
multiplication.  Input rows are dynamically routed to one of the experts with
Partition, each expert packs its rows into statically sized tiles (padding the
last one), multiplies by its weight matrix loaded from off-chip memory, unpacks
the result back to rows, and Reassemble gathers the rows in the original
order.

This module exists both as the paper's worked example (used by
``examples/simple_moe.py``) and as the integration-test anchor for the whole
operator/simulator stack: its functional output is checked against a plain
numpy reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.builder import matrix_to_row_tokens, row_stream_input, selector_input, \
    selectors_to_tokens
from ..core.dtypes import Tile
from ..core.errors import ConfigError
from ..core.graph import Program, StreamHandle
from ..core.stream import Token
from ..ops import (Accum, FlatMap, Flatten, LinearOffChipLoadRef, Map, Partition,
                   Promote, Reassemble, Repeat, Reshape)
from ..ops.functions import Matmul, RetileCol, RetileRow, RetileStreamify


@dataclass
class SimpleMoEConfig:
    """Parameters of the simplified MoE example."""

    num_rows: int = 10
    hidden_dim: int = 64
    out_dim: int = 256
    num_experts: int = 2
    #: static tile size for the batch dimension; ``None`` selects dynamic tiling
    tile_rows: Optional[int] = 4
    #: weight column-tile width (the [64, 64] tiles of Figure 2)
    weight_tile_cols: int = 64
    compute_bw: int = 1024

    def __post_init__(self) -> None:
        if self.out_dim % self.weight_tile_cols != 0:
            raise ConfigError("out_dim must be a multiple of weight_tile_cols")
        if self.tile_rows is not None and self.tile_rows <= 0:
            raise ConfigError("tile_rows must be positive (or None for dynamic tiling)")

    @property
    def weight_col_tiles(self) -> int:
        return self.out_dim // self.weight_tile_cols

    @property
    def dynamic_tiling(self) -> bool:
        return self.tile_rows is None


@dataclass
class SimpleMoEProgram:
    """A built program plus everything needed to run and check it."""

    program: Program
    config: SimpleMoEConfig
    weights: List[np.ndarray]
    output_name: str = "moe_out"

    def inputs(self, activations: np.ndarray, routing: Sequence[int]) -> Dict[str, List[Token]]:
        """Build the runtime token streams for the program's input nodes."""
        activations = np.asarray(activations, dtype=np.float32)
        if activations.shape != (self.config.num_rows, self.config.hidden_dim):
            raise ConfigError(
                f"activations must be ({self.config.num_rows}, {self.config.hidden_dim}), "
                f"got {activations.shape}")
        if len(routing) != self.config.num_rows:
            raise ConfigError("routing must assign every row to an expert")
        return {
            "x": matrix_to_row_tokens(activations),
            "router": selectors_to_tokens(list(routing), self.config.num_experts),
        }

    def reference(self, activations: np.ndarray, routing: Sequence[int]) -> np.ndarray:
        """Plain numpy reference: each row multiplied by its expert's weights."""
        activations = np.asarray(activations, dtype=np.float32)
        out = np.zeros((self.config.num_rows, self.config.out_dim), dtype=np.float32)
        for row, expert in enumerate(routing):
            out[row] = activations[row] @ self.weights[expert]
        return out


def build_simple_moe(config: Optional[SimpleMoEConfig] = None,
                     weights: Optional[Sequence[np.ndarray]] = None,
                     seed: int = 0) -> SimpleMoEProgram:
    """Build the simplified MoE program of Figure 7.

    ``weights`` optionally supplies per-expert ``[hidden_dim, out_dim]``
    matrices (random matrices are generated otherwise); they are the
    ``underlying`` tensors of the weight-load operators so the program can be
    checked end to end against numpy.
    """
    config = config or SimpleMoEConfig()
    rng = np.random.default_rng(seed)
    if weights is None:
        weights = [rng.standard_normal((config.hidden_dim, config.out_dim)).astype(np.float32)
                   for _ in range(config.num_experts)]
    weights = [np.asarray(w, dtype=np.float32) for w in weights]
    for w in weights:
        if w.shape != (config.hidden_dim, config.out_dim):
            raise ConfigError(
                f"expert weights must be ({config.hidden_dim}, {config.out_dim}), got {w.shape}")

    # -- Route ------------------------------------------------------------------------
    x = row_stream_input("x", config.num_rows, config.hidden_dim)
    router = selector_input("router", config.num_rows, config.num_experts)
    partition = Partition(x, router, rank=1, num_consumers=config.num_experts,
                          name="route")

    branches = partition.outputs
    expert_streams: List[StreamHandle] = []
    for expert in range(config.num_experts):
        prefix = f"expert{expert}"
        branch = branches[expert]

        # -- Pack to tile: group rows into [tile_rows, hidden] tiles -------------------
        flat_rows = Flatten(branch, 0, 1, name=f"{prefix}_flatten_rows")
        if config.dynamic_tiling:
            # Dynamic tiling (Section 5.2): a single dynamically sized tile per
            # expert — Promote adds the grouping dimension without padding.
            grouped = Promote(flat_rows.output, name=f"{prefix}_promote")
            packed = Accum(grouped.output, RetileRow(), rank=1,
                           compute_bw=config.compute_bw, name=f"{prefix}_pack_rows")
        else:
            pad_tile = Tile.zeros(1, config.hidden_dim)
            chunked = Reshape(flat_rows.output, chunk_size=config.tile_rows, level=0,
                              pad=pad_tile, name=f"{prefix}_reshape")
            packed = Accum(chunked.data, RetileRow(), rank=1,
                           compute_bw=config.compute_bw, name=f"{prefix}_pack_rows")

        # -- Load weight: one full read of the expert's weight per packed tile ----------
        weight_load = LinearOffChipLoadRef(
            ref=packed.output,
            in_mem_shape=(config.hidden_dim, config.out_dim),
            tile_shape=(config.hidden_dim, config.weight_tile_cols),
            stride_tiled=(config.weight_col_tiles, 1),
            shape_tiled=(1, config.weight_col_tiles),
            underlying=weights[expert],
            name=f"{prefix}_weights")
        flat_w = Flatten(weight_load.output, 0, 1, name=f"{prefix}_flatten_w")

        # -- Broadcast the packed input tile across the weight column tiles -------------
        x_rep = Repeat(packed.output, count=config.weight_col_tiles,
                       name=f"{prefix}_broadcast")

        # -- Compute ---------------------------------------------------------------------
        matmul = Map((x_rep.output, flat_w.output), Matmul(),
                     compute_bw=config.compute_bw, name=f"{prefix}_matmul")

        # -- Pack tile (column-wise), then unpack back into single rows -------------------
        packed_out = Accum(matmul.output, RetileCol(), rank=1,
                           compute_bw=config.compute_bw, name=f"{prefix}_pack_cols")
        rows_out = FlatMap(packed_out.output, RetileStreamify(1), rank=1,
                           compute_bw=config.compute_bw, name=f"{prefix}_unpack")
        flat_out = Flatten(rows_out.output, 0, 1, name=f"{prefix}_flatten_out")
        row_chunks = Reshape(flat_out.output, chunk_size=1, level=0,
                             pad=Tile.zeros(1, config.out_dim),
                             name=f"{prefix}_rechunk")
        expert_streams.append(row_chunks.data)

    # -- Merge -----------------------------------------------------------------------------
    output = Reassemble(expert_streams, router, rank=1, name="merge")
    # The programmer knows the output has the routed input's shape (Listing 1, line 26).
    output.output.override_shape(x.shape)

    program = Program([output.output], name="simple_moe")
    return SimpleMoEProgram(program=program, config=config, weights=list(weights),
                            output_name=output.output.name)
