"""QKV generation layer (used by the end-to-end models, Section 5.5).

Query/key/value generation is a dense matrix multiplication of the batch's
activation rows with the fused QKV weight matrix.  The end-to-end evaluation
parallelizes the batch dimension by four; each parallel region packs its rows
into a single dynamically sized tile, loads the QKV weights once and performs
the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.builder import matrix_to_row_tokens, row_stream_input, selector_input, \
    selectors_to_tokens
from ..core.errors import ConfigError
from ..core.graph import Program
from ..core.stream import Token
from ..ops import (Accum, EagerMerge, Flatten, LinearOffChipLoadRef, LinearOffChipStore,
                   Map, Partition, Promote, Repeat)
from ..ops.functions import Matmul, RetileRow
from .configs import ModelConfig


@dataclass
class QKVConfig:
    """Configuration of the QKV-generation layer."""

    model: ModelConfig
    #: rows in the batch, or ``None`` for a symbolic batch that the runtime
    #: inputs bind (one program then serves every batch size)
    batch: Optional[int]
    num_regions: int = 4
    weight_col_tiles: int = 4
    compute_bw: int = 8192

    def __post_init__(self) -> None:
        if self.batch is not None and self.batch <= 0:
            raise ConfigError("batch must be positive")
        if self.num_regions <= 0:
            raise ConfigError("num_regions must be positive")

    @property
    def qkv_dim(self) -> int:
        return self.model.q_dim + 2 * self.model.kv_dim

    def label(self) -> str:
        return f"qkv_{self.model.name}_b{self.batch or 'B'}"


@dataclass
class QKVProgram:
    program: Program
    config: QKVConfig

    def inputs(self, activations: Optional[np.ndarray] = None,
               num_rows: Optional[int] = None) -> Dict[str, List[Token]]:
        """Runtime token streams: ``activations`` or ``num_rows`` metadata-only
        rows (the configured batch when neither is given)."""
        config = self.config
        if activations is not None:
            num_rows = len(activations)
        elif num_rows is None:
            num_rows = config.batch
        if num_rows is None:
            raise ConfigError("a symbolic-batch QKV program needs activations or num_rows")
        assignment = [i % config.num_regions for i in range(num_rows)]
        return {
            "x": matrix_to_row_tokens(activations, num_rows=num_rows,
                                      row_width=config.model.hidden_dim),
            "assign": selectors_to_tokens(assignment, config.num_regions),
        }


def build_qkv_layer(config: QKVConfig) -> QKVProgram:
    """Build the batch-parallel QKV-generation program."""
    model = config.model
    c = config.weight_col_tiles
    if config.qkv_dim % c != 0:
        raise ConfigError("weight_col_tiles must divide the fused QKV dimension")

    x = row_stream_input("x", config.batch, model.hidden_dim)
    assign = selector_input("assign", config.batch, config.num_regions)
    partition = Partition(x, assign, rank=1, num_consumers=config.num_regions, name="route")

    branches = partition.outputs
    region_outputs = []
    for region in range(config.num_regions):
        prefix = f"region{region}"
        flat = Flatten(branches[region], 0, 1, name=f"{prefix}_flat")
        grouped = Promote(flat.output, name=f"{prefix}_promote")
        packed = Accum(grouped.output, RetileRow(), rank=1, compute_bw=0,
                       name=f"{prefix}_pack")
        weights = LinearOffChipLoadRef(
            ref=packed.output, in_mem_shape=(model.hidden_dim, config.qkv_dim),
            tile_shape=(model.hidden_dim, config.qkv_dim // c),
            shape_tiled=(1, c), stride_tiled=(c, 1), name=f"{prefix}_w")
        w_flat = Flatten(weights.output, 0, 1, name=f"{prefix}_w_flat")
        x_rep = Repeat(packed.output, count=c, name=f"{prefix}_broadcast")
        proj = Map((x_rep.output, w_flat.output), Matmul(), compute_bw=config.compute_bw,
                   name=f"{prefix}_proj")
        region_outputs.append(proj.output)

    merged = EagerMerge(region_outputs, rank=0, name="gather")
    store = LinearOffChipStore(merged.data, name="store_out")
    return QKVProgram(program=Program([store], name=config.label()), config=config)
