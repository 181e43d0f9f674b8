"""Mixture-of-Experts layers with SwiGLU experts (Sections 5.2 and 5.3).

This module builds the MoE-layer programs evaluated in Figures 9, 10, 12, 13,
19 and 20:

* **static tiling** — each expert pads its routed tokens into fixed
  ``tile_rows``-row tiles; every tile re-loads the expert's weights from
  off-chip memory (the Revet-expressible baseline schedule),
* **dynamic tiling** — each expert packs its tokens into a single dynamically
  sized tile (Promote + Accum of a dynamically shaped accumulator), loading the
  weights once per active expert,
* **configuration time-multiplexing** — instead of one spatial region per
  expert, ``num_regions`` regions each time-multiplex a group of experts:
  EagerMerge forwards whichever expert's packed tile is ready, and
  RandomOffChipLoad fetches that expert's weights on demand (Figure 11).

The spatial variants (static/dynamic tiling) optionally combine the top-k
expert outputs per token (Reassemble + Accum) and can be checked functionally
against numpy.  The time-multiplexed variant measures the expert-computation
pipeline (the paper's Figure 11 likewise omits the surrounding operators "for
simplicity"); its baseline for Figures 12/13 is built with the same
``combine_output=False`` setting so the comparison is apples to apples.
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
from ..ops import (Accum,
    EagerMerge,
    FlatMap,
    Flatten,
    LinearOffChipStore,
    Map,
    Partition,
    Promote,
    RandomOffChipLoad,
    Reassemble,
    Reshape)
from ..ops.functions import Matmul, RetileRow, RetileStreamify, SumAccum, SwiGLUGate
from .configs import ModelConfig
from .swiglu import ExpertDims, swiglu_expert_block, swiglu_expert_reference


@dataclass
class MoELayerConfig:
    """Configuration of one MoE layer experiment."""

    model: ModelConfig
    #: tokens in the batch, or ``None`` for a symbolic batch that the runtime
    #: assignments bind (one program then serves every batch size)
    batch: Optional[int]
    #: static batch-tile size per expert, or ``None`` for dynamic tiling
    tile_rows: Optional[int] = 32
    #: number of column tiles for the expert weight matrices
    weight_col_tiles: int = 4
    #: allocated compute bandwidth (FLOPs/cycle) per expert matmul operator.
    #: The evaluation provisions enough compute per expert that the layer is
    #: memory-bound (Section 5.2), matching the paper's hardware configuration.
    compute_bw: int = 8192
    #: ``None`` → one spatial region per expert; otherwise configuration
    #: time-multiplexing with this many shared regions
    num_regions: Optional[int] = None
    #: combine the top-k expert outputs per token (Reassemble + Accum)
    combine_output: bool = True
    #: attach a collector to the final output for functional checks
    collect_output: bool = False
    #: carry real numpy payloads (small functional tests only)
    with_payload: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tile_rows is not None and self.tile_rows <= 0:
            raise ConfigError("tile_rows must be positive or None (dynamic tiling)")
        if self.num_regions is not None:
            if self.model.num_experts % self.num_regions != 0:
                raise ConfigError("num_regions must divide the number of experts")
            if self.combine_output:
                raise ConfigError(
                    "the time-multiplexed variant measures the expert pipeline; "
                    "set combine_output=False (see module docstring)")

    @property
    def dynamic_tiling(self) -> bool:
        return self.tile_rows is None

    @property
    def expert_dims(self) -> ExpertDims:
        return ExpertDims(hidden=self.model.hidden_dim,
                          intermediate=self.model.moe_intermediate_dim,
                          weight_col_tiles=self.weight_col_tiles,
                          compute_bw=self.compute_bw)

    def label(self) -> str:
        tiling = "dynamic" if self.dynamic_tiling else f"tile{self.tile_rows}"
        regions = "" if self.num_regions is None else f"_regions{self.num_regions}"
        return f"moe_{self.model.name}_b{self.batch or 'B'}_{tiling}{regions}"


@dataclass
class MoEProgram:
    """A built MoE-layer program plus input builders and a numpy reference."""

    program: Program
    config: MoELayerConfig
    weights: List[Dict[str, np.ndarray]]
    output_name: Optional[str] = None

    def inputs(self, assignments: Sequence[Sequence[int]],
               activations: Optional[np.ndarray] = None) -> Dict[str, List[Token]]:
        """Runtime token streams from per-token expert assignments."""
        config = self.config
        if config.batch is not None and len(assignments) != config.batch:
            raise ConfigError(
                f"assignments must cover the batch ({config.batch}), got {len(assignments)}")
        if activations is None:
            tokens_x = matrix_to_row_tokens(None, num_rows=len(assignments),
                                            row_width=config.model.hidden_dim)
        else:
            tokens_x = matrix_to_row_tokens(activations)
        return {
            "x": tokens_x,
            "router": selectors_to_tokens(list(assignments), config.model.num_experts),
        }

    def reference(self, assignments: Sequence[Sequence[int]],
                  activations: np.ndarray) -> np.ndarray:
        """Numpy reference: sum of the selected experts' SwiGLU outputs per token."""
        activations = np.asarray(activations, dtype=np.float32)
        out = np.zeros((len(assignments), self.config.model.hidden_dim), dtype=np.float32)
        for token, experts in enumerate(assignments):
            row = activations[token:token + 1]
            for expert in experts:
                out[token] += swiglu_expert_reference(row, self.weights[expert])[0]
        return out


def _expert_weights(config: MoELayerConfig) -> List[Dict[str, np.ndarray]]:
    if not config.with_payload:
        return [{} for _ in range(config.model.num_experts)]
    rng = np.random.default_rng(config.seed)
    weights = []
    for _ in range(config.model.num_experts):
        weights.append({
            "w1": rng.standard_normal(
                (config.model.hidden_dim, config.model.moe_intermediate_dim)
            ).astype(np.float32) * 0.05,
            "w3": rng.standard_normal(
                (config.model.hidden_dim, config.model.moe_intermediate_dim)
            ).astype(np.float32) * 0.05,
            "w2": rng.standard_normal(
                (config.model.moe_intermediate_dim, config.model.hidden_dim)
            ).astype(np.float32) * 0.05,
        })
    return weights


def _pack_rows(branch: StreamHandle, config: MoELayerConfig, prefix: str) -> StreamHandle:
    """Pack an expert's routed rows into tiles (static padding or dynamic)."""
    flat = Flatten(branch, 0, 1, name=f"{prefix}_flat_rows")
    if config.dynamic_tiling:
        grouped = Promote(flat.output, name=f"{prefix}_promote")
    else:
        pad = Tile.zeros(1, config.model.hidden_dim) if config.with_payload \
            else Tile.meta(1, config.model.hidden_dim)
        grouped = Reshape(flat.output, chunk_size=config.tile_rows, level=0, pad=pad,
                          name=f"{prefix}_chunk")
    source = grouped.output if config.dynamic_tiling else grouped.data
    packed = Accum(source, RetileRow(), rank=1, compute_bw=0, name=f"{prefix}_pack")
    return packed.output


def _unpack_rows(tiles: StreamHandle, config: MoELayerConfig, prefix: str) -> StreamHandle:
    """Split expert output tiles back into single-row chunks for Reassemble."""
    rows = FlatMap(tiles, RetileStreamify(1), rank=1, compute_bw=0,
                   name=f"{prefix}_unpack")
    flat = Flatten(rows.output, 0, 1, name=f"{prefix}_flat_out")
    pad = Tile.meta(1, config.model.hidden_dim)
    chunks = Reshape(flat.output, chunk_size=1, level=0, pad=pad, name=f"{prefix}_rechunk")
    return chunks.data


def build_moe_layer(config: MoELayerConfig) -> MoEProgram:
    """Build the MoE-layer program selected by ``config``."""
    weights = _expert_weights(config)
    model = config.model

    x = row_stream_input("x", config.batch, model.hidden_dim)
    router = selector_input("router", config.batch, model.num_experts)
    partition = Partition(x, router, rank=1, num_consumers=model.num_experts, name="route")

    branches = partition.outputs
    packed_streams = [
        _pack_rows(branches[e], config, f"expert{e}")
        for e in range(model.num_experts)
    ]

    if config.num_regions is None:
        expert_outputs = [
            swiglu_expert_block(packed_streams[e], config.expert_dims, f"expert{e}",
                                weights=weights[e] if config.with_payload else None)
            for e in range(model.num_experts)
        ]
        final = _finalize_spatial(expert_outputs, router, x, config)
    else:
        final = _finalize_time_multiplexed(packed_streams, config)

    sinks: List = [final["store"]]
    output_name = None
    if config.collect_output and final["output"] is not None:
        sinks.append(final["output"])
        output_name = final["output"].name
    program = Program(sinks, name=config.label())
    return MoEProgram(program=program, config=config, weights=weights,
                      output_name=output_name)


def _finalize_spatial(expert_outputs: Sequence[StreamHandle], router: StreamHandle,
                      x: StreamHandle, config: MoELayerConfig) -> dict:
    """Gather per-expert outputs; optionally combine the top-k contributions."""
    row_streams = [
        _unpack_rows(expert_outputs[e], config, f"expert{e}")
        for e in range(config.model.num_experts)
    ]
    if config.combine_output:
        gathered = Reassemble(row_streams, router, rank=1, name="gather")
        combined = Accum(gathered.output, SumAccum(), rank=2, compute_bw=0, name="combine")
        combined.output.override_shape(x.shape)
        out_handle = combined.output
    else:
        merged = EagerMerge(row_streams, rank=1, name="gather_eager")
        out_handle = merged.data
    store = LinearOffChipStore(out_handle, name="store_out")
    return {"store": store, "output": out_handle}


def _finalize_time_multiplexed(packed_streams: Sequence[StreamHandle],
                               config: MoELayerConfig) -> dict:
    """Configuration time-multiplexing (Figure 11): R regions share the expert pipeline."""
    model = config.model
    experts_per_region = model.num_experts // config.num_regions
    region_outputs: List[StreamHandle] = []

    for region in range(config.num_regions):
        prefix = f"region{region}"
        members = list(range(region * experts_per_region, (region + 1) * experts_per_region))
        merged = EagerMerge([packed_streams[e] for e in members], rank=0,
                            name=f"{prefix}_merge")

        def load(name: str, rows: int, cols: int) -> StreamHandle:
            return RandomOffChipLoad(
                merged.selector, tile_shape=(rows, cols),
                base_addr=region * experts_per_region * rows * cols * 2,
                name=f"{prefix}_{name}").output

        w1 = load("w1", model.hidden_dim, model.moe_intermediate_dim)
        w3 = load("w3", model.hidden_dim, model.moe_intermediate_dim)
        w2 = load("w2", model.moe_intermediate_dim, model.hidden_dim)

        gate = Map((merged.data, w1), Matmul(), compute_bw=config.compute_bw,
                   name=f"{prefix}_gate")
        up = Map((merged.data, w3), Matmul(), compute_bw=config.compute_bw,
                 name=f"{prefix}_up")
        act = Map((gate.output, up.output), SwiGLUGate(), compute_bw=config.compute_bw,
                  name=f"{prefix}_act")
        down = Map((act.output, w2), Matmul(), compute_bw=config.compute_bw,
                   name=f"{prefix}_down")
        region_outputs.append(down.output)

    merged_out = EagerMerge(region_outputs, rank=0, name="gather_regions")
    store = LinearOffChipStore(merged_out.data, name="store_out")
    return {"store": store, "output": merged_out.data}


# ---------------------------------------------------------------------------
# Convenience entry points used by the experiments
# ---------------------------------------------------------------------------

def static_tiling_config(model: ModelConfig, batch: int, tile_rows: int,
                         **kwargs) -> MoELayerConfig:
    """The Revet-expressible baseline schedule: static tiles, spatial experts."""
    return MoELayerConfig(model=model, batch=batch, tile_rows=tile_rows, **kwargs)


def dynamic_tiling_config(model: ModelConfig, batch: int, **kwargs) -> MoELayerConfig:
    """Dynamic tiling (Section 5.2)."""
    return MoELayerConfig(model=model, batch=batch, tile_rows=None, **kwargs)


def time_multiplexed_config(model: ModelConfig, batch: int, num_regions: int,
                            tile_rows: Optional[int] = 32, **kwargs) -> MoELayerConfig:
    """Configuration time-multiplexing (Section 5.3)."""
    kwargs.setdefault("combine_output", False)
    return MoELayerConfig(model=model, batch=batch, tile_rows=tile_rows,
                          num_regions=num_regions, **kwargs)
