"""Frontend helpers for constructing STeP programs and their input streams.

Programs are written by instantiating operator classes (exactly like
Listing 1); this module adds the small amount of glue the workloads and tests
need:

* :func:`input_stream` — declare a runtime-fed source node,
* converters between numpy matrices / routing decisions and token streams,
* converters from output token streams back to numpy matrices.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from .dims import Dim
from .dtypes import ElemType, Selector, SelectorType, Tile, TileType
from .errors import ShapeError
from .graph import InputStream, StreamHandle
from .shape import DimLike, StreamShape
from .stream import DONE, Data, Token, nested_from_tokens, stop_token, tokens_from_nested


def input_stream(name: str, shape, dtype) -> StreamHandle:
    """Declare an input stream; its tokens are supplied at simulation time."""
    return InputStream(shape, dtype, name=name).stream


def tile_input(name: str, num_tiles, tile_rows: int, tile_cols: int,
               dtype: Union[str, ElemType] = "bf16") -> StreamHandle:
    """Declare a rank-0 input stream of ``num_tiles`` tiles of a fixed shape."""
    shape = StreamShape([num_tiles])
    return input_stream(name, shape, TileType(tile_rows, tile_cols, dtype))


def batch_dim(count: Optional[DimLike]) -> DimLike:
    """``count`` as a stream dimension; ``None`` is a fresh dynamic symbol.

    A symbolic batch is bound only when tokens stream through, so one
    program serves every batch size.
    """
    return Dim.dynamic(name="B") if count is None else count


def row_stream_input(name: str, num_rows, row_width: int,
                     dtype: Union[str, ElemType] = "bf16") -> StreamHandle:
    """Declare a rank-1 stream of single-row tiles (shape ``[num_rows, 1]``).

    This matches the paper's MoE walk-through, where a ``[10, 64]`` activation
    matrix is streamed as a ``[10, 1]`` stream of ``[1, 64]`` tiles.
    ``num_rows=None`` declares a symbolic row count (:func:`batch_dim`).
    """
    shape = StreamShape([batch_dim(num_rows), 1])
    return input_stream(name, shape, TileType(1, row_width, dtype))


def selector_input(name: str, count, num_targets: int) -> StreamHandle:
    """Declare a rank-0 selector stream with ``count`` selector elements
    (``None``: a symbolic count, see :func:`batch_dim`)."""
    shape = StreamShape([batch_dim(count)])
    return input_stream(name, shape, SelectorType(num_targets))


# ---------------------------------------------------------------------------
# Token-stream construction
# ---------------------------------------------------------------------------

def matrix_to_row_tokens(matrix: Optional[np.ndarray], num_rows: Optional[int] = None,
                         row_width: Optional[int] = None,
                         dtype: Union[str, ElemType] = "bf16",
                         with_data: bool = True) -> List[Token]:
    """Tokens for a matrix streamed row by row as a rank-1 stream ``[rows, 1]``.

    When ``matrix`` is ``None``, metadata-only tiles of shape
    ``[1, row_width]`` are produced (``num_rows`` and ``row_width`` required).
    Each row is one tile closed by ``S1``: the stream
    :func:`~repro.core.stream.tokens_from_nested` makes of one-tile rows,
    emitted directly.
    """
    if matrix is not None:
        matrix = np.asarray(matrix)
        num_rows, row_width = matrix.shape
    if num_rows is None or row_width is None:
        raise ShapeError("matrix_to_row_tokens needs either a matrix or explicit dimensions")
    stop = stop_token(1)
    tokens: List[Token] = []
    for index in range(num_rows):
        if matrix is not None and with_data:
            tile = Tile.from_array(matrix[index:index + 1, :], dtype)
        else:
            tile = Tile.meta(1, row_width, dtype)
        tokens.append(Data(tile))
        tokens.append(stop)
    tokens.append(DONE)
    return tokens


def tiles_to_tokens(tiles: Sequence[Tile]) -> List[Token]:
    """A rank-0 token stream from a flat list of tiles."""
    return tokens_from_nested(list(tiles), rank=0)


def selectors_to_tokens(choices: Sequence[Union[int, Sequence[int]]],
                        num_targets: int) -> List[Token]:
    """A rank-0 selector token stream from per-element routing decisions."""
    tokens: List[Token] = [Data(Selector(choice, num_targets)) for choice in choices]
    tokens.append(DONE)
    return tokens


def counts_to_tokens(count: int, value=1) -> List[Token]:
    """A rank-0 stream of ``count`` scalar trigger values (reference streams)."""
    return tokens_from_nested([value] * count, rank=0)


# ---------------------------------------------------------------------------
# Token-stream deconstruction (for checking functional results)
# ---------------------------------------------------------------------------

def tokens_to_tiles(tokens: Sequence[Token]) -> List[Tile]:
    """All tile payloads in a token stream, in order."""
    return [t.value for t in tokens if isinstance(t, Data) and isinstance(t.value, Tile)]


def tokens_to_matrix(tokens: Sequence[Token]) -> np.ndarray:
    """Vertically stack every tile payload in the stream into one matrix."""
    tiles = tokens_to_tiles(tokens)
    if not tiles:
        return np.zeros((0, 0))
    return np.vstack([tile.to_array() for tile in tiles])


def tokens_to_nested_tiles(tokens: Sequence[Token], rank: int) -> list:
    """The nested tensor structure of a stream, with tiles as leaves."""
    return nested_from_tokens(tokens, rank)
