"""Hardware function library for the higher-order operators (Section 3.2.4).

Higher-order operators (Map, Accum, Scan, FlatMap) take a *function supported
by the hardware* as an argument.  This module provides the functions used by
the paper's workloads:

* element-wise and activation functions (``ElemAdd``, ``ElemMul``, ``SiLU``,
  ``SwiGLUGate``, ``Exp``, ``Scale``),
* matrix multiplication (``Matmul``) with FLOP accounting,
* softmax building blocks (``RowMax``, ``RowSumExp``),
* the retiling functions from the simplified-MoE walk-through
  (``RetileRow``, ``RetileCol``, ``RetileStreamify``),
* accumulator initializers (``ZeroTile``, ``EmptyTile``).

Each function reports the floating-point operations it performs
(:meth:`MapFunction.flops`), which the simulator's Roofline timing model
(Section 4.3) divides by the operator's allocated compute bandwidth.

All functions operate on :class:`~repro.core.dtypes.Tile` values and support
metadata-only tiles: if any input lacks a payload, the result is a
metadata-only tile of the correct shape so large sweeps avoid real arithmetic.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional

import numpy as np

from ..core.dtypes import Tile, TupleValue
from ..core.errors import ShapeError, TypeMismatchError

#: shared metadata-only result tiles (interned per shape/dtype in core.dtypes)
_meta_tile = Tile.meta_shared
#: parameter types a function's cost key may hold
_SCALARS = (bool, int, float, str, type(None))


def _payloads_available(*tiles: Tile) -> bool:
    return all(isinstance(t, Tile) and t.has_data for t in tiles)


def _as_tile(value) -> Tile:
    if isinstance(value, Tile):
        return value
    if isinstance(value, TupleValue):
        raise TypeMismatchError("expected a Tile, got a TupleValue; unpack it first")
    raise TypeMismatchError(f"expected a Tile, got {type(value).__name__}")


class MapFunction:
    """Base class for functions passed to Map/Scan/FlatMap."""

    #: human readable name
    name: str = "fn"

    def __call__(self, *inputs):
        raise NotImplementedError

    def flops(self, *inputs) -> int:
        """Floating-point operations performed for these inputs."""
        return 0

    def output_bytes(self, *inputs) -> int:
        """Bytes produced (defaults to the byte size of the computed output)."""
        out = self(*inputs)
        if isinstance(out, (list, tuple)):
            return sum(o.nbytes for o in out)
        return out.nbytes

    def cost_key(self) -> Optional[Hashable]:
        """What this function's results and costs depend on besides its inputs.

        The class alone for a parameter-free function, else the class and its
        scalar (or nested function) constructor parameters; ``None`` when the
        function holds other state, so that its costs are not shared.  The
        simulator shares metadata-only element costs across runs by this key.
        """
        params = getattr(self, "__dict__", None)
        if params is None:
            return None
        if not params:
            return type(self)
        items = []
        for name, value in sorted(params.items()):
            if isinstance(value, MapFunction):
                value = value.cost_key()
                if value is None:
                    return None
            elif type(value) not in _SCALARS:
                return None
            items.append((name, type(value), value))
        return type(self), tuple(items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class AccumFunction(MapFunction):
    """Base class for Accum/Scan update functions: ``update(value, state) -> state``."""

    def init(self):
        """Initial accumulator state (called at the start of every group)."""
        return None

    def __call__(self, value, state):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Element-wise functions
# ---------------------------------------------------------------------------

class ElemWise(MapFunction):
    """Element-wise binary function over two equally shaped tiles."""

    name = "elemwise"
    _np_op: Callable = None
    _flops_per_element = 1

    def __call__(self, a, b):
        a, b = _as_tile(a), _as_tile(b)
        if a.shape != b.shape:
            raise ShapeError(f"{self.name} requires equal tile shapes, got {a.shape} vs {b.shape}")
        if _payloads_available(a, b):
            return Tile.from_array(type(self)._np_op(a.to_array(), b.to_array()), a.dtype)
        return _meta_tile(a.rows, a.cols, a.dtype)

    def flops(self, a, b) -> int:
        return _as_tile(a).num_elements * self._flops_per_element


class ElemAdd(ElemWise):
    name = "elem_add"
    _np_op = staticmethod(np.add)


class ElemMul(ElemWise):
    name = "elem_mul"
    _np_op = staticmethod(np.multiply)


class Scale(MapFunction):
    """Multiply a tile by a scalar."""

    name = "scale"

    def __init__(self, factor: float):
        self.factor = float(factor)

    def __call__(self, a):
        a = _as_tile(a)
        if a.has_data:
            return Tile.from_array(a.to_array() * self.factor, a.dtype)
        return _meta_tile(a.rows, a.cols, a.dtype)

    def flops(self, a) -> int:
        return _as_tile(a).num_elements


class SiLU(MapFunction):
    """The SiLU / swish activation ``x * sigmoid(x)`` used by SwiGLU."""

    name = "silu"

    def __call__(self, a):
        a = _as_tile(a)
        if a.has_data:
            x = a.to_array().astype(np.float64)
            return Tile.from_array(x / (1.0 + np.exp(-x)), a.dtype)
        return _meta_tile(a.rows, a.cols, a.dtype)

    def flops(self, a) -> int:
        # sigmoid (≈4 ops) + multiply
        return 5 * _as_tile(a).num_elements


class SwiGLUGate(MapFunction):
    """``silu(gate) * up`` — the SwiGLU gating combination (two tile inputs)."""

    name = "swiglu_gate"

    def __call__(self, gate, up):
        gate, up = _as_tile(gate), _as_tile(up)
        if gate.shape != up.shape:
            raise ShapeError(f"SwiGLU gate/up shapes differ: {gate.shape} vs {up.shape}")
        if _payloads_available(gate, up):
            g = gate.to_array().astype(np.float64)
            return Tile.from_array((g / (1.0 + np.exp(-g))) * up.to_array(), gate.dtype)
        return _meta_tile(gate.rows, gate.cols, gate.dtype)

    def flops(self, gate, up) -> int:
        return 6 * _as_tile(gate).num_elements


class Exp(MapFunction):
    name = "exp"

    def __call__(self, a):
        a = _as_tile(a)
        if a.has_data:
            return Tile.from_array(np.exp(a.to_array().astype(np.float64)), a.dtype)
        return _meta_tile(a.rows, a.cols, a.dtype)

    def flops(self, a) -> int:
        return 4 * _as_tile(a).num_elements


# ---------------------------------------------------------------------------
# Matrix multiplication and reductions
# ---------------------------------------------------------------------------

class Matmul(MapFunction):
    """Matrix multiplication ``A @ B`` of two tiles.

    ``transpose_b`` computes ``A @ B^T`` (used by attention scores Q·K^T).
    """

    name = "matmul"

    def __init__(self, transpose_b: bool = False):
        self.transpose_b = bool(transpose_b)

    def _check(self, a: Tile, b: Tile) -> tuple:
        k_b = b.cols if self.transpose_b else b.rows
        n = b.rows if self.transpose_b else b.cols
        if a.cols != k_b:
            raise ShapeError(
                f"matmul inner dimensions differ: ({a.rows}x{a.cols}) @ "
                f"({b.rows}x{b.cols}){'^T' if self.transpose_b else ''}")
        return a.rows, a.cols, n

    def __call__(self, a, b):
        a, b = _as_tile(a), _as_tile(b)
        m, k, n = self._check(a, b)
        if _payloads_available(a, b):
            rhs = b.to_array().T if self.transpose_b else b.to_array()
            return Tile.from_array(a.to_array() @ rhs, a.dtype)
        return _meta_tile(m, n, a.dtype)

    def flops(self, a, b) -> int:
        a, b = _as_tile(a), _as_tile(b)
        m, k, n = self._check(a, b)
        return 2 * m * k * n


class RowMax(MapFunction):
    """Row-wise maximum (a [R,C] tile -> [R,1] tile), used by softmax."""

    name = "row_max"

    def __call__(self, a):
        a = _as_tile(a)
        if a.has_data:
            return Tile.from_array(a.to_array().max(axis=1, keepdims=True), a.dtype)
        return _meta_tile(a.rows, 1, a.dtype)

    def flops(self, a) -> int:
        return _as_tile(a).num_elements


class RowSum(MapFunction):
    """Row-wise sum (a [R,C] tile -> [R,1] tile)."""

    name = "row_sum"

    def __call__(self, a):
        a = _as_tile(a)
        if a.has_data:
            return Tile.from_array(a.to_array().sum(axis=1, keepdims=True), a.dtype)
        return _meta_tile(a.rows, 1, a.dtype)

    def flops(self, a) -> int:
        return _as_tile(a).num_elements


# ---------------------------------------------------------------------------
# Accumulator functions
# ---------------------------------------------------------------------------

class SumAccum(AccumFunction):
    """Element-wise running sum of equally shaped tiles."""

    name = "sum_accum"

    def init(self):
        return None

    def __call__(self, value, state):
        value = _as_tile(value)
        if state is None:
            return value
        state = _as_tile(state)
        if state.shape != value.shape:
            raise ShapeError(f"SumAccum shapes differ: {state.shape} vs {value.shape}")
        if _payloads_available(value, state):
            return Tile.from_array(state.to_array() + value.to_array(), value.dtype)
        return _meta_tile(value.rows, value.cols, value.dtype)

    def flops(self, value, state) -> int:
        return _as_tile(value).num_elements


class MatmulAccum(AccumFunction):
    """Inner-product matmul accumulation: ``state += A @ B`` over (A, B) tuples.

    Used when the reduction (K) dimension of a matrix multiplication is tiled:
    the operator receives a stream of ``Zip``-ped (A-tile, B-tile) pairs and
    accumulates partial products.
    """

    name = "matmul_accum"

    def __init__(self, transpose_b: bool = False):
        self.matmul = Matmul(transpose_b=transpose_b)
        self.adder = ElemAdd()

    def init(self):
        return None

    def __call__(self, value, state):
        if not isinstance(value, TupleValue) or len(value) != 2:
            raise TypeMismatchError("MatmulAccum expects (A, B) tuple values; use Zip")
        partial = self.matmul(value[0], value[1])
        if state is None:
            return partial
        return self.adder(state, partial)

    def flops(self, value, state) -> int:
        flops = self.matmul.flops(value[0], value[1])
        if state is not None:
            flops += _as_tile(state).num_elements
        return flops


class RetileRow(AccumFunction):
    """Concatenate tiles row-wise into a larger tile (Pack-to-Tile in Fig. 7)."""

    name = "retile_row"

    def init(self):
        return None

    def __call__(self, value, state):
        value = _as_tile(value)
        if state is None:
            return value
        state = _as_tile(state)
        if state.cols != value.cols:
            raise ShapeError(
                f"RetileRow requires equal column counts, got {state.cols} vs {value.cols}")
        if _payloads_available(value, state):
            return Tile.from_array(np.vstack([state.to_array(), value.to_array()]), value.dtype)
        return _meta_tile(state.rows + value.rows, value.cols, value.dtype)

    def flops(self, value, state) -> int:
        return 0  # data movement only


class RetileCol(AccumFunction):
    """Concatenate tiles column-wise into a larger tile (Pack-Tile in Fig. 7)."""

    name = "retile_col"

    def init(self):
        return None

    def __call__(self, value, state):
        value = _as_tile(value)
        if state is None:
            return value
        state = _as_tile(state)
        if state.rows != value.rows:
            raise ShapeError(
                f"RetileCol requires equal row counts, got {state.rows} vs {value.rows}")
        if _payloads_available(value, state):
            return Tile.from_array(np.hstack([state.to_array(), value.to_array()]), value.dtype)
        return _meta_tile(value.rows, state.cols + value.cols, value.dtype)

    def flops(self, value, state) -> int:
        return 0


# ---------------------------------------------------------------------------
# FlatMap functions
# ---------------------------------------------------------------------------

class FlatMapFunction(MapFunction):
    """Base class for FlatMap functions: ``__call__`` returns a list of values."""

    def __call__(self, value) -> List:
        raise NotImplementedError


class RetileStreamify(FlatMapFunction):
    """Split a tile row-wise into ``rows_per_tile``-row tiles (Unpack-Tile in Fig. 7)."""

    name = "retile_streamify"

    def __init__(self, rows_per_tile: int = 1):
        if rows_per_tile <= 0:
            raise ShapeError(f"rows_per_tile must be positive, got {rows_per_tile}")
        self.rows_per_tile = int(rows_per_tile)

    def __call__(self, value) -> List[Tile]:
        value = _as_tile(value)
        pieces: List[Tile] = []
        for start in range(0, value.rows, self.rows_per_tile):
            rows = min(self.rows_per_tile, value.rows - start)
            if value.has_data:
                pieces.append(Tile.from_array(value.to_array()[start:start + rows], value.dtype))
            else:
                pieces.append(_meta_tile(rows, value.cols, value.dtype))
        return pieces

    def flops(self, value) -> int:
        return 0


class SplitCols(FlatMapFunction):
    """Split a tile column-wise into ``cols_per_tile``-column tiles."""

    name = "split_cols"

    def __init__(self, cols_per_tile: int):
        if cols_per_tile <= 0:
            raise ShapeError(f"cols_per_tile must be positive, got {cols_per_tile}")
        self.cols_per_tile = int(cols_per_tile)

    def __call__(self, value) -> List[Tile]:
        value = _as_tile(value)
        pieces: List[Tile] = []
        for start in range(0, value.cols, self.cols_per_tile):
            cols = min(self.cols_per_tile, value.cols - start)
            if value.has_data:
                pieces.append(
                    Tile.from_array(value.to_array()[:, start:start + cols], value.dtype))
            else:
                pieces.append(_meta_tile(value.rows, cols, value.dtype))
        return pieces

    def flops(self, value) -> int:
        return 0


# ---------------------------------------------------------------------------
# Initializers / misc helpers
# ---------------------------------------------------------------------------

def zero_tile(rows: int, cols: int, dtype="bf16", with_data: bool = False) -> Tile:
    """A zero tile of the given shape, optionally carrying a real payload."""
    if with_data:
        return Tile.zeros(rows, cols, dtype)
    return _meta_tile(rows, cols, dtype)
