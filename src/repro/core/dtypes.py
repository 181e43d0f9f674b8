"""Stream data types and their runtime values (paper Section 3.1).

The data type of a STeP stream is a *tile* (a two-dimensional, possibly
dynamically shaped matrix), a *selector* (a multi-hot vector used by the
routing/merging operators), a read-only *reference to on-chip memory*
(a buffer handle), or a tuple of these.

This module defines both sides of that coin:

* **type descriptors** (:class:`TileType`, :class:`SelectorType`,
  :class:`BufferType`, :class:`TupleType`, :class:`AddressType`) used by the
  symbolic frontend for shape checking and for the cost model (``|dtype|`` in
  Section 4.2), and
* **runtime values** (:class:`Tile`, :class:`Selector`, :class:`BufferHandle`,
  :class:`Address`) that flow through the simulator.

Tiles can carry an optional numpy payload.  Unit tests exercise real numerics;
large benchmark sweeps run with metadata-only tiles so that only shapes, byte
counts and FLOP counts flow through the machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import symbolic as sym
from .dims import Dim
from .errors import ShapeError, TypeMismatchError
from .symbolic import Expr


# ---------------------------------------------------------------------------
# Element (scalar) types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElemType:
    """A scalar element type with a byte width."""

    name: str
    nbytes: int
    numpy_dtype: object
    #: the fields equality compares, as a tuple: hot dictionary keys (the
    #: element-cost memo's, the metadata-tile interning table's) hold it
    #: instead of the type, so hashing them stays in C and unequal types
    #: never share a key
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.name, self.nbytes, self.numpy_dtype))

    def __hash__(self) -> int:
        # the name alone agrees with equality and skips hashing the numpy dtype
        return hash(self.name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: BFloat16 — the paper's compute tiles operate on 16x16 BFloat16 tiles.
#: numpy has no native bfloat16, so payloads are stored as float32 while byte
#: accounting uses 2 bytes per element.
BF16 = ElemType("bf16", 2, np.float32)
F32 = ElemType("f32", 4, np.float32)
F16 = ElemType("f16", 2, np.float16)
I32 = ElemType("i32", 4, np.int32)
I8 = ElemType("i8", 1, np.int8)
BOOL = ElemType("bool", 1, np.bool_)

_ELEM_TYPES = {t.name: t for t in (BF16, F32, F16, I32, I8, BOOL)}


def elem_type(name_or_type: Union[str, ElemType]) -> ElemType:
    """Look up an element type by name (or pass one through)."""
    if isinstance(name_or_type, ElemType):
        return name_or_type
    try:
        return _ELEM_TYPES[name_or_type]
    except KeyError:
        raise TypeMismatchError(f"unknown element type {name_or_type!r}") from None


# ---------------------------------------------------------------------------
# Type descriptors
# ---------------------------------------------------------------------------

class DataType:
    """Base class for stream data-type descriptors."""

    def nbytes_expr(self) -> Expr:
        """Symbolic size in bytes of a single value of this type (``|dtype|``)."""
        raise NotImplementedError

    def nbytes(self, bindings=None) -> int:
        """Concrete size in bytes once all symbols are bound."""
        return self.nbytes_expr().evaluate(bindings or {})

    @property
    def is_static(self) -> bool:
        return self.nbytes_expr().is_static


@dataclass(frozen=True)
class TileType(DataType):
    """A two-dimensional tile, possibly with dynamic shape."""

    rows: Dim
    cols: Dim
    dtype: ElemType = BF16

    def __init__(self, rows, cols, dtype: Union[str, ElemType] = BF16):
        object.__setattr__(self, "rows", Dim.of(rows))
        object.__setattr__(self, "cols", Dim.of(cols))
        object.__setattr__(self, "dtype", elem_type(dtype))

    def nbytes_expr(self) -> Expr:
        return self.rows.size * self.cols.size * self.dtype.nbytes

    @property
    def shape(self) -> Tuple[Dim, Dim]:
        return (self.rows, self.cols)

    def concrete_shape(self, bindings=None) -> Tuple[int, int]:
        return (self.rows.evaluate(bindings or {}), self.cols.evaluate(bindings or {}))

    def with_rows(self, rows) -> "TileType":
        return TileType(rows, self.cols, self.dtype)

    def with_cols(self, cols) -> "TileType":
        return TileType(self.rows, cols, self.dtype)

    def __str__(self) -> str:
        return f"Tile[{self.rows},{self.cols}]({self.dtype})"


@dataclass(frozen=True)
class SelectorType(DataType):
    """A multi-hot selector over ``num_targets`` consumers/producers."""

    num_targets: int

    def nbytes_expr(self) -> Expr:
        # one byte per possible target keeps the accounting simple and matches
        # the negligible contribution selectors make to traffic.
        return sym.Const(max(1, self.num_targets))

    def __str__(self) -> str:
        return f"Selector[{self.num_targets}]"


@dataclass(frozen=True)
class AddressType(DataType):
    """A [1,1] tile of integer addresses (the paper's ``I`` data type)."""

    dtype: ElemType = I32

    def nbytes_expr(self) -> Expr:
        return sym.Const(self.dtype.nbytes)

    def __str__(self) -> str:
        return f"Address({self.dtype})"


@dataclass(frozen=True)
class BufferType(DataType):
    """A read-only reference to on-chip memory holding a rank-``b`` sub-stream.

    ``element`` is the data type stored in the buffer (normally a
    :class:`TileType`) and ``dims`` the buffered dimensions, outermost first.
    """

    element: DataType
    dims: Tuple[Dim, ...]

    def __init__(self, element: DataType, dims: Sequence):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "dims", tuple(Dim.of(d) for d in dims))

    @property
    def rank(self) -> int:
        return len(self.dims)

    def cardinality(self) -> Expr:
        """``||buffer||``: the product of the buffered dimension sizes."""
        return sym.sprod(d.size for d in self.dims)

    def nbytes_expr(self) -> Expr:
        return self.cardinality() * self.element.nbytes_expr()

    def __str__(self) -> str:
        inner = ", ".join(str(d) for d in self.dims)
        return f"Buffer[{inner}]({self.element})"


@dataclass(frozen=True)
class TupleType(DataType):
    """A tuple of data types (produced by Zip)."""

    elements: Tuple[DataType, ...]

    def __init__(self, elements: Iterable[DataType]):
        object.__setattr__(self, "elements", tuple(elements))

    def nbytes_expr(self) -> Expr:
        return sym.ssum(e.nbytes_expr() for e in self.elements)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

_tile_ids = itertools.count()
_buffer_ids = itertools.count()


class Value:
    """Base class for runtime stream values."""

    @property
    def nbytes(self) -> int:
        raise NotImplementedError


class Tile(Value):
    """A runtime tile: concrete shape, element type, optional payload.

    Payload-free tiles ("metadata tiles") carry everything the timing and cost
    models need (shape, byte size) without the memory cost of real data, which
    keeps large simulator sweeps cheap.
    """

    __slots__ = ("rows", "cols", "dtype", "data", "tile_id", "_nbytes")

    def __init__(self, rows: int, cols: int, dtype: Union[str, ElemType] = BF16,
                 data: Optional[np.ndarray] = None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.dtype = elem_type(dtype)
        self._nbytes = self.rows * self.cols * self.dtype.nbytes
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"tile shape must be non-negative, got ({rows}, {cols})")
        if data is not None:
            data = np.asarray(data, dtype=self.dtype.numpy_dtype)
            if data.shape != (self.rows, self.cols):
                raise ShapeError(
                    f"tile payload shape {data.shape} does not match ({self.rows}, {self.cols})")
        self.data = data
        self.tile_id = next(_tile_ids)

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int, dtype: Union[str, ElemType] = BF16) -> "Tile":
        dtype = elem_type(dtype)
        return Tile(rows, cols, dtype, np.zeros((rows, cols), dtype=dtype.numpy_dtype))

    @staticmethod
    def from_array(array: np.ndarray, dtype: Union[str, ElemType] = BF16) -> "Tile":
        array = np.asarray(array)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2:
            raise ShapeError(f"tiles are two-dimensional, got ndim={array.ndim}")
        return Tile(array.shape[0], array.shape[1], dtype, array)

    @staticmethod
    def meta(rows: int, cols: int, dtype: Union[str, ElemType] = BF16) -> "Tile":
        """A metadata-only tile (no payload)."""
        return Tile(rows, cols, dtype, None)

    @staticmethod
    def meta_shared(rows: int, cols: int, dtype: Union[str, ElemType] = BF16) -> "Tile":
        """A metadata-only tile, interned per (shape, dtype).

        Metadata tiles carry no payload and nothing downstream mutates tiles,
        so hot paths (load executors, the hardware-function meta fast paths)
        share one instance per shape instead of allocating per element.
        """
        return _shared_meta_tile(int(rows), int(cols), elem_type(dtype))

    # -- properties -----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def has_data(self) -> bool:
        return self.data is not None

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols

    def to_array(self) -> np.ndarray:
        if self.data is None:
            raise TypeMismatchError("metadata-only tile has no payload")
        return self.data

    def like(self, data: Optional[np.ndarray]) -> "Tile":
        """A tile with the same dtype as this one, shaped after ``data``."""
        if data is None:
            return Tile.meta(self.rows, self.cols, self.dtype)
        return Tile.from_array(data, self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        payload = "data" if self.has_data else "meta"
        return f"Tile({self.rows}x{self.cols}, {self.dtype}, {payload})"


class Selector(Value):
    """A multi-hot selector value: which input/output streams are active."""

    __slots__ = ("indices", "num_targets")

    def __init__(self, indices: Union[int, Iterable[int]], num_targets: int):
        if isinstance(indices, int):
            indices = (indices,)
        indices = tuple(sorted(set(int(i) for i in indices)))
        num_targets = int(num_targets)
        for index in indices:
            if not 0 <= index < num_targets:
                raise ShapeError(
                    f"selector index {index} out of range for {num_targets} targets")
        self.indices = indices
        self.num_targets = num_targets

    @property
    def nbytes(self) -> int:
        return max(1, self.num_targets)

    @property
    def is_one_hot(self) -> bool:
        return len(self.indices) == 1

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Selector)
                and self.indices == other.indices
                and self.num_targets == other.num_targets)

    def __hash__(self) -> int:
        return hash((self.indices, self.num_targets))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Selector({list(self.indices)}/{self.num_targets})"


class Address(Value):
    """A runtime address value (used by the random off-chip operators)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    @property
    def nbytes(self) -> int:
        return I32.nbytes

    def __eq__(self, other) -> bool:
        return isinstance(other, Address) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("addr", self.value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Address({self.value})"


#: entry cap of the metadata-tile interning table (emptied whole when full)
_META_TILES_MAXSIZE = 1024
#: (rows, cols, dtype.key) -> the shared metadata tile.  Keyed on the dtype's
#: field tuple, so a lookup hashes in C and unequal dtypes never share a tile
_META_TILES: Dict[Tuple[int, int, tuple], "Tile"] = {}


def _shared_meta_tile(rows: int, cols: int, dtype: "ElemType") -> "Tile":
    key = (rows, cols, dtype.key)
    tile = _META_TILES.get(key)
    if tile is None:
        if len(_META_TILES) >= _META_TILES_MAXSIZE:
            _META_TILES.clear()
        tile = _META_TILES[key] = Tile(rows, cols, dtype, None)
    return tile


class BufferHandle(Value):
    """A runtime read-only reference to an on-chip buffer.

    ``items`` holds the buffered sub-stream in token form (data values and
    stop tokens, *without* a trailing Done); ``rank`` is the bufferize rank.
    """

    __slots__ = ("buffer_id", "items", "rank")

    def __init__(self, items: Sequence, rank: int):
        self.buffer_id = next(_buffer_ids)
        self.items = tuple(items)
        self.rank = int(rank)

    @property
    def data_values(self) -> Tuple[Value, ...]:
        from .stream import Data  # local import to avoid a cycle
        return tuple(item.value for item in self.items if isinstance(item, Data))

    @property
    def num_values(self) -> int:
        return len(self.data_values)

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.data_values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BufferHandle(id={self.buffer_id}, values={self.num_values}, rank={self.rank})"


class TupleValue(Value):
    """A runtime tuple of values (produced by Zip)."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Value]):
        self.elements = tuple(elements)

    @property
    def nbytes(self) -> int:
        return sum(e.nbytes for e in self.elements)

    def __getitem__(self, index: int) -> Value:
        return self.elements[index]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TupleValue({list(self.elements)})"


def value_nbytes(value) -> int:
    """Byte size of any runtime value (plain ints/bools count as 4 bytes)."""
    if isinstance(value, Value):
        return value.nbytes
    if isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, (int, np.integer, float, np.floating)):
        return 4
    raise TypeMismatchError(f"cannot compute byte size of {value!r}")
