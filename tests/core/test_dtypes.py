"""Tests for data-type descriptors and runtime values."""

import numpy as np
import pytest

from repro.core.dims import Dim
from repro.core.dtypes import (BF16, F32, Address, AddressType, BufferHandle, BufferType,
                               ElemType, Selector, SelectorType, Tile, TileType, TupleType,
                               TupleValue, elem_type, value_nbytes)
from repro.core.errors import ShapeError, TypeMismatchError
from repro.core.stream import Data, Stop


class TestElemTypes:
    def test_lookup(self):
        assert elem_type("bf16") is BF16
        assert elem_type(F32) is F32
        with pytest.raises(TypeMismatchError):
            elem_type("f64")

    def test_byte_widths(self):
        assert BF16.nbytes == 2
        assert F32.nbytes == 4

    def test_hash_agrees_with_equality(self):
        # hashed on the name alone; ``key`` holds every field equality compares
        twin = ElemType("bf16", 2, np.float32)
        assert twin == BF16 and twin is not BF16
        assert hash(twin) == hash(BF16) == hash("bf16")
        assert {twin: 1}[BF16] == 1
        assert twin.key == BF16.key and hash(twin.key) == hash(BF16.key)
        wide = ElemType("bf16", 4, np.float32)
        assert wide != BF16 and wide.key != BF16.key
        builtins = [elem_type(name) for name in ("bf16", "f32", "f16", "i32", "i8", "bool")]
        assert len(set(builtins)) == 6
        assert len({hash(t) for t in builtins}) == 6


class TestTileType:
    def test_static_bytes(self):
        t = TileType(16, 64, "bf16")
        assert t.nbytes() == 16 * 64 * 2
        assert t.is_static

    def test_dynamic_bytes(self):
        t = TileType(Dim.dynamic("D"), 64, "bf16")
        assert not t.is_static
        assert t.nbytes({"D": 8}) == 8 * 64 * 2

    def test_with_rows(self):
        t = TileType(4, 8).with_rows(16)
        assert t.concrete_shape() == (16, 8)


class TestBufferAndTuple:
    def test_buffer_type_cardinality(self):
        b = BufferType(TileType(1, 64), [Dim.dynamic("D"), 2])
        assert b.rank == 2
        assert b.cardinality().evaluate({"D": 3}) == 6
        assert b.nbytes({"D": 3}) == 6 * 64 * 2

    def test_tuple_type(self):
        t = TupleType([TileType(1, 4), TileType(1, 8)])
        assert t.nbytes() == (4 + 8) * 2

    def test_selector_and_address_types(self):
        assert SelectorType(8).nbytes() == 8
        assert AddressType().nbytes() == 4


class TestTileValue:
    def test_zeros_and_from_array(self):
        t = Tile.zeros(2, 3)
        assert t.shape == (2, 3) and t.has_data
        assert np.allclose(t.to_array(), 0)
        u = Tile.from_array(np.arange(6).reshape(2, 3))
        assert u.nbytes == 12

    def test_meta_tile(self):
        t = Tile.meta(4, 4)
        assert not t.has_data and t.nbytes == 32
        with pytest.raises(TypeMismatchError):
            t.to_array()

    def test_shared_meta_tiles_follow_dtype_equality(self):
        twin = ElemType("bf16", 2, np.float32)
        wide = ElemType("bf16", 4, np.float32)  # hashes as BF16, unequal to it
        shared = Tile.meta_shared(4, 4, BF16)
        assert Tile.meta_shared(4, 4, "bf16") is shared
        assert Tile.meta_shared(4, 4, twin) is shared
        other = Tile.meta_shared(4, 4, wide)
        assert other is not shared
        assert other.dtype == wide and other.nbytes == 4 * 4 * 4
        assert shared.dtype == BF16 and shared.nbytes == 4 * 4 * 2
        assert Tile.meta_shared(4, 8, BF16) is not shared

    def test_shared_meta_tiles_are_interned_in_a_bounded_table(self, monkeypatch):
        from repro.core import dtypes

        monkeypatch.setattr(dtypes, "_META_TILES", {})
        monkeypatch.setattr(dtypes, "_META_TILES_MAXSIZE", 4)
        tiles = [Tile.meta_shared(rows, 2) for rows in range(1, 10)]
        assert len(dtypes._META_TILES) <= 4
        assert [t.rows for t in tiles] == list(range(1, 10))
        # no interning key holds an ElemType, whose hash runs in Python
        assert not any(isinstance(part, ElemType)
                       for key in dtypes._META_TILES for part in key)

    def test_1d_array_promoted_to_row(self):
        t = Tile.from_array(np.arange(5))
        assert t.shape == (1, 5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Tile(2, 2, data=np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            Tile(-1, 2)


class TestSelectorValue:
    def test_one_hot(self):
        s = Selector(3, 8)
        assert s.indices == (3,) and s.is_one_hot

    def test_multi_hot_sorted_unique(self):
        s = Selector([5, 1, 5], 8)
        assert s.indices == (1, 5) and not s.is_one_hot

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            Selector(8, 8)

    def test_equality(self):
        assert Selector([1, 2], 4) == Selector([2, 1], 4)
        assert Selector(1, 4) != Selector(1, 8)


class TestBufferHandle:
    def test_contents_and_bytes(self):
        items = [Data(Tile.meta(1, 8)), Stop(1), Data(Tile.meta(1, 8))]
        handle = BufferHandle(items, rank=1)
        assert handle.num_values == 2
        assert handle.nbytes == 2 * 8 * 2


class TestValueBytes:
    def test_tuple_value(self):
        v = TupleValue([Tile.meta(1, 4), Tile.meta(1, 8)])
        assert len(v) == 2 and v.nbytes == (4 + 8) * 2

    def test_scalars(self):
        assert value_nbytes(5) == 4
        assert value_nbytes(True) == 1
        assert value_nbytes(Address(7)) == 4
        with pytest.raises(TypeMismatchError):
            value_nbytes("not a value")
