"""Tests for the program graph and the frontend handles."""

import pytest

from repro.core.dtypes import TileType
from repro.core.errors import GraphError
from repro.core.graph import InputStream, Program
from repro.core.shape import StreamShape
from repro.ops import Flatten, Map, Promote
from repro.ops.functions import Scale


def small_input(name="x"):
    return InputStream(StreamShape([4, 2]), TileType(1, 8), name=name).stream


class TestHandles:
    def test_shape_and_dtype_exposed(self):
        x = small_input()
        assert x.rank == 1
        assert str(x.shape) == "[4, 2]"
        assert x.dtype.nbytes() == 16

    def test_override_shape(self):
        x = small_input()
        op = Promote(x)
        op.output.override_shape(StreamShape([4, 2]))
        assert op.output.shape.concrete() == (4, 2)

    def test_single_output_property(self):
        x = small_input()
        op = Map(x, Scale(2.0))
        assert op.output == op.outputs[0]
        assert (op.output.producer, op.output.port) == (op, 0)

    def test_handles_are_views_of_the_producer_port(self):
        x = small_input()
        op = Promote(x)
        first, second = op.output, op.outputs[0]
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert first != x and first != Promote(x).output
        first.override_shape(StreamShape([4, 2]))
        assert second.shape.concrete() == (4, 2)
        assert op.output_specs[0] is second.spec
        assert second.name == op.output_names[0] == f"{op.name}.out0"


class TestProgram:
    def test_collects_reachable_operators(self):
        x = small_input()
        a = Map(x, Scale(2.0), name="a")
        b = Flatten(a.output, 0, 1, name="b")
        program = Program([b.output], name="p")
        names = {op.name for op in program.operators}
        assert names == {"x", "a", "b"}

    def test_inputs_listed(self):
        x = small_input("activations")
        program = Program([Map(x, Scale(1.0)).output])
        assert [op.name for op in program.inputs] == ["activations"]
        assert program.input_named("activations").name == "activations"
        with pytest.raises(GraphError):
            program.input_named("missing")

    def test_topological_order_respects_dependencies(self):
        x = small_input()
        a = Map(x, Scale(2.0), name="a")
        b = Map(a.output, Scale(3.0), name="b")
        program = Program([b.output])
        order = [op.name for op in program.topological_order()]
        assert order.index("x") < order.index("a") < order.index("b")

    def test_consumers_of(self):
        x = small_input()
        a = Map(x, Scale(2.0), name="a")
        b = Map(x, Scale(3.0), name="b")
        program = Program([a.output, b.output])
        consumers = {op.name for op, _ in program.consumers_of(x)}
        assert consumers == {"a", "b"}

    def test_operators_of_kind_and_describe(self):
        x = small_input()
        program = Program([Map(x, Scale(1.0)).output])
        assert len(program.operators_of_kind("Map")) == 1
        assert "Map" in program.describe()

    def test_bad_sink_rejected(self):
        with pytest.raises(GraphError):
            Program(["not a sink"])
