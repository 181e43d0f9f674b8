"""The STeP program graph.

A STeP program is an asynchronous dataflow graph: nodes are operators
(Section 3.2), edges are streams.  This module defines the graph plumbing the
operator classes in :mod:`repro.ops` build on:

* :class:`StreamSpec` — the static description of a stream (shape + data type),
* :class:`StreamHandle` — a view of one output port of one operator, whose
  :class:`StreamSpec` the operator holds; this is what the symbolic Python
  frontend hands back to the user (``output.stream.shape`` in Listing 1),
* :class:`OperatorBase` — the graph-node behaviour every operator inherits,
* :class:`InputStream` — a source node whose tokens are supplied at run time,
* :class:`Program` — a validated collection of operators reachable from a set
  of sink/output handles, with topological ordering utilities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .dtypes import DataType
from .errors import GraphError
from .shape import StreamShape, shape_of

_node_ids = itertools.count()


@dataclass(frozen=True)
class StreamSpec:
    """Static description of a stream: its shape and its data type."""

    shape: StreamShape
    dtype: DataType

    def with_shape(self, shape) -> "StreamSpec":
        return StreamSpec(shape_of(shape), self.dtype)

    def with_dtype(self, dtype: DataType) -> "StreamSpec":
        return StreamSpec(self.shape, dtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.shape} of {self.dtype}"


class StreamHandle:
    """A reference to one output stream of one operator.

    The handle is what flows through the frontend API: operators take handles
    as inputs and return handles as outputs.  ``handle.shape`` and
    ``handle.dtype`` expose the symbolic stream shape and data type so that
    programs can be inspected (Listing 1 line 27) and known program properties
    can be re-imposed (Listing 1 line 26) via :meth:`override_shape`.

    A handle is a ``(producer, port)`` view with no state of its own: the
    port's spec and name live on the producer (``output_specs`` /
    ``output_names``), and two handles of the same port are equal.  Only
    consumers reference their producers, so a program graph without feedback
    edges holds no reference cycle and is freed by reference counting.
    """

    __slots__ = ("producer", "port")

    def __init__(self, producer: "OperatorBase", port: int):
        self.producer = producer
        self.port = port

    # -- inspection ------------------------------------------------------------
    @property
    def spec(self) -> StreamSpec:
        return self.producer.output_specs[self.port]

    @property
    def name(self) -> str:
        return self.producer.output_names[self.port]

    @property
    def shape(self) -> StreamShape:
        return self.spec.shape

    @property
    def dtype(self) -> DataType:
        return self.spec.dtype

    @property
    def rank(self) -> int:
        return self.spec.shape.rank

    # -- user shape overrides ----------------------------------------------------
    def override_shape(self, shape) -> "StreamHandle":
        """Replace the symbolic shape with a user-supplied one.

        STeP lets programmers substitute known program properties for the
        fresh symbols an operator introduces; the output of Reassemble in
        Listing 1, for example, is known to have the same shape as the routed
        input stream, which may even collapse dimensions the generic shape
        semantics keep separate.
        """
        specs = self.producer.output_specs
        specs[self.port] = specs[self.port].with_shape(shape_of(shape))
        return self

    def __eq__(self, other) -> bool:
        return (isinstance(other, StreamHandle) and self.producer is other.producer
                and self.port == other.port)

    def __hash__(self) -> int:
        return hash((id(self.producer), self.port))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamHandle({self.name}: {self.spec})"


class OperatorBase:
    """Common graph-node behaviour for all STeP operators.

    Subclasses call :meth:`_set_inputs` / :meth:`_add_output` from their
    ``__init__`` after computing their output shape semantics.
    """

    #: Short operator kind name, overridden by subclasses ("Map", "Partition", ...).
    kind: str = "Operator"

    def __init__(self, name: Optional[str] = None):
        self.node_id = next(_node_ids)
        self.name = name or f"{self.kind.lower()}_{self.node_id}"
        self.inputs: List[StreamHandle] = []
        #: per output port: its stream spec and its name
        self.output_specs: List[StreamSpec] = []
        self.output_names: List[str] = []
        #: Free-form attributes used by the simulator lowering (compute bandwidth,
        #: memory placement hints, ...).
        self.attributes: Dict[str, object] = {}

    # -- wiring ------------------------------------------------------------------
    def _set_inputs(self, handles: Sequence[StreamHandle]) -> None:
        for handle in handles:
            if not isinstance(handle, StreamHandle):
                raise GraphError(
                    f"{self.kind} {self.name!r} expected StreamHandle inputs, got {handle!r}")
        self.inputs = list(handles)

    def _add_output(self, shape, dtype: DataType, name: Optional[str] = None) -> StreamHandle:
        port = len(self.output_specs)
        self.output_specs.append(StreamSpec(shape_of(shape), dtype))
        self.output_names.append(f"{self.name}.{name}" if name else f"{self.name}.out{port}")
        return StreamHandle(self, port)

    # -- convenience ---------------------------------------------------------------
    @property
    def outputs(self) -> List[StreamHandle]:
        """A handle per output port (fresh views; equal to earlier ones)."""
        return [StreamHandle(self, port) for port in range(len(self.output_specs))]

    @property
    def output(self) -> StreamHandle:
        """The sole output handle (raises if the operator has 0 or 2+ outputs)."""
        if len(self.output_specs) != 1:
            raise GraphError(
                f"{self.kind} {self.name!r} has {len(self.output_specs)} outputs; "
                f"use .outputs[i]")
        return StreamHandle(self, 0)

    @property
    def upstream(self) -> List["OperatorBase"]:
        return [handle.producer for handle in self.inputs]

    def describe(self) -> str:
        ins = ", ".join(str(h.shape) for h in self.inputs)
        outs = ", ".join(str(h.shape) for h in self.outputs)
        return f"{self.kind}({self.name}): [{ins}] -> [{outs}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.kind} {self.name}>"


class InputStream(OperatorBase):
    """A source node whose token stream is provided when the program runs."""

    kind = "Input"

    def __init__(self, shape, dtype: DataType, name: Optional[str] = None):
        super().__init__(name=name)
        self._set_inputs([])
        self._add_output(shape, dtype, name="stream")

    @property
    def stream(self) -> StreamHandle:
        return self.outputs[0]


class Program:
    """A validated STeP program: all operators reachable from the given sinks.

    Parameters
    ----------
    sinks:
        Stream handles and/or operators that constitute the program outputs.
        Operators with no outputs (e.g. off-chip stores) can be passed
        directly.
    name:
        Optional program name used in reports.
    """

    def __init__(self, sinks: Sequence[Union[StreamHandle, OperatorBase]], name: str = "program"):
        self.name = name
        self.sink_handles: List[StreamHandle] = []
        sink_ops: List[OperatorBase] = []
        for sink in sinks:
            if isinstance(sink, StreamHandle):
                self.sink_handles.append(sink)
                sink_ops.append(sink.producer)
            elif isinstance(sink, OperatorBase):
                sink_ops.append(sink)
            else:
                raise GraphError(f"program sinks must be handles or operators, got {sink!r}")
        self.operators: List[OperatorBase] = self._collect(sink_ops)
        self._validate()
        #: the simulator's :class:`~repro.sim.lowering.LoweringPlan`, computed
        #: on first lowering (the operators above are fixed from here on)
        self.lowering_plan = None

    # -- construction --------------------------------------------------------------
    @staticmethod
    def _collect(sink_ops: Sequence[OperatorBase]) -> List[OperatorBase]:
        seen: Dict[int, OperatorBase] = {}
        stack = list(sink_ops)
        while stack:
            op = stack.pop()
            if op.node_id in seen:
                continue
            seen[op.node_id] = op
            stack.extend(op.upstream)
        # Deterministic order: by construction id.
        return sorted(seen.values(), key=lambda op: op.node_id)

    def _validate(self) -> None:
        ids = {op.node_id for op in self.operators}
        for op in self.operators:
            for handle in op.inputs:
                if handle.producer.node_id not in ids:
                    raise GraphError(
                        f"{op.name} consumes {handle.name} whose producer is not "
                        f"reachable from the program sinks")

    # -- queries ---------------------------------------------------------------------
    @property
    def inputs(self) -> List[InputStream]:
        return [op for op in self.operators if isinstance(op, InputStream)]

    def input_named(self, name: str) -> InputStream:
        for op in self.inputs:
            if op.name == name:
                return op
        raise GraphError(f"no input stream named {name!r}")

    def operators_of_kind(self, kind: str) -> List[OperatorBase]:
        return [op for op in self.operators if op.kind == kind]

    def consumers_of(self, handle: StreamHandle) -> List[Tuple[OperatorBase, int]]:
        """All (operator, input-port-index) pairs reading ``handle``."""
        found = []
        for op in self.operators:
            for port, inp in enumerate(op.inputs):
                if inp == handle:
                    found.append((op, port))
        return found

    def topological_order(self) -> List[OperatorBase]:
        """Topological order over the acyclic part of the graph.

        Feedback edges (used by dynamic parallelization's availability loop)
        are broken by falling back to construction order for any remainder.
        """
        remaining = {op.node_id: set() for op in self.operators}
        by_id = {op.node_id: op for op in self.operators}
        for op in self.operators:
            for handle in op.inputs:
                remaining[op.node_id].add(handle.producer.node_id)
        order: List[OperatorBase] = []
        ready = sorted([nid for nid, deps in remaining.items() if not deps])
        remaining = {nid: deps for nid, deps in remaining.items() if deps}
        while ready:
            nid = ready.pop(0)
            order.append(by_id[nid])
            newly_ready = []
            for other, deps in list(remaining.items()):
                deps.discard(nid)
                if not deps:
                    newly_ready.append(other)
                    del remaining[other]
            ready.extend(sorted(newly_ready))
        # Cycles: append leftover nodes in construction order.
        for nid in sorted(remaining):
            order.append(by_id[nid])
        return order

    def describe(self) -> str:
        lines = [f"Program {self.name!r} ({len(self.operators)} operators)"]
        for op in self.topological_order():
            lines.append("  " + op.describe())
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)
