"""Lowering a STeP program graph onto the simulation engine.

Lowering creates one engine process per operator, one channel per
producer-consumer edge (output ports with several consumers broadcast to one
channel per consumer), attaches collector processes to the program's sink
handles and wires every off-chip operator to the shared HBM model.

It also derives, per operator, whether its inputs are read from on-chip memory
and whether its outputs are written to on-chip memory: those facts select the
memory terms of the Roofline latency equation (Section 4.3, last sentence).

Everything that depends on the program alone — the channel list and names,
each operator's channel indices, executor and memory facts — is a
:class:`LoweringPlan`, computed on a program's first lowering and kept on it
(a program's operators are fixed at construction).  Each :func:`lower` then
only instantiates the run: channels with the hardware's capacity and
latency, contexts, generators and processes, in the plan's order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import GraphError
from ..core.graph import InputStream, Program
from ..core.stream import Token
from .engine import Engine
from .executors import executor_for
from .executors.common import HardwareConfig, OpContext
from .executors import sources
from .hbm import HBMModel
from .metrics import SimMetrics

#: operator kinds whose outputs come from (on- or off-chip) memory units
_MEMORY_PRODUCERS = {
    "LinearOffChipLoad", "LinearOffChipLoadRef", "RandomOffChipLoad",
    "Bufferize", "Streamify",
}
#: operator kinds whose inputs land in memory units
_MEMORY_CONSUMERS = {
    "LinearOffChipStore", "RandomOffChipStore", "Bufferize",
}
#: operator kinds that allocate compute bandwidth
_COMPUTE_KINDS = {"Map", "Accum", "Scan", "FlatMap"}
#: off-chip stores: their contexts hold a program's stored output tokens
_STORE_KINDS = {"LinearOffChipStore", "RandomOffChipStore"}
#: per-operator plan flags
_FROM_MEMORY, _TO_MEMORY, _COMPUTE, _STORE, _SINK = 1, 2, 4, 8, 16


class LoweringPlan:
    """The run-independent part of lowering a :class:`Program`.

    Channels are numbered in creation order: one per producer-consumer edge
    (consumers in program order, ports in order — so each operator's input
    channels are the next ``len(op.inputs)`` ones), then one per program sink
    handle feeding its collector.  Per operator, in program order, the plan
    keeps its executor (``None`` for an input stream), its output channel
    indices per port and its flags.  It is kept lean — a few parallel lists —
    because it lives as long as its program.
    """

    __slots__ = ("channel_names", "executors", "outs", "flags", "collectors")

    def __init__(self, program: Program):
        names: List[str] = []
        outs: Dict[Tuple[int, int], List[int]] = {
            (op.node_id, port): [] for op in program.operators
            for port in range(len(op.output_specs))}
        #: producers with an output read by a memory-unit consumer
        feeds_memory = set()
        for consumer in program.operators:
            for port, handle in enumerate(consumer.inputs):
                producer = handle.producer
                outs[(producer.node_id, handle.port)].append(len(names))
                names.append(f"{producer.output_names[handle.port]}->{consumer.name}.in{port}")
                if consumer.kind in _MEMORY_CONSUMERS:
                    feeds_memory.add(producer.node_id)

        #: (sink handle name, channel index) per collector
        self.collectors: List[Tuple[str, int]] = []
        for handle in program.sink_handles:
            outs[(handle.producer.node_id, handle.port)].append(len(names))
            self.collectors.append((handle.name, len(names)))
            names.append(f"{handle.name}->collect")
        self.channel_names = names

        self.executors: List[Optional[Callable]] = []
        self.outs: List[Tuple[Tuple[int, ...], ...]] = []
        self.flags: List[int] = []
        for op in program.operators:
            kind = op.kind
            op_outs = tuple(tuple(outs[(op.node_id, port)])
                            for port in range(len(op.output_specs)))
            flags = 0
            if any(handle.producer.kind in _MEMORY_PRODUCERS for handle in op.inputs):
                flags |= _FROM_MEMORY
            if op.node_id in feeds_memory:
                flags |= _TO_MEMORY
            if kind in _COMPUTE_KINDS:
                flags |= _COMPUTE
            if kind in _STORE_KINDS:
                flags |= _STORE
                if not any(op_outs):
                    flags |= _SINK
            self.executors.append(None if isinstance(op, InputStream) else executor_for(op))
            self.outs.append(op_outs)
            self.flags.append(flags)

    @classmethod
    def of(cls, program: Program) -> "LoweringPlan":
        """``program``'s plan, computed on first use and kept on the program."""
        plan = program.lowering_plan
        if plan is None:
            plan = program.lowering_plan = cls(program)
        return plan


class LoweredProgram:
    """The result of lowering: an engine ready to run plus bookkeeping."""

    def __init__(self, engine: Engine, program: Program,
                 contexts: Dict[str, OpContext],
                 sink_contexts: Dict[str, OpContext]):
        self.engine = engine
        self.program = program
        self.contexts = contexts
        #: collector name -> context holding the collected output tokens
        self.sink_contexts = sink_contexts

    def run(self) -> SimMetrics:
        return self.engine.run()

    def output_tokens(self, name: str) -> List[Token]:
        ctx = self.sink_contexts.get(name)
        if ctx is None:
            raise GraphError(
                f"no collected output named {name!r}; available: {sorted(self.sink_contexts)}")
        return list(ctx.results)


def lower(program: Program, inputs: Optional[Dict[str, Sequence[Token]]] = None,
          hardware: Optional[HardwareConfig] = None, timed: bool = True,
          hbm: Optional[HBMModel] = None, metrics: Optional[SimMetrics] = None,
          input_rates: Optional[Dict[str, float]] = None) -> LoweredProgram:
    """Lower ``program`` onto an :class:`Engine`.

    Parameters
    ----------
    inputs:
        Token streams for every :class:`InputStream` node, keyed by node name.
    hardware:
        Hardware configuration (bandwidths, latencies).
    timed:
        ``False`` turns the engine into a functional interpreter.
    hbm:
        Off-chip memory model; defaults to an :class:`HBMModel` built from the
        hardware configuration.
    input_rates:
        Optional cycles-per-token pacing for specific input streams.
    """
    plan = LoweringPlan.of(program)
    hardware = hardware or HardwareConfig()
    inputs = inputs or {}
    input_rates = input_rates or {}
    if hbm is None:
        hbm = HBMModel(bandwidth=hardware.offchip_bandwidth, latency=hardware.offchip_latency)
    engine = Engine(timed=timed, hbm=hbm, metrics=metrics)
    metrics = engine.metrics
    capacity, latency = hardware.channel_capacity, hardware.channel_latency
    channels = [engine.add_channel(name=name, capacity=capacity, latency=latency)
                for name in plan.channel_names]

    contexts: Dict[str, OpContext] = {}
    sink_contexts: Dict[str, OpContext] = {}
    first_in = 0  # the operator's first input channel
    for op, executor, op_outs, flags in zip(program.operators, plan.executors,
                                            plan.outs, plan.flags):
        ctx = OpContext(op_name=op.name, metrics=metrics, hardware=hardware,
                        inputs_from_memory=bool(flags & _FROM_MEMORY),
                        outputs_to_memory=bool(flags & _TO_MEMORY), engine=engine)
        contexts[op.name] = ctx
        ins = channels[first_in:first_in + len(op.inputs)]
        first_in += len(ins)
        outs = [[channels[i] for i in port] for port in op_outs]
        if executor is None:
            tokens = inputs.get(op.name)
            if tokens is None:
                raise GraphError(
                    f"missing input tokens for input stream {op.name!r}; "
                    f"provided: {sorted(inputs)}")
            engine.add_process(op.name, sources.input_source(
                tokens, outs, ctx, cycles_per_token=input_rates.get(op.name, 0.0)))
            continue
        if flags & _COMPUTE:
            metrics.record_compute_bw(op.name, getattr(op, "compute_bw", 0))
        engine.add_process(op.name, executor(op, ins, outs, ctx),
                           is_sink=bool(flags & _SINK))
        if flags & _STORE:
            sink_contexts.setdefault(op.name, ctx)

    for name, index in plan.collectors:
        ctx = OpContext(op_name=f"collect:{name}", metrics=metrics, hardware=hardware)
        sink_contexts[name] = ctx
        engine.add_process(f"collect:{name}", sources.collector([channels[index]], ctx),
                           is_sink=True)

    return LoweredProgram(engine, program, contexts, sink_contexts)
