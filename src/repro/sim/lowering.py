"""Lowering a STeP program graph onto the simulation engine.

Lowering creates one engine process per operator, one channel per
producer-consumer edge (output ports with several consumers broadcast to one
channel per consumer), attaches collector processes to the program's sink
handles and wires every off-chip operator to the shared HBM model.

It also derives, per operator, whether its inputs are read from on-chip memory
and whether its outputs are written to on-chip memory: those facts select the
memory terms of the Roofline latency equation (Section 4.3, last sentence).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import GraphError
from ..core.graph import InputStream, OperatorBase, Program
from ..core.stream import Token
from .channel import Channel
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
    hardware = hardware or HardwareConfig()
    inputs = inputs or {}
    input_rates = input_rates or {}
    if hbm is None:
        hbm = HBMModel(bandwidth=hardware.offchip_bandwidth, latency=hardware.offchip_latency)
    engine = Engine(timed=timed, hbm=hbm, metrics=metrics)

    # -- channels -------------------------------------------------------------------
    # consumer-side: op name -> list of channels, one per input port
    in_channels: Dict[int, List[Channel]] = {}
    # producer-side: (producer node id, port) -> list of channels (fan-out)
    out_channels: Dict[Tuple[int, int], List[Channel]] = {}
    for op in program.operators:
        out_channels.update({(op.node_id, port): [] for port in range(len(op.output_specs))})

    #: (producer node id, port) -> consumer operator kinds (one pass over the
    #: edges, replacing per-operator O(V*E) consumers_of scans during context
    #: setup)
    consumer_kinds: Dict[Tuple[int, int], List[str]] = {}
    for handle, consumer, port in program.edges():
        consumer_kinds.setdefault((handle.producer.node_id, handle.port),
                                  []).append(consumer.kind)
        channel = engine.add_channel(
            name=f"{handle.name}->{consumer.name}.in{port}",
            capacity=hardware.channel_capacity,
            latency=hardware.channel_latency)
        in_channels.setdefault(consumer.node_id, [None] * len(consumer.inputs))
        in_channels[consumer.node_id][port] = channel
        out_channels[(handle.producer.node_id, handle.port)].append(channel)

    # -- collectors for program sink handles -------------------------------------------
    sink_contexts: Dict[str, OpContext] = {}
    collector_specs: List[Tuple[str, Channel]] = []
    for handle in program.sink_handles:
        channel = engine.add_channel(name=f"{handle.name}->collect",
                                     capacity=hardware.channel_capacity,
                                     latency=hardware.channel_latency)
        out_channels[(handle.producer.node_id, handle.port)].append(channel)
        collector_specs.append((handle.name, channel))

    # -- processes ---------------------------------------------------------------------
    contexts: Dict[str, OpContext] = {}
    for op in program.operators:
        ctx = OpContext(
            op_name=op.name,
            metrics=engine.metrics,
            hardware=hardware,
            inputs_from_memory=_inputs_from_memory(op),
            outputs_to_memory=_outputs_to_memory(op, consumer_kinds),
            engine=engine,
        )
        contexts[op.name] = ctx
        ins = in_channels.get(op.node_id, [])
        outs = [out_channels[(op.node_id, port)] for port in range(len(op.output_specs))]

        if isinstance(op, InputStream):
            tokens = inputs.get(op.name)
            if tokens is None:
                raise GraphError(
                    f"missing input tokens for input stream {op.name!r}; "
                    f"provided: {sorted(inputs)}")
            generator = sources.input_source(tokens, outs, ctx,
                                             cycles_per_token=input_rates.get(op.name, 0.0))
            engine.add_process(op.name, generator)
            continue

        if op.kind in _COMPUTE_KINDS:
            engine.metrics.record_compute_bw(op.name, getattr(op, "compute_bw", 0))

        executor = executor_for(op)
        generator = executor(op, ins, outs, ctx)
        is_sink = op.kind in ("LinearOffChipStore", "RandomOffChipStore") and not any(
            out_channels[(op.node_id, port)] for port in range(len(op.output_specs)))
        engine.add_process(op.name, generator, is_sink=is_sink)
        if op.kind in ("LinearOffChipStore", "RandomOffChipStore"):
            sink_contexts.setdefault(op.name, ctx)

    for name, channel in collector_specs:
        ctx = OpContext(op_name=f"collect:{name}", metrics=engine.metrics, hardware=hardware)
        sink_contexts[name] = ctx
        engine.add_process(f"collect:{name}", sources.collector([channel], ctx), is_sink=True)

    return LoweredProgram(engine, program, contexts, sink_contexts)


def _inputs_from_memory(op: OperatorBase) -> bool:
    return any(handle.producer.kind in _MEMORY_PRODUCERS for handle in op.inputs)


def _outputs_to_memory(op: OperatorBase,
                       consumer_kinds: Dict[Tuple[int, int], List[str]]) -> bool:
    for port in range(len(op.output_specs)):
        for kind in consumer_kinds.get((op.node_id, port), ()):
            if kind in _MEMORY_CONSUMERS:
                return True
    return False
