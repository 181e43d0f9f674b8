"""Shared infrastructure for operator executors.

An *executor* is a generator implementing one operator's functional and timing
semantics against the engine's effect protocol (see :mod:`repro.sim.engine`).
Executors receive

* the operator instance (for its parameters),
* ``ins`` — one input :class:`~repro.sim.channel.Channel` per input port,
* ``outs`` — a list of channels per output port (an output port may feed
  several consumers, in which case tokens are broadcast, or none),
* an :class:`OpContext` carrying the hardware configuration, the metrics
  collector, lowering-derived facts (whether inputs/outputs touch on-chip
  memory) and the engine running the executor.

Executors on the hot token paths first try each effect inline through
:func:`inline_effects` and yield it only when the engine declines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from ...core.dtypes import Tile, value_nbytes
from ...core.stream import DONE, Data, Token, stop_token
from ..channel import Channel
from ..engine import MISS
from ..metrics import SimMetrics

if TYPE_CHECKING:
    from ..engine import Engine


@dataclass
class HardwareConfig:
    """Hardware parameters of the simulated SDA (paper Sections 4.5 and 5.1)."""

    #: per-memory-unit on-chip bandwidth in bytes/cycle (64 in the evaluation)
    onchip_bandwidth: float = 64.0
    #: aggregate off-chip bandwidth in bytes/cycle (1024 in the evaluation)
    offchip_bandwidth: float = 1024.0
    #: fixed off-chip access latency in cycles
    offchip_latency: float = 100.0
    #: physical compute-tile edge (the fabric operates on 16x16 BF16 tiles)
    compute_tile: int = 16
    #: FIFO latency in cycles between adjacent operators
    channel_latency: float = 1.0
    #: default FIFO capacity (None = unbounded; see DESIGN.md)
    channel_capacity: Optional[int] = None
    #: "roofline" (Section 4.3, the cycle-approximate model) or "detailed"
    #: (physical-tile-granular timing used by the HDL-substitute reference)
    timing_model: str = "roofline"


@dataclass
class OpContext:
    """Per-operator context handed to its executor."""

    op_name: str
    metrics: SimMetrics
    hardware: HardwareConfig
    #: True when this operator's inputs are read from on-chip memory rather
    #: than arriving directly through FIFOs (charges the Roofline memory term)
    inputs_from_memory: bool = False
    #: True when this operator's outputs are written to on-chip memory
    outputs_to_memory: bool = False
    #: collected output tokens for program sinks (filled by collector/store executors)
    results: List[Token] = field(default_factory=list)
    #: the engine running the executor (set by lowering), for inline effects
    engine: Optional["Engine"] = field(default=None, repr=False, compare=False)

    # -- metric helpers ------------------------------------------------------------
    def record_element(self, cycles: float, flops: int = 0) -> None:
        self.metrics.record_element(self.op_name, cycles, flops)

    def record_onchip(self, nbytes: int) -> None:
        self.metrics.record_onchip(self.op_name, nbytes)

    def record_buffer(self, nbytes: int) -> None:
        self.metrics.record_buffer(self.op_name, nbytes)

    def roofline_cycles(self, in_bytes: float, flops: float, out_bytes: float,
                        compute_bw: float) -> float:
        """Per-element latency.

        In the default ``roofline`` timing model this is the Section 4.3
        equation.  The ``detailed`` model (used by the HDL-substitute reference
        simulator, Section 4.5) instead times the element at physical-tile
        granularity: compute is issued as 16x16x16 MAC tiles with an initiation
        interval of one per allocated tile engine, and on-chip transfers move
        one 16x16 physical tile per cycle, including the padding a real fabric
        would incur for partial tiles.
        """
        if self.hardware.timing_model == "detailed":
            return self._detailed_cycles(in_bytes, flops, out_bytes, compute_bw)
        best = 1.0
        if compute_bw > 0:
            term = flops / compute_bw
            if term > best:
                best = term
        onchip_bw = self.hardware.onchip_bandwidth
        if onchip_bw > 0:
            if self.inputs_from_memory:
                term = in_bytes / onchip_bw
                if term > best:
                    best = term
            if self.outputs_to_memory:
                term = out_bytes / onchip_bw
                if term > best:
                    best = term
        return best

    def _detailed_cycles(self, in_bytes: float, flops: float, out_bytes: float,
                         compute_bw: float) -> float:
        tile = self.hardware.compute_tile
        tile_bytes = tile * tile * 2  # BF16 physical tiles
        mac_tile_flops = 2 * tile * tile * tile
        tile_engines = max(1, int(compute_bw // (tile * tile * 2)))
        terms = [1.0]
        if flops > 0:
            mac_tiles = -(-int(flops) // mac_tile_flops)
            terms.append(mac_tiles / tile_engines)
        if self.inputs_from_memory and in_bytes > 0:
            terms.append(-(-int(in_bytes) // tile_bytes))
        if self.outputs_to_memory and out_bytes > 0:
            terms.append(-(-int(out_bytes) // tile_bytes))
        return float(max(terms))


class OutputBuilder:
    """Builds a well-formed output token sequence incrementally.

    The builder holds at most one pending stop token and merges adjacent stops
    into the highest level (the paper's absorption rule).  Methods return the
    list of tokens that became final, which the executor pushes to its output
    channels.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: Optional[int] = None

    def data(self, value) -> List[Token]:
        pending = self._pending
        if pending is None:
            return [Data(value)]
        self._pending = None
        return [stop_token(pending), Data(value)]

    def stop(self, level: int) -> List[Token]:
        if level >= 1:
            self._pending = level if self._pending is None else max(self._pending, level)
        return []

    def flush(self) -> List[Token]:
        if self._pending is None:
            return []
        level, self._pending = self._pending, None
        return [stop_token(level)]

    def done(self) -> List[Token]:
        return self.flush() + [DONE]

    @property
    def pending(self) -> Optional[int]:
        return self._pending


def _decline_pop(channel_or_channels):
    return MISS


def _decline_push(channels: Sequence[Channel], tokens: Sequence[Token]) -> tuple:
    return ("push_many", channels, tokens)


def _decline_tick(cycles: float) -> tuple:
    return ("tick", cycles)


def _decline_tick_push(cycles: float, channels: Sequence[Channel],
                       tokens: Sequence[Token]) -> tuple:
    return ("tick_push_many", cycles, channels, tokens)


#: stand-ins for the inline effects that always decline
DECLINE = (_decline_pop, _decline_pop, _decline_push, _decline_tick, _decline_tick_push)


def inline_effects(ctx: OpContext) -> tuple:
    """``(pop, pop_any, push, tick, tick_push)``: the engine's inline effects.

    ``pop(ch)`` and ``pop_any(chs)`` return what their effect would, or
    :data:`~repro.sim.engine.MISS`; the others return None once done, else the
    effect to yield instead.  Usage::

        token = pop(channel)
        if token is MISS:
            token = yield ("pop", channel)
        effect = push(out_channels, (token,))
        if effect is not None:
            yield effect

    Without an engine on ``ctx`` (an executor driven by hand) every effect
    declines, so the executor falls back to yielding.
    """
    engine = ctx.engine
    if engine is None:
        return DECLINE
    return (engine.pop_now, engine.pop_any_now, engine.push_now, engine.tick_now,
            engine.tick_push_now)


def push_all(channels: Sequence[Channel], token: Token) -> tuple:
    """The batched effect broadcasting ``token`` to every channel.

    Usage: ``yield push_all(outs, token)`` — one engine round-trip regardless
    of fan-out (previously a generator yielding one push per channel).
    """
    return ("push_all", channels, token)


def push_tokens(channels: Sequence[Channel], tokens: Sequence[Token]) -> tuple:
    """The batched effect pushing a token run to every channel (tokens outer).

    Usage: ``yield push_tokens(outs, tokens)``.  An empty run is a no-op
    effect, so callers may pass builder output unconditionally.
    """
    return ("push_many", channels, tokens)


def token_bytes(token: Token) -> int:
    """Byte size of a data token's payload (stop/done tokens are free)."""
    if isinstance(token, Data):
        return value_nbytes(token.value)
    return 0


def matmul_onchip_bytes(in_tile: Tile, weight_tile: Tile, out_tile: Optional[Tile],
                        compute_tile: int = 16) -> int:
    """Section 4.2 on-chip requirement for matmul Map/Accum operators.

    ``16 x in_tile_col + |weight tile| + |output tile|`` — the 16 factor mirrors
    the decomposition of STeP-level tiles into 16x16 hardware tiles; the output
    tile is included only for Accum (pass ``None`` otherwise).
    """
    total = compute_tile * in_tile.cols * in_tile.dtype.nbytes
    total += weight_tile.nbytes
    if out_tile is not None:
        total += out_tile.nbytes
    return total
