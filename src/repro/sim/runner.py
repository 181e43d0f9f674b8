"""High-level entry points for running STeP programs on the simulator."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..core.graph import Program
from ..core.stream import Token, data_values
from .executors.common import HardwareConfig
from .hbm import HBMModel
from .lowering import lower
from .metrics import SimMetrics

#: the flat metric keys a serialized report carries — exactly the payload the
#: sweep result cache stores (see :func:`repro.sweep.tasks.report_metrics`)
SERIALIZED_METRIC_KEYS = (
    "cycles",
    "offchip_traffic_bytes",
    "onchip_memory_bytes",
    "total_flops",
    "allocated_compute_flops_per_cycle",
    "compute_utilization",
    "offchip_bw_utilization",
)


class _RestoredMetrics(SimMetrics):
    """Metrics restored from a flat payload: aggregates are stored, not derived.

    A restored report has no per-operator breakdown; its aggregate accessors
    return the serialized values verbatim so ``to_dict(from_dict(d)) == d``
    holds bit-for-bit.
    """

    def __init__(self, payload: Dict[str, float]):
        super().__init__()
        missing = [key for key in SERIALIZED_METRIC_KEYS if key not in payload]
        if missing:
            raise KeyError(f"restored report payload is missing {missing}")
        self._restored = {key: float(payload[key]) for key in SERIALIZED_METRIC_KEYS}
        self.cycles = self._restored["cycles"]

    @property
    def offchip_traffic(self):
        return self._restored["offchip_traffic_bytes"]

    @property
    def onchip_memory(self):
        return self._restored["onchip_memory_bytes"]

    @property
    def total_flops(self):
        return self._restored["total_flops"]

    @property
    def allocated_compute(self):
        return self._restored["allocated_compute_flops_per_cycle"]

    def compute_utilization(self, cycles: Optional[float] = None) -> float:
        return self._restored["compute_utilization"]

    def offchip_bw_utilization(self, cycles: Optional[float] = None) -> float:
        return self._restored["offchip_bw_utilization"]


@dataclass
class SimReport:
    """The result of one simulation run."""

    cycles: float
    metrics: SimMetrics
    outputs: Dict[str, List[Token]] = field(default_factory=dict)
    hardware: Optional[HardwareConfig] = None

    # -- convenience accessors ------------------------------------------------------
    @property
    def offchip_traffic(self) -> int:
        return self.metrics.offchip_traffic

    @property
    def onchip_memory(self) -> int:
        return self.metrics.onchip_memory

    @property
    def total_flops(self) -> int:
        return self.metrics.total_flops

    @property
    def allocated_compute(self) -> int:
        return self.metrics.allocated_compute

    @property
    def compute_utilization(self) -> float:
        return self.metrics.compute_utilization(self.cycles)

    @property
    def offchip_bw_utilization(self) -> float:
        return self.metrics.offchip_bw_utilization(self.cycles)

    def output_tokens(self, name: str) -> List[Token]:
        return self.outputs[name]

    def output_values(self, name: str) -> list:
        return data_values(self.outputs[name])

    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()

    # -- serialization (symmetric with the sweep cache's flat payloads) -------------
    def to_dict(self) -> Dict[str, float]:
        """The flat, JSON-able metric payload the sweep result cache stores."""
        return {
            "cycles": float(self.cycles),
            "offchip_traffic_bytes": float(self.offchip_traffic),
            "onchip_memory_bytes": float(self.onchip_memory),
            "total_flops": float(self.total_flops),
            "allocated_compute_flops_per_cycle": float(self.allocated_compute),
            "compute_utilization": float(self.compute_utilization),
            "offchip_bw_utilization": float(self.offchip_bw_utilization),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "SimReport":
        """Rebuild a report from :meth:`to_dict`'s payload.

        The restored report exposes the aggregate metrics bit-identically
        (``report.to_dict() == payload``); the per-operator breakdown, output
        tokens and hardware configuration are not serialized.
        """
        metrics = _RestoredMetrics(payload)
        return cls(cycles=metrics.cycles, metrics=metrics)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Switch the cyclic garbage collector off for the ``with`` block.

    Building, feeding and simulating a program allocates many objects that
    reference counting frees (run state is acyclic), yet each allocation
    burst triggers collections that scan every live graph and token list.
    The block runs with the collector off; on exit, exceptions included, the
    caller's state is restored, so a nested block changes nothing.  Cyclic
    garbage made inside waits for the first collection after the block.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def simulate(program: Program, inputs: Optional[Dict[str, Sequence[Token]]] = None,
             hardware: Optional[HardwareConfig] = None, timed: bool = True,
             hbm: Optional[HBMModel] = None,
             input_rates: Optional[Dict[str, float]] = None) -> SimReport:
    """Simulate ``program`` and return a :class:`SimReport`.

    ``timed=True`` runs the cycle-approximate model (Section 4.3);
    ``timed=False`` executes the same graph functionally with all latencies
    collapsed to zero (useful as a reference interpreter).
    """
    hardware = hardware or HardwareConfig()
    with collector_paused():
        lowered = lower(program, inputs=inputs, hardware=hardware, timed=timed,
                        hbm=hbm, input_rates=input_rates)
        metrics = lowered.run()
        outputs = {name: lowered.output_tokens(name) for name in lowered.sink_contexts}
    return SimReport(cycles=metrics.cycles, metrics=metrics, outputs=outputs,
                     hardware=hardware)


def run_functional(program: Program, inputs: Optional[Dict[str, Sequence[Token]]] = None,
                   hardware: Optional[HardwareConfig] = None) -> SimReport:
    """Run the program purely functionally (no timing)."""
    return simulate(program, inputs=inputs, hardware=hardware, timed=False)
