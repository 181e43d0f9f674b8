"""The STeP cycle-approximate simulator (paper Section 4.3).

The simulator follows the Dataflow Abstract Machine execution model the
paper's Rust backend is built on: every operator runs as an asynchronous
process with its own local clock, and processes communicate over
time-stamped FIFO channels.  Timing comes from

* a Roofline model for higher-order operators
  (``max(in_bytes/onchip_bw, flops/compute_bw, out_bytes/onchip_bw)``),
* an HBM node for off-chip memory operators, and
* per-channel transfer latency.

Running with ``timed=False`` turns the same machinery into a purely
functional reference interpreter.
"""

from .channel import Channel
from .engine import Engine, Process
from .hbm import BankedHBM, HBMModel
from .metrics import SimMetrics
from .runner import SimReport, collector_paused, simulate, run_functional

__all__ = [
    "Channel",
    "Engine",
    "Process",
    "HBMModel",
    "BankedHBM",
    "SimMetrics",
    "SimReport",
    "simulate",
    "collector_paused",
    "run_functional",
]
