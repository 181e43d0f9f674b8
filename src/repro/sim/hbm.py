"""Off-chip (HBM) memory timing models.

The paper's simulator drives off-chip timing with a node that emulates
Ramulator 2.0; the evaluation configures an HBM2 subsystem and an aggregate
off-chip bandwidth of 1024 bytes/cycle (Section 5.1).  We provide two models:

* :class:`HBMModel` — an aggregate bandwidth/latency model used by the
  cycle-approximate simulator.  Bandwidth is tracked with a *ledger* of
  per-window byte budgets, so requests presented out of order (processes run
  until they block, and their local clocks are not globally ordered) still
  contend only for the bandwidth of the cycles they actually overlap.
  Requests pipeline: the fixed access latency delays the data's arrival but
  does not stall the issuing unit.
* :class:`BankedHBM` — a banked model with per-bank row buffers and burst
  granularity, used by the HDL-substitute reference simulator
  (:mod:`repro.hdl`) so that the Figure 8 validation compares the Roofline
  abstraction against a more detailed memory system.

Both expose ``access(request_time, nbytes, ...) -> completion_time`` plus
``issue_done(completion)`` helpers used by the engine to decide how far the
issuing process's clock advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class BandwidthLedger:
    """Byte budgets per fixed-size time window.

    A request starting at ``time`` consumes budget from its window onward;
    earlier windows keep whatever budget they had, so a late-arriving request
    with an early timestamp is not penalized by requests that were *processed*
    earlier but logically happen later.
    """

    __slots__ = ("bandwidth", "window", "_used")

    def __init__(self, bandwidth: float, window: float = 64.0):
        self.bandwidth = float(bandwidth)
        self.window = float(window)
        self._used: Dict[int, float] = {}

    def reserve(self, time: float, nbytes: float) -> float:
        """Schedule ``nbytes`` starting no earlier than ``time``; returns finish time."""
        if nbytes <= 0 or self.bandwidth <= 0:
            return time
        capacity = self.bandwidth * self.window
        index = max(0, int(time // self.window))
        remaining = float(nbytes)
        finish = time
        first = True
        while remaining > 0:
            used = self._used.get(index, 0.0)
            free = capacity - used
            if first:
                # the request cannot use the part of its first window that lies
                # before its own start time
                elapsed = max(0.0, time - index * self.window)
                free = max(0.0, capacity - used - elapsed * self.bandwidth)
                first = False
            if free <= 0:
                index += 1
                continue
            take = min(free, remaining)
            self._used[index] = used + take
            remaining -= take
            finish = index * self.window + (self._used[index] / self.bandwidth)
            index += 1
        return max(finish, time)

    def reset(self) -> None:
        self._used.clear()


@dataclass
class HBMModel:
    """Aggregate off-chip memory model (bandwidth ledger + fixed access latency)."""

    bandwidth: float = 1024.0
    latency: float = 100.0
    #: ledger window in cycles (granularity of bandwidth accounting)
    window: float = 64.0
    total_bytes_read: int = field(default=0, init=False)
    total_bytes_written: int = field(default=0, init=False)
    total_requests: int = field(default=0, init=False)
    last_completion: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self._ledger = BandwidthLedger(self.bandwidth, self.window)

    def access(self, request_time: float, nbytes: int, is_write: bool = False) -> float:
        """Issue a request; returns the completion time (data available)."""
        if nbytes < 0:
            raise ValueError(f"negative request size {nbytes}")
        finish = self._ledger.reserve(request_time, nbytes)
        completion = finish + self.latency
        self.total_requests += 1
        if is_write:
            self.total_bytes_written += nbytes
        else:
            self.total_bytes_read += nbytes
        self.last_completion = max(self.last_completion, completion)
        return completion

    def issue_done(self, completion: float) -> float:
        """Time at which the issuing unit may issue its next request.

        The access latency pipelines with subsequent requests, so the issuer is
        only held back by the bandwidth-scheduled finish time.
        """
        return max(0.0, completion - self.latency)

    @property
    def total_bytes(self) -> int:
        return self.total_bytes_read + self.total_bytes_written

    def utilization(self, total_cycles: float) -> float:
        """Fraction of the peak bandwidth used over ``total_cycles``."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.total_bytes / (self.bandwidth * total_cycles))

    def reset(self) -> None:
        self.total_bytes_read = 0
        self.total_bytes_written = 0
        self.total_requests = 0
        self.last_completion = 0.0
        self._ledger.reset()


@dataclass
class BankedHBM:
    """Banked HBM model with row buffers, used by the HDL-substitute simulator.

    Requests are split into bursts; each burst is steered to a bank by its
    address and pays a row-activation penalty on a row-buffer miss.  The
    channel data bus is shared through a bandwidth ledger, and per-bank service
    adds on top of the bus schedule.
    """

    num_banks: int = 32
    burst_bytes: int = 64
    row_bytes: int = 1024
    t_row_hit: float = 2.0
    t_row_miss: float = 18.0
    bus_bandwidth: float = 1024.0
    latency: float = 120.0
    window: float = 64.0

    def __post_init__(self) -> None:
        self._bus = BandwidthLedger(self.bus_bandwidth, self.window)
        self._bank_open_row: List[Optional[int]] = [None] * self.num_banks
        self.total_bytes_read = 0
        self.total_bytes_written = 0
        self.total_requests = 0
        self.row_hits = 0
        self.row_misses = 0

    #: kept for interface parity with HBMModel
    @property
    def bandwidth(self) -> float:
        return self.bus_bandwidth

    def access(self, request_time: float, nbytes: int, address: int = 0,
               is_write: bool = False) -> float:
        """Issue a request starting at ``address``; returns the completion time."""
        if nbytes <= 0:
            return request_time + self.latency
        # Bursts start every burst_bytes from ``address``.  The bursts that
        # start inside one row-sized block share its bank and row, so only the
        # block's first burst can miss; cost each block in one step.  With
        # integer timings the hit/miss sums equal the per-burst running sum.
        burst_bytes = self.burst_bytes
        row_bytes = self.row_bytes
        num_banks = self.num_banks
        open_row = self._bank_open_row
        hits = misses = 0
        addr = address
        end = address + nbytes
        while addr < end:
            block = addr // row_bytes
            limit = min((block + 1) * row_bytes, end)
            count = -(-(limit - addr) // burst_bytes)
            bank = block % num_banks
            row = block // num_banks
            if open_row[bank] == row:
                hits += count
            else:
                misses += 1
                hits += count - 1
                open_row[bank] = row
            addr += count * burst_bytes
        self.row_hits += hits
        self.row_misses += misses
        bank_service = hits * self.t_row_hit + misses * self.t_row_miss
        # bank service across banks overlaps with bus transfer; we charge the
        # maximum of bus time and the average per-bank service time.
        bus_finish = self._bus.reserve(request_time, nbytes)
        service_finish = request_time + bank_service / max(1, self.num_banks // 4)
        completion = max(bus_finish, service_finish) + self.latency
        self.total_requests += 1
        if is_write:
            self.total_bytes_written += nbytes
        else:
            self.total_bytes_read += nbytes
        return completion

    def issue_done(self, completion: float) -> float:
        return max(0.0, completion - self.latency)

    @property
    def total_bytes(self) -> int:
        return self.total_bytes_read + self.total_bytes_written

    def utilization(self, total_cycles: float) -> float:
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.total_bytes / (self.bus_bandwidth * total_cycles))

    def reset(self) -> None:
        self.__post_init__()
