"""Streaming serving analytics: O(1)-memory percentile sketches and timelines.

A full-mode :class:`~repro.serve.report.ServingReport` holds every
:class:`~repro.serve.report.RequestRecord` and
:class:`~repro.serve.report.StepSample` — O(requests + steps) memory, which is
what keeps million-request capacity studies from running.  This module is the
``"streaming"`` report mode's backing store:

* :class:`QuantileSketch` — an online nearest-rank percentile estimator over
  log-spaced buckets (the DDSketch discipline): a value ``v`` lands in bucket
  ``ceil(log_gamma(v))`` with ``gamma = (1 + a) / (1 - a)``, so every bucket
  spans a fixed *relative* width and the bucket midpoint is within relative
  error ``a`` (``rel_accuracy``) of any value it holds.  Bucket **counts are
  exact**, therefore the sketch's ``quantile(q)`` answer is guaranteed within
  relative error ``a`` of the exact nearest-rank percentile of the observed
  sample (pinned by ``tests/serve/test_streaming.py`` under constant, bimodal
  and heavy-tailed adversarial inputs).  Deterministic (no randomization,
  no compaction), mergeable (fleet aggregation sums bucket counts) and
  serializable,
* :class:`WindowedTimeline` — fixed cycle-width windows aggregating the
  queue-depth timeline (steps, step cycles, tokens, prefills, queued/running
  sums and maxima, KV-page peaks, preemptions) instead of one ``StepSample``
  per step.  Integer sums are exact, so streaming ``queue_depth()`` means are
  bit-identical to the full-mode means over the same steps,
* :class:`StreamingStats` — the per-run bundle the engine feeds:
  TTFT / TPOT / e2e sketches (aggregate and per priority class), request and
  token counters, busy cycles and the windowed timeline.  The report memory
  of a streaming run is O(windows + sketch buckets), independent of the
  request count.

The engine feeds :class:`StreamingStats` a completion's or a step's fields as
positional arguments, in the order of the record and sample classes, so no
record or sample object is built per event.  The module imports nothing from
:mod:`repro.serve.report` — ``report`` imports *us* for the streaming field
on ``ServingReport``; :meth:`WindowedTimeline.observe` reads any object with
the ``StepSample`` attributes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Tuple

from ..core.errors import ConfigError

#: the report modes a ServeConfig may request
REPORT_MODES = ("full", "streaming")

#: default relative accuracy of the latency sketches (1% of the exact value)
DEFAULT_SKETCH_ACCURACY = 0.01

#: default streaming-timeline window width in cycles
DEFAULT_WINDOW_CYCLES = 100_000.0

#: the percentile points every summary reports (mirrors report.PERCENTILE_POINTS;
#: duplicated here because report imports this module, not the other way round)
_PERCENTILE_POINTS = (50, 90, 95, 99)


class QuantileSketch:
    """An online nearest-rank percentile sketch with bounded relative error.

    Observations must be non-negative (latencies).  Zero values keep their own
    exact counter; positive values land in log-spaced buckets of relative
    width ``rel_accuracy``.  ``count`` / ``min`` / ``max`` / ``sum`` are exact,
    so ``mean`` and the summary extremes carry no sketch error at all — only
    the interior percentiles are approximate, within ``rel_accuracy``.
    """

    def __init__(self, rel_accuracy: float = DEFAULT_SKETCH_ACCURACY) -> None:
        if not 0.0 < rel_accuracy < 1.0:
            raise ConfigError(f"sketch rel_accuracy must be in (0, 1), "
                              f"got {rel_accuracy}")
        self.rel_accuracy = float(rel_accuracy)
        self._gamma = (1.0 + self.rel_accuracy) / (1.0 - self.rel_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.sum = 0.0

    def _bucket_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_gamma))

    def _bucket_value(self, index: int) -> float:
        # the midpoint of (gamma^(i-1), gamma^i] in relative terms: within
        # rel_accuracy of every value the bucket holds
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def observe(self, value: float) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        if value < 0.0:
            raise ConfigError(f"QuantileSketch observes latencies (>= 0), "
                              f"got {value}")
        if value == 0.0:
            self.zero_count += 1
        else:
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        # strict tests keep the first of equal values, as min()/max() do
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.sum += value

    def _observe_pair(self, value: float, twin: "QuantileSketch") -> None:
        """Fold ``value`` into this sketch and ``twin``.

        The twin must share this sketch's ``rel_accuracy``: the value is
        bucketed once for both, and each ends up exactly as after its own
        :meth:`observe`.
        """
        value = float(value)
        if value < 0.0:
            raise ConfigError(f"QuantileSketch observes latencies (>= 0), "
                              f"got {value}")
        if value == 0.0:
            self.zero_count += 1
            twin.zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            buckets = self._buckets
            buckets[index] = buckets.get(index, 0) + 1
            buckets = twin._buckets
            buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        twin.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < twin.min:
            twin.min = value
        if value > twin.max:
            twin.max = value
        self.sum += value
        twin.sum += value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.sum / self.count

    def quantile(self, q: float) -> float:
        """Nearest-rank percentile estimate, within ``rel_accuracy`` relative
        error of the exact nearest-rank value over the observed sample."""
        if self.count == 0:
            raise ConfigError("quantile of an empty sketch")
        if not 0 <= q <= 100:
            raise ConfigError(f"quantile q must be in [0, 100], got {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zero_count
        if rank <= seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                # clamping to the exact extremes keeps the estimate inside
                # the observed range without breaking the error bound
                return min(max(self._bucket_value(index), self.min), self.max)
        return self.max  # unreachable unless float drift; max is exact

    def count_le(self, threshold: float) -> int:
        """Observations at or below ``threshold`` (e.g. an SLO budget).

        Exact except for values within ``rel_accuracy`` of the threshold
        itself: the bucket containing the threshold is counted whole, so the
        answer may include values up to ``threshold * (1 + rel_accuracy)``.
        """
        if threshold < 0.0:
            return 0
        total = self.zero_count
        if threshold == 0.0:
            return total
        limit = self._bucket_index(threshold)
        for index, count in self._buckets.items():
            if index <= limit:
                total += count
        return total

    def summarize(self) -> Dict[str, float]:
        """The same summary shape as :func:`repro.serve.report.summarize`."""
        if self.count == 0:
            return {"mean": 0.0, "max": 0.0,
                    **{f"p{q}": 0.0 for q in _PERCENTILE_POINTS},
                    "count": 0.0}
        return {"mean": float(self.mean), "max": float(self.max),
                **{f"p{q}": float(self.quantile(q))
                   for q in _PERCENTILE_POINTS},
                "count": float(self.count)}

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in (fleet aggregation).  Accuracies must match."""
        if other.rel_accuracy != self.rel_accuracy:
            raise ConfigError(
                f"cannot merge sketches with different accuracies "
                f"({self.rel_accuracy} vs {other.rel_accuracy})")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.sum += other.sum

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def to_dict(self) -> Dict[str, Any]:
        return {"rel_accuracy": self.rel_accuracy,
                "count": self.count, "zero_count": self.zero_count,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
                "sum": self.sum,
                "buckets": {str(i): c for i, c in sorted(self._buckets.items())}}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(rel_accuracy=float(payload["rel_accuracy"]))
        sketch.count = int(payload["count"])
        sketch.zero_count = int(payload["zero_count"])
        sketch.min = math.inf if payload["min"] is None else float(payload["min"])
        sketch.max = -math.inf if payload["max"] is None else float(payload["max"])
        sketch.sum = float(payload["sum"])
        sketch._buckets = {int(i): int(c)
                           for i, c in payload["buckets"].items()}
        return sketch


class _Window:
    """One fixed-width timeline window's aggregates (all counters exact)."""

    __slots__ = ("steps", "cycles", "tokens", "prefills", "queued_sum",
                 "queued_max", "running_sum", "running_max", "kv_rows_sum",
                 "kv_rows_max", "kv_pages_sum", "kv_pages_max",
                 "kv_capacity_pages", "preemptions")

    def __init__(self) -> None:
        self.steps = 0
        self.cycles = 0.0
        self.tokens = 0
        self.prefills = 0
        self.queued_sum = 0
        self.queued_max = 0
        self.running_sum = 0
        self.running_max = 0
        self.kv_rows_sum = 0
        self.kv_rows_max = 0
        self.kv_pages_sum = 0
        self.kv_pages_max = 0
        #: pool size seen by the window's steps (0 = unbounded platform)
        self.kv_capacity_pages = 0
        self.preemptions = 0

    def observe(self, sample) -> None:
        """Count one step (anything with the ``StepSample`` attributes)."""
        self.add(sample.cycles, sample.running, sample.queued, sample.tokens,
                 sample.prefills, sample.kv_rows, sample.kv_pages,
                 sample.kv_capacity_pages, sample.preemptions)

    def add(self, cycles: float, running: int, queued: int, tokens: int,
            prefills: int, kv_rows: int, kv_pages: int,
            kv_capacity_pages: int, preemptions: int) -> None:
        """Count one step given its ``StepSample`` fields after ``start``."""
        # once per step: plain comparisons instead of max() calls
        self.steps += 1
        self.cycles += cycles
        self.tokens += tokens
        self.prefills += prefills
        self.queued_sum += queued
        if queued > self.queued_max:
            self.queued_max = queued
        self.running_sum += running
        if running > self.running_max:
            self.running_max = running
        self.kv_rows_sum += kv_rows
        if kv_rows > self.kv_rows_max:
            self.kv_rows_max = kv_rows
        self.kv_pages_sum += kv_pages
        if kv_pages > self.kv_pages_max:
            self.kv_pages_max = kv_pages
        if kv_capacity_pages > self.kv_capacity_pages:
            self.kv_capacity_pages = kv_capacity_pages
        self.preemptions += preemptions

    def merge(self, other: "_Window") -> None:
        self.steps += other.steps
        self.cycles += other.cycles
        self.tokens += other.tokens
        self.prefills += other.prefills
        self.queued_sum += other.queued_sum
        self.queued_max = max(self.queued_max, other.queued_max)
        self.running_sum += other.running_sum
        self.running_max = max(self.running_max, other.running_max)
        self.kv_rows_sum += other.kv_rows_sum
        self.kv_rows_max = max(self.kv_rows_max, other.kv_rows_max)
        self.kv_pages_sum += other.kv_pages_sum
        self.kv_pages_max = max(self.kv_pages_max, other.kv_pages_max)
        self.kv_capacity_pages = max(self.kv_capacity_pages,
                                     other.kv_capacity_pages)
        self.preemptions += other.preemptions

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "_Window":
        window = cls()
        for slot in cls.__slots__:
            # .get keeps payloads serialized before a slot existed loading
            # (the utilization-heatmap slots arrived after the format shipped)
            setattr(window, slot, payload.get(slot, 0))
        window.cycles = float(window.cycles)
        return window


class WindowedTimeline:
    """The queue-depth timeline in fixed cycle-width windows.

    A step whose start cycle is ``t`` lands in window ``floor(t /
    window_cycles)``.  Memory is O(occupied windows) — for a run of makespan
    ``T`` that is at most ``T / window_cycles`` entries, however many steps
    (or requests) the run processed.
    """

    def __init__(self, window_cycles: float = DEFAULT_WINDOW_CYCLES) -> None:
        if window_cycles <= 0:
            raise ConfigError(f"window_cycles must be > 0, got {window_cycles}")
        self.window_cycles = float(window_cycles)
        self._windows: Dict[int, _Window] = {}

    def observe(self, sample) -> None:
        """Count one step (anything with the ``StepSample`` attributes)."""
        self.window_at(sample.start).observe(sample)

    def window_at(self, start: float) -> _Window:
        """The window a step issued at cycle ``start`` lands in."""
        index = int(start // self.window_cycles)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        return window

    @property
    def num_windows(self) -> int:
        return len(self._windows)

    @property
    def num_steps(self) -> int:
        return sum(w.steps for w in self._windows.values())

    def windows(self) -> Iterator[Tuple[int, _Window]]:
        """The occupied windows in time order."""
        for index in sorted(self._windows):
            yield index, self._windows[index]

    def rows(self) -> List[Dict[str, Any]]:
        """The timeline as flat JSON-able rows (one per occupied window)."""
        return [{"window": index,
                 "start": index * self.window_cycles,
                 **window.to_dict()}
                for index, window in self.windows()]

    def queue_depth(self) -> Dict[str, float]:
        """Mean / max queued and running over every step, windows collapsed.

        The sums are integer-exact, so these equal the full-mode
        :meth:`~repro.serve.report.ServingReport.queue_depth` values over the
        same steps bit-for-bit.
        """
        steps = self.num_steps
        if steps == 0:
            return {"queued_mean": 0.0, "queued_max": 0.0,
                    "running_mean": 0.0, "running_max": 0.0}
        windows = self._windows.values()
        return {
            "queued_mean": float(sum(w.queued_sum for w in windows) / steps),
            "queued_max": float(max(w.queued_max for w in windows)),
            "running_mean": float(sum(w.running_sum for w in windows) / steps),
            "running_max": float(max(w.running_max for w in windows)),
        }

    def utilization_heatmap(self, batch_cap: int) -> List[Dict[str, float]]:
        """Per-window utilization aggregates: batch fill and KV occupancy.

        One row per occupied window, time-ordered — the columns of a
        utilization heatmap over the run:

        * ``batch_fill_mean`` / ``batch_fill_max`` — running requests as a
          fraction of ``batch_cap`` (1.0 = the continuous batch is full),
        * ``kv_occupancy_mean`` / ``kv_occupancy_max`` — KV pages in use as
          a fraction of the pool (0.0 throughout on unbounded platforms,
          where no pool exists),
        * ``kv_rows_mean`` — mean resident KV rows per step (meaningful on
          unbounded platforms too),
        * ``steps``, ``tokens``, ``preemptions`` — the window's raw volume.

        The means divide integer-exact sums, so full-mode and streaming
        reports of the same run produce identical heatmaps.
        """
        if batch_cap < 1:
            raise ConfigError(f"batch_cap must be >= 1, got {batch_cap}")
        rows: List[Dict[str, float]] = []
        for index, window in self.windows():
            steps = window.steps
            capacity = window.kv_capacity_pages
            rows.append({
                "window": float(index),
                "start": float(index * self.window_cycles),
                "steps": float(steps),
                "tokens": float(window.tokens),
                "batch_fill_mean": window.running_sum / (steps * batch_cap),
                "batch_fill_max": window.running_max / batch_cap,
                "kv_occupancy_mean": (window.kv_pages_sum / (steps * capacity)
                                      if capacity else 0.0),
                "kv_occupancy_max": (window.kv_pages_max / capacity
                                     if capacity else 0.0),
                "kv_rows_mean": window.kv_rows_sum / steps,
                "preemptions": float(window.preemptions),
            })
        return rows

    def merge(self, other: "WindowedTimeline") -> None:
        if other.window_cycles != self.window_cycles:
            raise ConfigError(
                f"cannot merge timelines with different window widths "
                f"({self.window_cycles} vs {other.window_cycles})")
        for index, window in other._windows.items():
            mine = self._windows.get(index)
            if mine is None:
                mine = self._windows[index] = _Window()
            mine.merge(window)

    def to_dict(self) -> Dict[str, Any]:
        return {"window_cycles": self.window_cycles,
                "windows": {str(i): w.to_dict()
                            for i, w in sorted(self._windows.items())}}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WindowedTimeline":
        timeline = cls(window_cycles=float(payload["window_cycles"]))
        timeline._windows = {int(i): _Window.from_dict(w)
                             for i, w in payload["windows"].items()}
        return timeline


class StreamingStats:
    """Everything a streaming-mode serving run reports, in O(1) memory.

    The engine's statistics sink in streaming mode.  The engine calls
    :meth:`observe_step` once per scheduler step and :meth:`observe_request`
    once per completion, each with the fields the full-mode sink
    (:class:`~repro.serve.report.ExactSamples`) keeps as a record or sample;
    :class:`~repro.serve.report.ServingReport` dispatches its aggregates here
    when the field is present.
    """

    def __init__(self, rel_accuracy: float = DEFAULT_SKETCH_ACCURACY,
                 window_cycles: float = DEFAULT_WINDOW_CYCLES) -> None:
        self.rel_accuracy = float(rel_accuracy)
        self.ttft = QuantileSketch(rel_accuracy)
        self.tpot = QuantileSketch(rel_accuracy)
        self.e2e = QuantileSketch(rel_accuracy)
        self.timeline = WindowedTimeline(window_cycles)
        #: priority class -> {"ttft": sketch, "tpot": sketch, "e2e": sketch}
        self._classes: Dict[int, Dict[str, QuantileSketch]] = {}
        self.num_requests = 0
        self.total_output_tokens = 0
        self.num_steps = 0
        self.busy_cycles = 0.0

    def _class_sketches(self, priority: int) -> Dict[str, QuantileSketch]:
        trio = self._classes.get(priority)
        if trio is None:
            trio = self._classes[priority] = {
                "ttft": QuantileSketch(self.rel_accuracy),
                "tpot": QuantileSketch(self.rel_accuracy),
                "e2e": QuantileSketch(self.rel_accuracy),
            }
        return trio

    def observe_request(self, request_id: int, arrival: float,
                        first_token: float, completion: float,
                        prompt_tokens: int, output_tokens: int,
                        priority: int) -> None:
        """Fold one completed request, given the ``RequestRecord`` fields.

        TTFT, TPOT and e2e use the record's arithmetic, and each latency is
        bucketed once for the run and its priority class.
        """
        self.num_requests += 1
        self.total_output_tokens += output_tokens
        trio = self._class_sketches(priority)
        self.ttft._observe_pair(first_token - arrival, trio["ttft"])
        self.e2e._observe_pair(completion - arrival, trio["e2e"])
        if output_tokens > 1:
            self.tpot._observe_pair(
                (completion - first_token) / (output_tokens - 1), trio["tpot"])

    def observe_step(self, start: float, cycles: float, running: int,
                     queued: int, tokens: int, prefills: int, kv_rows: int,
                     kv_pages: int, kv_capacity_pages: int,
                     preemptions: int) -> None:
        """Fold one scheduler step, given the ``StepSample`` fields."""
        self.num_steps += 1
        self.busy_cycles += cycles
        self.timeline.window_at(start).add(
            cycles, running, queued, tokens, prefills, kv_rows, kv_pages,
            kv_capacity_pages, preemptions)

    # -- the ServingReport-facing aggregates -----------------------------------------
    def queue_depth(self) -> Dict[str, float]:
        return self.timeline.queue_depth()

    def utilization_heatmap(self, batch_cap: int) -> List[Dict[str, float]]:
        """Per-window batch-fill / KV-occupancy rows (see the timeline)."""
        return self.timeline.utilization_heatmap(batch_cap)

    def priority_classes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._classes))

    def per_priority(self) -> Dict[int, Dict[str, Any]]:
        """The same shape as :func:`repro.serve.report.priority_breakdown`."""
        breakdown: Dict[int, Dict[str, Any]] = {}
        for cls in sorted(self._classes):
            trio = self._classes[cls]
            breakdown[cls] = {
                "requests": trio["ttft"].count,
                "ttft": trio["ttft"].summarize(),
                "tpot": trio["tpot"].summarize(),
                "e2e": trio["e2e"].summarize(),
            }
        return breakdown

    def slo_attainment(self, ttft_slo: float) -> float:
        """Fraction of requests whose TTFT met the SLO (sketch-resolution)."""
        if self.num_requests == 0:
            return 0.0
        return self.ttft.count_le(ttft_slo) / self.num_requests

    def slo_attainment_by_priority(self, ttft_slo: float) -> Dict[int, float]:
        return {cls: trio["ttft"].count_le(ttft_slo) / trio["ttft"].count
                for cls, trio in sorted(self._classes.items())
                if trio["ttft"].count}

    def merge(self, other: "StreamingStats") -> None:
        """Fold another run's stats in (the fleet aggregation path)."""
        self.ttft.merge(other.ttft)
        self.tpot.merge(other.tpot)
        self.e2e.merge(other.e2e)
        self.timeline.merge(other.timeline)
        for cls, trio in other._classes.items():
            mine = self._class_sketches(cls)
            for key in ("ttft", "tpot", "e2e"):
                mine[key].merge(trio[key])
        self.num_requests += other.num_requests
        self.total_output_tokens += other.total_output_tokens
        self.num_steps += other.num_steps
        self.busy_cycles += other.busy_cycles

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rel_accuracy": self.rel_accuracy,
            "num_requests": self.num_requests,
            "total_output_tokens": self.total_output_tokens,
            "num_steps": self.num_steps,
            "busy_cycles": self.busy_cycles,
            "ttft": self.ttft.to_dict(),
            "tpot": self.tpot.to_dict(),
            "e2e": self.e2e.to_dict(),
            "timeline": self.timeline.to_dict(),
            "classes": {str(cls): {key: sketch.to_dict()
                                   for key, sketch in trio.items()}
                        for cls, trio in sorted(self._classes.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StreamingStats":
        stats = cls(rel_accuracy=float(payload["rel_accuracy"]),
                    window_cycles=float(payload["timeline"]["window_cycles"]))
        stats.num_requests = int(payload["num_requests"])
        stats.total_output_tokens = int(payload["total_output_tokens"])
        stats.num_steps = int(payload["num_steps"])
        stats.busy_cycles = float(payload["busy_cycles"])
        stats.ttft = QuantileSketch.from_dict(payload["ttft"])
        stats.tpot = QuantileSketch.from_dict(payload["tpot"])
        stats.e2e = QuantileSketch.from_dict(payload["e2e"])
        stats.timeline = WindowedTimeline.from_dict(payload["timeline"])
        stats._classes = {
            int(key): {name: QuantileSketch.from_dict(sk)
                       for name, sk in trio.items()}
            for key, trio in payload["classes"].items()}
        return stats


def resolve_report_mode(mode: str) -> str:
    """Validate a report mode name (``"full"`` or ``"streaming"``)."""
    if mode not in REPORT_MODES:
        raise ConfigError(f"unknown report mode {mode!r}; "
                          f"expected one of {list(REPORT_MODES)}")
    return mode


def make_streaming_stats(rel_accuracy: float = DEFAULT_SKETCH_ACCURACY,
                         window_cycles: float = DEFAULT_WINDOW_CYCLES,
                         ) -> StreamingStats:
    """A fresh :class:`StreamingStats` (the engine's constructor hook)."""
    return StreamingStats(rel_accuracy=rel_accuracy,
                          window_cycles=window_cycles)
