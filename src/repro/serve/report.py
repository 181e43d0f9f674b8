"""Serving-run results: per-request latency records, percentiles and timelines.

A :class:`ServingReport` is the serving counterpart of
:class:`repro.sim.runner.SimReport`: everything a latency-vs-load study needs,
serialized symmetrically (``to_dict``/``from_dict`` round-trip bit-for-bit).
A :class:`FleetReport` aggregates one :class:`ServingReport` per replica (each
wrapped in a :class:`ReplicaReport` carrying spawn/retire lifecycle) plus the
autoscaler's :class:`ScalingEvent` timeline into fleet-level metrics:
combined latency percentiles over every request, per-replica utilization and
imbalance, and the scaling history.

Latency definitions (all in engine cycles):

* **TTFT** (time to first token) — from a request's arrival to the end of the
  step that processed its prompt (which also emits the first output token,
  as in continuous-batching servers),
* **TPOT** (time per output token) — the mean inter-token gap over the
  decode phase: ``(completion - first_token) / (output_tokens - 1)``; zero
  for single-token outputs,
* **e2e** — arrival to completion.

Percentiles use the *nearest-rank* method (the value at index
``ceil(q/100 * n)`` of the sorted sample, 1-based): every reported percentile
is an actually observed latency, and the computation is integer-exact, which
keeps reports bit-identical across platforms.

Goodput is completed requests per million cycles; token throughput is
generated tokens per thousand cycles.  The queue-depth timeline records one
:class:`StepSample` per scheduler step (start cycle, step latency, running and
queued request counts, tokens processed), giving load curves their
time-resolved view.

Every latency summary carries a ``count`` field: an *empty* sample (no
requests completed — an overloaded replica, a drained-out class) reports
``count`` 0 with zeroed statistics, which is distinguishable from a sample
whose latencies are genuinely zero.

**Streaming mode.**  A report produced under ``report_mode="streaming"``
(see :class:`~repro.serve.scheduler.ServeConfig`) carries no per-request
records or per-step samples at all — instead its ``streaming`` field holds a
:class:`~repro.serve.streaming.StreamingStats` bundle (online percentile
sketches + a windowed timeline) and every aggregate on this class dispatches
to it.  Percentiles are then within the sketch's documented relative error of
the exact nearest-rank values; counts, means, maxima and queue-depth means
remain exact.  ``"full"`` mode (the default) is byte-identical to the
pre-streaming serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigError
from .arrivals import MCYCLE
from .memory import MemoryStats
from .streaming import DEFAULT_WINDOW_CYCLES, StreamingStats, WindowedTimeline

#: the percentile points every latency summary reports
PERCENTILE_POINTS = (50, 90, 95, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest sample.

    Deterministic, interpolation-free and always an observed value; ``q=0``
    returns the minimum, ``q=100`` the maximum.  Raises on an empty sample.
    """
    if not values:
        raise ConfigError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ConfigError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / max / nearest-rank percentiles of a latency sample.

    The sample is sorted **once** and every percentile point indexes into the
    sorted copy (the previous implementation re-sorted per point — four sorts
    plus a max per summary).  ``count`` distinguishes an empty sample from
    genuinely zero latencies: a replica that completed nothing reports
    ``count`` 0 with zeroed statistics, not a perfect p99 of 0.0.
    """
    if not values:
        return {"mean": 0.0, "max": 0.0,
                **{f"p{q}": 0.0 for q in PERCENTILE_POINTS},
                "count": 0.0}
    ordered = sorted(values)
    n = len(ordered)
    # the mean accumulates in observation order (not sorted order): float
    # addition is order-sensitive and the pre-fix values are pinned
    summary = {"mean": float(sum(values) / n), "max": float(ordered[-1])}
    for q in PERCENTILE_POINTS:
        rank = max(1, math.ceil(q / 100.0 * n))
        summary[f"p{q}"] = float(ordered[rank - 1])
    summary["count"] = float(n)
    return summary


@dataclass(frozen=True, init=False)
class RequestRecord:
    """The lifecycle of one served request, in engine cycles.

    Frozen, with a hand-written ``__init__`` that fills ``__dict__`` in one
    call (the generated one sets each field through ``object.__setattr__``);
    a test pins its parameters to :func:`dataclasses.fields`.
    """

    request_id: int
    arrival: float
    #: end of the step that processed the prompt (first output token time)
    first_token: float
    #: end of the step that produced the final output token
    completion: float
    prompt_tokens: int
    output_tokens: int
    #: priority class the request was served under (0 = most urgent)
    priority: int = 0

    def __init__(self, request_id: int, arrival: float, first_token: float,
                 completion: float, prompt_tokens: int, output_tokens: int,
                 priority: int = 0):
        self.__dict__.update(request_id=request_id, arrival=arrival,
                             first_token=first_token, completion=completion,
                             prompt_tokens=prompt_tokens, output_tokens=output_tokens,
                             priority=priority)

    @property
    def ttft(self) -> float:
        return self.first_token - self.arrival

    @property
    def tpot(self) -> float:
        if self.output_tokens <= 1:
            return 0.0
        return (self.completion - self.first_token) / (self.output_tokens - 1)

    @property
    def e2e(self) -> float:
        return self.completion - self.arrival

    def to_dict(self) -> Dict[str, Any]:
        return {"request_id": self.request_id, "arrival": self.arrival,
                "first_token": self.first_token, "completion": self.completion,
                "prompt_tokens": self.prompt_tokens,
                "output_tokens": self.output_tokens,
                "priority": self.priority}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RequestRecord":
        return cls(request_id=int(payload["request_id"]),
                   arrival=float(payload["arrival"]),
                   first_token=float(payload["first_token"]),
                   completion=float(payload["completion"]),
                   prompt_tokens=int(payload["prompt_tokens"]),
                   output_tokens=int(payload["output_tokens"]),
                   priority=int(payload.get("priority", 0)))


def priority_breakdown(records: Sequence["RequestRecord"]) -> Dict[int, Dict[str, Any]]:
    """Per-priority-class latency summaries over a request sample.

    Maps each priority class present in ``records`` to its request count and
    TTFT / TPOT / e2e percentile summaries (the same nearest-rank summaries
    the aggregate report uses) — the signal a priority or SLO-deadline policy
    is supposed to move: class 0 should hold its tail while lower classes
    absorb the queueing.  Shared by :meth:`ServingReport.per_priority` and
    :meth:`FleetReport.per_priority`.
    """
    classes: Dict[int, list] = {}
    for record in records:
        classes.setdefault(record.priority, []).append(record)
    breakdown: Dict[int, Dict[str, Any]] = {}
    for cls in sorted(classes):
        group = classes[cls]
        breakdown[cls] = {
            "requests": len(group),
            "ttft": summarize([r.ttft for r in group]),
            "tpot": summarize([r.tpot for r in group if r.output_tokens > 1]),
            "e2e": summarize([r.e2e for r in group]),
        }
    return breakdown


@dataclass(frozen=True, init=False)
class StepSample:
    """One scheduler step of the queue-depth timeline.

    Frozen, with a hand-written ``__init__`` as :class:`RequestRecord` has.
    """

    #: cycle at which the step was issued
    start: float
    #: simulated latency of the step (all layers)
    cycles: float
    #: requests in the running batch (prefill + decode)
    running: int
    #: requests admitted-but-waiting because the batch cap was reached
    queued: int
    #: tokens processed this step (prompt tokens for prefills, 1 per decode)
    tokens: int
    #: how many of the running requests were in their prefill step
    prefills: int
    #: KV rows held by the step's participants when the step was issued
    kv_rows: int = 0
    #: KV pages reserved when the step was issued (0 = unbounded, no pool)
    kv_pages: int = 0
    #: the pool's page budget (0 = unbounded, no pool)
    kv_capacity_pages: int = 0
    #: requests preempted (evicted + re-queued) while forming this step
    preemptions: int = 0

    def __init__(self, start: float, cycles: float, running: int, queued: int,
                 tokens: int, prefills: int, kv_rows: int = 0, kv_pages: int = 0,
                 kv_capacity_pages: int = 0, preemptions: int = 0):
        self.__dict__.update(start=start, cycles=cycles, running=running, queued=queued,
                             tokens=tokens, prefills=prefills, kv_rows=kv_rows,
                             kv_pages=kv_pages, kv_capacity_pages=kv_capacity_pages,
                             preemptions=preemptions)

    def to_dict(self) -> Dict[str, Any]:
        return {"start": self.start, "cycles": self.cycles, "running": self.running,
                "queued": self.queued, "tokens": self.tokens,
                "prefills": self.prefills, "kv_rows": self.kv_rows,
                "kv_pages": self.kv_pages,
                "kv_capacity_pages": self.kv_capacity_pages,
                "preemptions": self.preemptions}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StepSample":
        return cls(start=float(payload["start"]), cycles=float(payload["cycles"]),
                   running=int(payload["running"]), queued=int(payload["queued"]),
                   tokens=int(payload["tokens"]), prefills=int(payload["prefills"]),
                   kv_rows=int(payload.get("kv_rows", 0)),
                   kv_pages=int(payload.get("kv_pages", 0)),
                   kv_capacity_pages=int(payload.get("kv_capacity_pages", 0)),
                   preemptions=int(payload.get("preemptions", 0)))


class ExactSamples:
    """The full-mode statistics sink: every record and step sample, kept.

    It takes the positional fields :class:`~repro.serve.streaming.
    StreamingStats` takes, in the order of :class:`RequestRecord` and
    :class:`StepSample`, and builds one of those per call.
    """

    __slots__ = ("records", "steps")

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        self.steps: List[StepSample] = []

    def observe_request(self, *fields) -> None:
        self.records.append(RequestRecord(*fields))

    def observe_step(self, *fields) -> None:
        self.steps.append(StepSample(*fields))


@dataclass
class ServingReport:
    """The complete result of one serving simulation."""

    #: the trace name this run served
    trace: str
    #: the schedule label the steps ran under
    schedule: str
    batch_cap: int
    requests: Tuple[RequestRecord, ...] = ()
    steps: Tuple[StepSample, ...] = ()
    #: end of the last step (the makespan of the run)
    total_cycles: float = 0.0
    #: distinct step signatures in this run (per-run, independent of how many
    #: were satisfied by the process-wide step memo — that independence is
    #: what keeps reports bit-identical across warm and cold runs)
    distinct_steps: int = 0
    #: memory-pressure summary of a capacity-bounded run; ``None`` when the
    #: platform's HBM is unbounded (the pre-memory behavior, bit-identical)
    memory: Optional[MemoryStats] = None
    #: descriptive payload of the scheduling policy the run used (see
    #: :meth:`repro.serve.policy.ServePolicy.describe`); ``None`` on reports
    #: predating the policy axis
    policy: Optional[Dict[str, Any]] = None
    #: the O(1)-memory statistics of a ``report_mode="streaming"`` run; when
    #: present, ``requests``/``steps`` are empty and every aggregate below
    #: dispatches here.  ``None`` = full mode, bit-identical to pre-streaming
    streaming: Optional[StreamingStats] = None

    def __post_init__(self) -> None:
        self.requests = tuple(self.requests)
        self.steps = tuple(self.steps)

    # -- aggregates ------------------------------------------------------------------
    @property
    def report_mode(self) -> str:
        """``"streaming"`` when the run kept sketches, else ``"full"``."""
        return "full" if self.streaming is None else "streaming"

    @property
    def num_requests(self) -> int:
        if self.streaming is not None:
            return self.streaming.num_requests
        return len(self.requests)

    @property
    def num_steps(self) -> int:
        if self.streaming is not None:
            return self.streaming.num_steps
        return len(self.steps)

    @property
    def total_output_tokens(self) -> int:
        if self.streaming is not None:
            return self.streaming.total_output_tokens
        return sum(r.output_tokens for r in self.requests)

    def ttft(self) -> Dict[str, float]:
        if self.streaming is not None:
            return self.streaming.ttft.summarize()
        return summarize([r.ttft for r in self.requests])

    def tpot(self) -> Dict[str, float]:
        if self.streaming is not None:
            return self.streaming.tpot.summarize()
        return summarize([r.tpot for r in self.requests if r.output_tokens > 1])

    def e2e(self) -> Dict[str, float]:
        if self.streaming is not None:
            return self.streaming.e2e.summarize()
        return summarize([r.e2e for r in self.requests])

    def per_priority(self) -> Dict[int, Dict[str, Any]]:
        """Per-priority-class request counts and latency percentile summaries."""
        if self.streaming is not None:
            return self.streaming.per_priority()
        return priority_breakdown(self.requests)

    def priority_classes(self) -> Tuple[int, ...]:
        """The priority classes present among the served requests, sorted."""
        if self.streaming is not None:
            return self.streaming.priority_classes()
        return tuple(sorted({r.priority for r in self.requests}))

    def slo_attainment_by_priority(self, ttft_slo: float) -> Dict[int, float]:
        """Per-class fraction of requests whose TTFT met the SLO."""
        if self.streaming is not None:
            return self.streaming.slo_attainment_by_priority(ttft_slo)
        attainment: Dict[int, float] = {}
        for cls, payload in self.per_priority().items():
            group = [r for r in self.requests if r.priority == cls]
            met = sum(1 for r in group if r.ttft <= ttft_slo)
            attainment[cls] = met / payload["requests"]
        return attainment

    @property
    def goodput(self) -> float:
        """Completed requests per million cycles."""
        if self.total_cycles <= 0:
            return 0.0
        return self.num_requests / self.total_cycles * MCYCLE

    @property
    def token_throughput(self) -> float:
        """Generated tokens per thousand cycles."""
        if self.total_cycles <= 0:
            return 0.0
        return self.total_output_tokens / self.total_cycles * 1000.0

    def slo_attainment(self, ttft_slo: float) -> float:
        """The fraction of requests whose TTFT met the SLO (in cycles)."""
        if self.streaming is not None:
            return self.streaming.slo_attainment(ttft_slo)
        if not self.requests:
            return 0.0
        met = sum(1 for r in self.requests if r.ttft <= ttft_slo)
        return met / len(self.requests)

    def slo_goodput(self, ttft_slo: float) -> float:
        """SLO-attaining completions per million cycles.

        *Goodput* in the strict sense: only requests whose first token met
        the TTFT budget count as useful work.  Past saturation this declines
        where raw :attr:`goodput` merely plateaus — queueing (and, under
        finite HBM, admission stalls / preemption recompute) pushes an
        ever-larger share of completions past the budget, which is the
        goodput cliff the memory-pressure experiment measures.
        """
        if self.total_cycles <= 0:
            return 0.0
        if self.streaming is not None:
            met = self.streaming.ttft.count_le(ttft_slo)
        else:
            met = sum(1 for r in self.requests if r.ttft <= ttft_slo)
        return met / self.total_cycles * MCYCLE

    def queue_depth(self) -> Dict[str, float]:
        """Mean / max of waiting (queued) and running requests over the steps."""
        if self.streaming is not None:
            return self.streaming.queue_depth()
        if not self.steps:
            return {"queued_mean": 0.0, "queued_max": 0.0,
                    "running_mean": 0.0, "running_max": 0.0}
        queued = [s.queued for s in self.steps]
        running = [s.running for s in self.steps]
        return {
            "queued_mean": float(sum(queued) / len(queued)),
            "queued_max": float(max(queued)),
            "running_mean": float(sum(running) / len(running)),
            "running_max": float(max(running)),
        }

    def utilization_heatmap(self, window_cycles: Optional[float] = None
                            ) -> list:
        """Per-window batch-fill / KV-occupancy rows over the run.

        Streaming reports return their timeline's aggregates directly (the
        window width was fixed when the run was configured — passing a
        different ``window_cycles`` here is a :class:`ConfigError`); full
        reports fold their step samples into a
        :class:`~repro.serve.streaming.WindowedTimeline` on the fly, so both
        modes produce identical heatmaps for the same run.
        """
        if self.streaming is not None:
            width = self.streaming.timeline.window_cycles
            if window_cycles is not None and float(window_cycles) != width:
                raise ConfigError(
                    f"streaming report windows are fixed at {width} cycles; "
                    f"cannot re-window to {window_cycles}")
            return self.streaming.utilization_heatmap(self.batch_cap)
        timeline = WindowedTimeline(window_cycles if window_cycles is not None
                                    else DEFAULT_WINDOW_CYCLES)
        for sample in self.steps:
            timeline.observe(sample)
        return timeline.utilization_heatmap(self.batch_cap)

    # -- flat metrics (what scenario grids and the sweep cache store) ----------------
    def metrics(self) -> Dict[str, float]:
        """The flat, JSON-able payload a serving sweep point reports."""
        flat: Dict[str, float] = {
            "cycles": float(self.total_cycles),
            "requests": float(self.num_requests),
            "output_tokens": float(self.total_output_tokens),
            "goodput_rpmc": float(self.goodput),
            "tokens_per_kcycle": float(self.token_throughput),
            "steps": float(self.num_steps),
            "distinct_steps": float(self.distinct_steps),
        }
        for prefix, summary in (("ttft", self.ttft()), ("tpot", self.tpot()),
                                ("e2e", self.e2e())):
            for key, value in summary.items():
                flat[f"{prefix}_{key}"] = value
        flat.update({f"queue_{k}": v for k, v in self.queue_depth().items()})
        # memory keys are always present so sweep rows stay rectangular
        # across bounded and unbounded platforms in the same grid
        flat.update(self.memory.metrics() if self.memory is not None
                    else MemoryStats.empty_metrics())
        return flat

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The full report as plain JSON, symmetric with :meth:`from_dict`.

        Full-mode payloads omit the ``streaming`` key entirely, keeping them
        byte-identical to pre-streaming serializations (plus the
        ``step_cache`` key, see below).

        ``step_cache`` snapshots the *process-wide* step-memo counters
        (:func:`~repro.serve.scheduler.step_cache_stats`) **at call time** —
        it reflects everything the process ran, not just this report's run,
        which is exactly what makes memoization efficacy observable in
        sweeps.  Being live state rather than run state, it is ignored by
        :meth:`from_dict` and excluded from :meth:`metrics` (sweep-cache
        payloads must be pure functions of the point).
        """
        # deferred: scheduler imports this module at import time
        from .scheduler import step_cache_stats

        payload = {
            "trace": self.trace,
            "schedule": self.schedule,
            "batch_cap": self.batch_cap,
            "total_cycles": self.total_cycles,
            "distinct_steps": self.distinct_steps,
            "memory": None if self.memory is None else self.memory.to_dict(),
            "policy": self.policy,
            "requests": [r.to_dict() for r in self.requests],
            "steps": [s.to_dict() for s in self.steps],
            "step_cache": step_cache_stats(),
        }
        if self.streaming is not None:
            payload["streaming"] = self.streaming.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServingReport":
        memory = payload.get("memory")
        streaming = payload.get("streaming")
        return cls(
            trace=payload["trace"],
            schedule=payload["schedule"],
            batch_cap=int(payload["batch_cap"]),
            total_cycles=float(payload["total_cycles"]),
            distinct_steps=int(payload["distinct_steps"]),
            memory=None if memory is None else MemoryStats.from_dict(memory),
            policy=payload.get("policy"),
            requests=tuple(RequestRecord.from_dict(r) for r in payload["requests"]),
            steps=tuple(StepSample.from_dict(s) for s in payload["steps"]),
            streaming=None if streaming is None
            else StreamingStats.from_dict(streaming),
        )


# ---------------------------------------------------------------------------
# Fleet-level results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler decision on the fleet timeline."""

    #: cycle at which the decision was taken (an arrival evaluation point)
    cycle: float
    #: ``"scale-up"`` (a cold replica spawned) or ``"scale-down"`` (retired)
    action: str
    #: active replicas *after* the event
    num_replicas: int
    #: the smoothed per-replica queue depth that triggered the decision
    signal: float

    def to_dict(self) -> Dict[str, Any]:
        return {"cycle": self.cycle, "action": self.action,
                "num_replicas": self.num_replicas, "signal": self.signal}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScalingEvent":
        return cls(cycle=float(payload["cycle"]), action=payload["action"],
                   num_replicas=int(payload["num_replicas"]),
                   signal=float(payload["signal"]))


@dataclass
class ReplicaReport:
    """One replica's serving history plus its fleet lifecycle.

    ``serving`` is a full single-engine :class:`ServingReport` — a fleet of
    one replica with zero warm-up wraps *exactly* the report
    :func:`~repro.serve.scheduler.simulate_serving` would produce.
    ``retired_at`` is the cycle the autoscaler stopped routing to the replica
    (it still drains its queue afterwards); ``None`` means active at the end.
    """

    replica_id: int
    spawned_at: float
    serving: ServingReport
    retired_at: Optional[float] = None

    @property
    def busy_cycles(self) -> float:
        """Cycles this replica spent executing steps."""
        if self.serving.streaming is not None:
            return float(self.serving.streaming.busy_cycles)
        return float(sum(s.cycles for s in self.serving.steps))

    def utilization(self, fleet_cycles: float) -> float:
        """Busy fraction of the replica's lifetime within the fleet run.

        The lifetime runs from spawn to the fleet makespan — a retired
        replica still exists (idle) until the run ends, so early scale-downs
        show up as low utilization rather than vanishing from the average.
        """
        span = max(fleet_cycles, self.serving.total_cycles) - self.spawned_at
        if span <= 0:
            return 0.0
        return self.busy_cycles / span

    def to_dict(self) -> Dict[str, Any]:
        return {"replica_id": self.replica_id, "spawned_at": self.spawned_at,
                "retired_at": self.retired_at, "serving": self.serving.to_dict()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ReplicaReport":
        retired = payload.get("retired_at")
        return cls(replica_id=int(payload["replica_id"]),
                   spawned_at=float(payload["spawned_at"]),
                   retired_at=None if retired is None else float(retired),
                   serving=ServingReport.from_dict(payload["serving"]))


@dataclass
class FleetReport:
    """The complete result of one multi-replica serving simulation."""

    #: the trace name the fleet served
    trace: str
    #: the schedule label every replica ran under
    schedule: str
    #: the dispatcher's routing policy name
    routing: str
    #: replicas at simulation start (the autoscaler may add/retire more)
    initial_replicas: int
    #: cold-start penalty each replica paid before its first step
    warmup_cycles: float = 0.0
    replicas: Tuple[ReplicaReport, ...] = ()
    scaling_events: Tuple[ScalingEvent, ...] = ()
    #: end of the last step across the fleet (the makespan of the run)
    total_cycles: float = 0.0

    def __post_init__(self) -> None:
        self.replicas = tuple(self.replicas)
        self.scaling_events = tuple(self.scaling_events)

    # -- aggregates ------------------------------------------------------------------
    @property
    def requests(self) -> Tuple[RequestRecord, ...]:
        """Every served request across the fleet, ordered by request id."""
        merged = [r for replica in self.replicas for r in replica.serving.requests]
        return tuple(sorted(merged, key=lambda r: r.request_id))

    @property
    def num_requests(self) -> int:
        return sum(r.serving.num_requests for r in self.replicas)

    @property
    def total_output_tokens(self) -> int:
        return sum(r.serving.total_output_tokens for r in self.replicas)

    @property
    def num_replicas(self) -> int:
        """Replicas that existed at any point during the run."""
        return len(self.replicas)

    @property
    def final_replicas(self) -> int:
        """Replicas still accepting traffic when the run ended."""
        return sum(1 for r in self.replicas if r.retired_at is None)

    def _merged_streaming(self) -> Optional[StreamingStats]:
        """The fleet's replica sketches merged, or ``None`` in full mode.

        Streaming aggregation only engages when *every* replica streamed —
        a mixed fleet (impossible through :func:`simulate_fleet`, which
        threads one ``report_mode`` to all replicas) falls back to the
        record-merging path.
        """
        stats = [r.serving.streaming for r in self.replicas]
        if not stats or any(s is None for s in stats):
            return None
        merged = StreamingStats(rel_accuracy=stats[0].rel_accuracy,
                                window_cycles=stats[0].timeline.window_cycles)
        for s in stats:
            merged.merge(s)
        return merged

    def latency_summaries(self) -> Dict[str, Dict[str, float]]:
        """TTFT / TPOT / e2e summaries over the fleet, merging requests once.

        The ``requests`` property concatenates and sorts every replica's
        records; calling :meth:`ttft` / :meth:`tpot` / :meth:`e2e` separately
        repeated that merge three times.  This does it once (or merges the
        replica sketches once in streaming mode) and summarizes all three
        latencies from the same sample.
        """
        streaming = self._merged_streaming()
        if streaming is not None:
            return {"ttft": streaming.ttft.summarize(),
                    "tpot": streaming.tpot.summarize(),
                    "e2e": streaming.e2e.summarize()}
        merged = self.requests
        return {"ttft": summarize([r.ttft for r in merged]),
                "tpot": summarize([r.tpot for r in merged
                                   if r.output_tokens > 1]),
                "e2e": summarize([r.e2e for r in merged])}

    def ttft(self) -> Dict[str, float]:
        return self.latency_summaries()["ttft"]

    def tpot(self) -> Dict[str, float]:
        return self.latency_summaries()["tpot"]

    def e2e(self) -> Dict[str, float]:
        return self.latency_summaries()["e2e"]

    def per_priority(self) -> Dict[int, Dict[str, Any]]:
        """Per-priority-class latency summaries over the whole fleet."""
        streaming = self._merged_streaming()
        if streaming is not None:
            return streaming.per_priority()
        return priority_breakdown(self.requests)

    @property
    def goodput(self) -> float:
        """Completed requests per million cycles of fleet makespan."""
        if self.total_cycles <= 0:
            return 0.0
        return self.num_requests / self.total_cycles * MCYCLE

    @property
    def token_throughput(self) -> float:
        """Generated tokens per thousand cycles of fleet makespan."""
        if self.total_cycles <= 0:
            return 0.0
        return self.total_output_tokens / self.total_cycles * 1000.0

    def utilization(self) -> Dict[str, float]:
        """Mean / min / max busy fraction across the replicas."""
        if not self.replicas:
            return {"mean": 0.0, "min": 0.0, "max": 0.0}
        fractions = [r.utilization(self.total_cycles) for r in self.replicas]
        return {"mean": float(sum(fractions) / len(fractions)),
                "min": float(min(fractions)), "max": float(max(fractions))}

    @property
    def imbalance(self) -> float:
        """Routing skew: max over mean busy cycles per replica (1.0 = even).

        0.0 when no replica did any work; a least-loaded policy should keep
        this near 1.0 where round-robin drifts upward under skewed traffic.
        """
        busy = [r.busy_cycles for r in self.replicas]
        if not busy or sum(busy) == 0:
            return 0.0
        return float(max(busy) / (sum(busy) / len(busy)))

    # -- memory pressure (zeros when every replica's HBM is unbounded) ---------------
    @property
    def preemptions(self) -> int:
        """Requests evicted mid-decode across the fleet."""
        return sum(r.serving.memory.preemptions for r in self.replicas
                   if r.serving.memory is not None)

    @property
    def recompute_tokens(self) -> int:
        """Generated tokens re-prefilled after eviction across the fleet."""
        return sum(r.serving.memory.recompute_tokens for r in self.replicas
                   if r.serving.memory is not None)

    @property
    def admission_stalls(self) -> int:
        """Steps whose queue head stalled on KV pages across the fleet."""
        return sum(r.serving.memory.admission_stalls for r in self.replicas
                   if r.serving.memory is not None)

    def kv_occupancy(self) -> Dict[str, float]:
        """Mean / max KV-page occupancy across the capacity-bounded replicas."""
        stats = [r.serving.memory for r in self.replicas
                 if r.serving.memory is not None]
        if not stats:
            return {"mean": 0.0, "max": 0.0}
        return {"mean": float(sum(m.occupancy_mean for m in stats) / len(stats)),
                "max": float(max(m.occupancy_max for m in stats))}

    # -- flat metrics (what scenario grids and the sweep cache store) ----------------
    def metrics(self) -> Dict[str, float]:
        """The flat, JSON-able payload a fleet sweep point reports."""
        flat: Dict[str, float] = {
            "cycles": float(self.total_cycles),
            "requests": float(self.num_requests),
            "output_tokens": float(self.total_output_tokens),
            "goodput_rpmc": float(self.goodput),
            "tokens_per_kcycle": float(self.token_throughput),
            "replicas_initial": float(self.initial_replicas),
            "replicas_total": float(self.num_replicas),
            "replicas_final": float(self.final_replicas),
            "scale_ups": float(sum(1 for e in self.scaling_events
                                   if e.action == "scale-up")),
            "scale_downs": float(sum(1 for e in self.scaling_events
                                     if e.action == "scale-down")),
            "imbalance": float(self.imbalance),
            "preemptions": float(self.preemptions),
            "recompute_tokens": float(self.recompute_tokens),
            "admission_stalls": float(self.admission_stalls),
        }
        for key, value in self.utilization().items():
            flat[f"util_{key}"] = value
        for key, value in self.kv_occupancy().items():
            flat[f"kv_occupancy_{key}"] = value
        # one requests merge (or sketch merge) feeds all three summaries
        for prefix, summary in self.latency_summaries().items():
            for key, value in summary.items():
                flat[f"{prefix}_{key}"] = value
        return flat

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The full report as plain JSON, symmetric with :meth:`from_dict`."""
        return {
            "trace": self.trace,
            "schedule": self.schedule,
            "routing": self.routing,
            "initial_replicas": self.initial_replicas,
            "warmup_cycles": self.warmup_cycles,
            "total_cycles": self.total_cycles,
            "replicas": [r.to_dict() for r in self.replicas],
            "scaling_events": [e.to_dict() for e in self.scaling_events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FleetReport":
        return cls(
            trace=payload["trace"],
            schedule=payload["schedule"],
            routing=payload["routing"],
            initial_replicas=int(payload["initial_replicas"]),
            warmup_cycles=float(payload["warmup_cycles"]),
            total_cycles=float(payload["total_cycles"]),
            replicas=tuple(ReplicaReport.from_dict(r)
                           for r in payload["replicas"]),
            scaling_events=tuple(ScalingEvent.from_dict(e)
                                 for e in payload["scaling_events"]),
        )
