"""Streaming-analytics tests: sketch error bounds, exact aggregates, memory.

The contract under test (:mod:`repro.serve.streaming`):

* ``QuantileSketch.quantile(q)`` is within ``rel_accuracy`` *relative* error
  of the exact nearest-rank percentile of the observed sample — under
  constant, bimodal and heavy-tailed adversarial inputs,
* counts, sums, extremes and the windowed queue-depth timeline are **exact**,
  so a streaming-mode serving run matches its full-mode twin bit-for-bit on
  every non-percentile aggregate,
* the report memory of a streaming run is O(windows + sketch buckets),
  independent of the request count — pinned by a 100k-request run under
  ``tracemalloc``,
* ``StreamingStats.observe_request`` buckets each latency once for the run
  and its priority class, and both sketches end up exactly as if each had
  observed the value on its own (a property over generated records),
* the engine's two statistics sinks agree: a full run and a streaming run of
  the same input match bit-for-bit on every exact aggregate, and the
  streaming sketches equal a fresh ``StreamingStats`` fed the full run's
  records (a property over generated traces, batching policies and
  platforms).
"""

import json
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.schedules import Schedule
from repro.serve import (QuantileSketch, ServeConfig, ServingReport,
                         StreamingStats, WindowedTimeline, simulate_serving,
                         trace_from_lists)
from repro.serve.generators import generate_trace
from repro.serve.library import _serve_model
from repro.serve.report import RequestRecord, StepSample, percentile
from repro.serve.streaming import make_streaming_stats, resolve_report_mode

QS = (50, 90, 95, 99)


def exact_nearest_rank(values, q):
    return percentile(list(values), q)


def assert_within_bound(sketch, values, rel=None):
    rel = sketch.rel_accuracy if rel is None else rel
    for q in QS:
        exact = exact_nearest_rank(values, q)
        estimate = sketch.quantile(q)
        assert estimate == pytest.approx(exact, rel=rel), (q, exact, estimate)


def fill(values, rel_accuracy=0.01):
    sketch = QuantileSketch(rel_accuracy=rel_accuracy)
    for value in values:
        sketch.observe(value)
    return sketch


class TestQuantileSketchErrorBound:
    def test_constant_sample_is_exact(self):
        sketch = fill([42.5] * 1000)
        for q in QS:
            assert sketch.quantile(q) == 42.5  # clamped to exact min/max

    def test_bimodal_sample(self):
        values = [10.0] * 500 + [10_000.0] * 500
        sketch = fill(values)
        assert_within_bound(sketch, values)
        # the p50/p90 straddle the two modes: each estimate must sit on the
        # correct mode, not between them
        assert sketch.quantile(40) == pytest.approx(10.0, rel=0.01)
        assert sketch.quantile(60) == pytest.approx(10_000.0, rel=0.01)

    def test_heavy_tailed_lognormal_sample(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=8.0, sigma=2.5, size=20_000).tolist()
        assert_within_bound(fill(values), values)

    def test_heavy_tailed_pareto_sample(self):
        rng = np.random.default_rng(1)
        values = ((rng.pareto(1.3, size=20_000) + 1.0) * 50.0).tolist()
        assert_within_bound(fill(values), values)

    def test_looser_accuracy_still_bounded(self):
        rng = np.random.default_rng(2)
        values = rng.lognormal(mean=6.0, sigma=1.5, size=5_000).tolist()
        assert_within_bound(fill(values, rel_accuracy=0.05), values)

    def test_zero_values_have_their_own_bucket(self):
        values = [0.0] * 90 + [100.0] * 10
        sketch = fill(values)
        assert sketch.quantile(50) == 0.0
        assert sketch.quantile(99) == pytest.approx(100.0, rel=0.01)

    def test_exact_counters(self):
        values = [3.0, 0.0, 7.5, 1.25]
        sketch = fill(values)
        assert sketch.count == 4
        assert sketch.min == 0.0
        assert sketch.max == 7.5
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.mean == pytest.approx(sum(values) / 4)

    def test_memory_is_log_spaced(self):
        # five orders of magnitude at 1% accuracy: a few hundred buckets,
        # not one per distinct value
        sketch = fill([float(v) for v in range(1, 100_000)])
        assert sketch.num_buckets < 1000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            QuantileSketch(rel_accuracy=0.0)
        with pytest.raises(ConfigError):
            QuantileSketch(rel_accuracy=1.0)
        sketch = QuantileSketch()
        with pytest.raises(ConfigError):
            sketch.observe(-1.0)
        with pytest.raises(ConfigError):
            sketch.quantile(50)  # empty
        sketch.observe(1.0)
        with pytest.raises(ConfigError):
            sketch.quantile(101)


class TestQuantileSketchCountLe:
    def test_exact_away_from_bucket_boundaries(self):
        sketch = fill([10.0] * 30 + [1_000.0] * 70)
        assert sketch.count_le(100.0) == 30
        assert sketch.count_le(5.0) == 0
        assert sketch.count_le(10_000.0) == 100

    def test_zero_threshold_counts_zero_bucket_only(self):
        sketch = fill([0.0, 0.0, 5.0])
        assert sketch.count_le(0.0) == 2
        assert sketch.count_le(-1.0) == 0


class TestQuantileSketchMergeAndSerialization:
    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=7.0, sigma=2.0, size=4_000).tolist()
        whole = fill(values)
        left, right = fill(values[:1500]), fill(values[1500:])
        left.merge(right)
        merged, single = left.to_dict(), whole.to_dict()
        # sum is a float accumulator: merging reassociates the additions, so
        # it agrees to rounding only; every count and bucket is integer-exact
        assert merged.pop("sum") == pytest.approx(single.pop("sum"), rel=1e-12)
        assert merged == single
        for q in QS:
            assert left.quantile(q) == whole.quantile(q)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ConfigError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_dict_round_trip_is_exact(self):
        sketch = fill([1.0, 0.0, 250.0, 3.5e6])
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        for q in QS:
            assert clone.quantile(q) == sketch.quantile(q)
        # the payload is JSON-able as-is
        json.dumps(sketch.to_dict())

    def test_empty_sketch_round_trip(self):
        clone = QuantileSketch.from_dict(QuantileSketch().to_dict())
        assert clone.count == 0
        assert clone.summarize()["count"] == 0.0


def _step(start, cycles=100.0, running=2, queued=1, tokens=4, prefills=1,
          preemptions=0):
    return StepSample(start=start, cycles=cycles, running=running,
                      queued=queued, tokens=tokens, prefills=prefills,
                      preemptions=preemptions)


class TestWindowedTimeline:
    def test_window_assignment_and_counts(self):
        timeline = WindowedTimeline(window_cycles=1000.0)
        timeline.observe(_step(0.0))
        timeline.observe(_step(999.9))
        timeline.observe(_step(1000.0))
        assert timeline.num_windows == 2
        assert timeline.num_steps == 3
        assert [index for index, _ in timeline.windows()] == [0, 1]

    def test_queue_depth_matches_flat_lists_exactly(self):
        steps = [_step(i * 137.0, queued=i % 5, running=(i * 3) % 7 + 1)
                 for i in range(200)]
        timeline = WindowedTimeline(window_cycles=1000.0)
        for sample in steps:
            timeline.observe(sample)
        depth = timeline.queue_depth()
        queued = [s.queued for s in steps]
        running = [s.running for s in steps]
        assert depth["queued_mean"] == float(sum(queued) / len(queued))
        assert depth["queued_max"] == float(max(queued))
        assert depth["running_mean"] == float(sum(running) / len(running))
        assert depth["running_max"] == float(max(running))

    def test_memory_is_bounded_by_makespan_not_steps(self):
        timeline = WindowedTimeline(window_cycles=1000.0)
        for i in range(10_000):
            timeline.observe(_step(float(i % 3000)))
        assert timeline.num_windows == 3
        assert timeline.num_steps == 10_000

    def test_merge_and_round_trip(self):
        left = WindowedTimeline(window_cycles=500.0)
        right = WindowedTimeline(window_cycles=500.0)
        for i in range(40):
            (left if i % 2 else right).observe(_step(i * 100.0, queued=i))
        whole = WindowedTimeline(window_cycles=500.0)
        for i in range(40):
            whole.observe(_step(i * 100.0, queued=i))
        left.merge(right)
        assert left.to_dict() == whole.to_dict()
        clone = WindowedTimeline.from_dict(whole.to_dict())
        assert clone.to_dict() == whole.to_dict()
        with pytest.raises(ConfigError):
            left.merge(WindowedTimeline(window_cycles=250.0))

    def test_rows_are_flat_and_ordered(self):
        timeline = WindowedTimeline(window_cycles=1000.0)
        timeline.observe(_step(2500.0))
        timeline.observe(_step(100.0))
        rows = timeline.rows()
        assert [row["window"] for row in rows] == [0, 2]
        assert rows[1]["start"] == 2000.0


def _request(ttft, tpot, output_tokens=4, priority=0, request_id=0,
             arrival=0.0):
    """``observe_request``'s fields for a request with these latencies.

    The e2e latency follows: ``ttft + tpot * (output_tokens - 1)``."""
    first_token = arrival + ttft
    completion = first_token + tpot * (output_tokens - 1)
    return (request_id, arrival, first_token, completion, 16, output_tokens,
            priority)


class TestStreamingStats:
    def _stats(self, requests, steps=()):
        stats = make_streaming_stats(rel_accuracy=0.01, window_cycles=1000.0)
        for fields in requests:
            stats.observe_request(*fields)
        for sample in steps:
            stats.observe_step(*astuple(sample))
        return stats

    def test_counters_and_priority_classes(self):
        requests = [_request(10.0, 5.0, output_tokens=3, priority=p)
                    for p in (0, 1, 0, 2)]
        stats = self._stats(requests, steps=[_step(0.0, cycles=250.0)])
        assert stats.num_requests == 4
        assert stats.total_output_tokens == 12
        assert stats.num_steps == 1
        assert stats.busy_cycles == 250.0
        assert stats.priority_classes() == (0, 1, 2)
        breakdown = stats.per_priority()
        assert breakdown[0]["requests"] == 2
        assert breakdown[0]["ttft"]["count"] == 2.0

    def test_single_token_requests_skip_tpot(self):
        stats = self._stats([_request(10.0, 0.0, output_tokens=1)])
        assert stats.ttft.count == 1
        assert stats.tpot.count == 0

    def test_slo_attainment(self):
        requests = [_request(float(t), 1.0, priority=i % 2)
                    for i, t in enumerate((10, 30_000, 20, 40_000))]
        stats = self._stats(requests)
        assert stats.slo_attainment(100.0) == 0.5
        # class 0 holds the two fast requests, class 1 the two slow ones
        by_priority = stats.slo_attainment_by_priority(100.0)
        assert by_priority == {0: 1.0, 1: 0.0}
        assert StreamingStats(rel_accuracy=0.01).slo_attainment(100.0) == 0.0

    def test_merge_equals_single_pass_and_round_trips(self):
        # integer latencies: the merged float sums are exact
        requests = [_request(float(i + 1), float(i % 7 + 1), priority=i % 3,
                             request_id=i)
                    for i in range(100)]
        steps = [_step(i * 333.0, cycles=float(i + 1)) for i in range(50)]
        whole = self._stats(requests, steps)
        left = self._stats(requests[:40], steps[:20])
        right = self._stats(requests[40:], steps[20:])
        left.merge(right)
        assert left.to_dict() == whole.to_dict()
        clone = StreamingStats.from_dict(whole.to_dict())
        assert clone.to_dict() == whole.to_dict()
        json.dumps(whole.to_dict())


#: latencies with the edge cases forced in: zero (its own counter), the
#: smallest subnormal and a tiny normal value, and values near the top of
#: the float range
LATENCIES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7e308]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
              allow_infinity=False))

@st.composite
def request_records(draw):
    """A completed request whose three timestamps are drawn latencies, in
    order, so its TTFT, TPOT and e2e cover the edge cases too."""
    arrival, first_token, completion = sorted(
        draw(st.lists(LATENCIES, min_size=3, max_size=3)))
    return RequestRecord(
        request_id=draw(st.integers(min_value=0, max_value=99)),
        arrival=arrival, first_token=first_token, completion=completion,
        prompt_tokens=draw(st.integers(min_value=1, max_value=64)),
        # 1 output token: no TPOT is observed
        output_tokens=draw(st.integers(min_value=1, max_value=3)),
        priority=draw(st.integers(min_value=0, max_value=2)))


RECORDS = st.lists(request_records(), max_size=40)


def reference_sketch(values, rel_accuracy):
    """The sketch payload of ``values``, computed without the sketch."""
    log_gamma = math.log((1.0 + rel_accuracy) / (1.0 - rel_accuracy))
    buckets = {}
    for value in values:
        if value:
            index = int(math.ceil(math.log(value) / log_gamma))
            buckets[index] = buckets.get(index, 0) + 1
    total = 0.0
    for value in values:
        total += value
    return {"rel_accuracy": rel_accuracy, "count": len(values),
            "zero_count": sum(1 for v in values if v == 0.0),
            "min": min(values) if values else None,
            "max": max(values) if values else None, "sum": total,
            "buckets": {str(i): c for i, c in sorted(buckets.items())}}


class TestSharedBucketFold:
    @settings(max_examples=60, deadline=None)
    @given(records=RECORDS,
           rel_accuracy=st.sampled_from([0.01, 0.05, 0.2]))
    def test_run_and_class_sketches_match_separate_observes(
            self, records, rel_accuracy):
        stats = StreamingStats(rel_accuracy=rel_accuracy)
        separate = {"ttft": QuantileSketch(rel_accuracy),
                    "e2e": QuantileSketch(rel_accuracy),
                    "tpot": QuantileSketch(rel_accuracy)}
        by_class = {}
        for record in records:
            stats.observe_request(*astuple(record))
            trio = by_class.setdefault(record.priority, {
                key: QuantileSketch(rel_accuracy) for key in separate})
            for key in ("ttft", "e2e") + (("tpot",)
                                          if record.output_tokens > 1 else ()):
                separate[key].observe(getattr(record, key))
                trio[key].observe(getattr(record, key))
        payload = stats.to_dict()
        for key, sketch in separate.items():
            assert payload[key] == sketch.to_dict()
            values = [getattr(r, key) for r in records
                      if key != "tpot" or r.output_tokens > 1]
            assert payload[key] == reference_sketch(values, rel_accuracy)
        assert payload["classes"] == {
            str(cls): {key: sketch.to_dict() for key, sketch in trio.items()}
            for cls, trio in sorted(by_class.items())}


class TestResolveReportMode:
    def test_accepts_known_modes(self):
        assert resolve_report_mode("full") == "full"
        assert resolve_report_mode("streaming") == "streaming"

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            resolve_report_mode("compact")


class TestServeStreamingScenario:
    """The registered ``serve-streaming`` scenario: one trace, two report modes."""

    def test_builds_a_full_and_a_streaming_cell_over_one_trace(self):
        from repro.api import get_scenario

        scenario = get_scenario("serve-streaming", num_requests=12,
                                sketch_accuracy=0.02, window_cycles=5_000.0)
        assert list(scenario.workloads) == ["full", "streaming"]
        full, streaming = scenario.workloads.values()
        assert full.trace is streaming.trace
        assert len(full.trace) == 12
        assert full.config.report_mode == "full"
        assert streaming.config.report_mode == "streaming"
        assert streaming.config.sketch_accuracy == 0.02
        assert streaming.config.window_cycles == 5_000.0

    def test_has_no_mode_selection_knob(self):
        from repro.api import get_scenario

        with pytest.raises(TypeError):
            get_scenario("serve-streaming", modes=("streaming",))


@st.composite
def small_traces(draw):
    """A few requests with bursty arrivals, mixed priorities and prompts that
    straddle KV page boundaries (64 rows), so the bounded platform preempts."""
    n = draw(st.integers(min_value=1, max_value=10))
    gaps = draw(st.lists(st.sampled_from([0.0, 500.0, 3000.0]),
                         min_size=n, max_size=n))
    arrivals = [sum(gaps[:i + 1]) for i in range(n)]
    prompts = draw(st.lists(st.sampled_from([8, 40, 60, 100, 120]),
                            min_size=n, max_size=n))
    outputs = draw(st.lists(st.integers(min_value=1, max_value=40),
                            min_size=n, max_size=n))
    priorities = draw(st.lists(st.integers(min_value=0, max_value=2),
                               min_size=n, max_size=n))
    return trace_from_lists(arrivals, prompts, outputs, name="small",
                            priorities=priorities)


def assert_sketch_matches(sketch, reference):
    """``sketch`` holds the values ``reference`` holds, folded in another
    order: integer state equal, the float sum to rounding."""
    assert sketch.rel_accuracy == reference.rel_accuracy
    assert sketch._buckets == reference._buckets
    assert sketch.zero_count == reference.zero_count
    assert sketch.count == reference.count
    assert sketch.min == reference.min
    assert sketch.max == reference.max
    assert math.isclose(sketch.sum, reference.sum, rel_tol=1e-12)


@pytest.fixture(scope="module")
def paired_reports():
    """The same heavy-tailed trace served in full and streaming modes."""
    model = _serve_model(32)
    trace = generate_trace("heavy-tail", rate=400.0, num_requests=64, seed=5,
                           prompt_mean=48.0, prompt_max=192,
                           output_mean=4.0, output_max=8)
    schedule = Schedule.dynamic()
    reports = {}
    for mode in ("full", "streaming"):
        config = ServeConfig(model=model, batch_cap=4, num_layers=1,
                             report_mode=mode)
        reports[mode] = simulate_serving(config, trace, schedule)
    return reports["full"], reports["streaming"]


class TestStreamingServeEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(trace=small_traces(),
           batching=st.sampled_from(["orca-continuous", "chunked-prefill",
                                     "prefill-decode"]),
           hardware=st.sampled_from([None, "sda-hbm-small"]))
    def test_both_sinks_report_the_same_run(self, trace, batching, hardware):
        window = 5_000.0
        reports = {}
        for mode in ("full", "streaming"):
            config = ServeConfig(model=_serve_model(32), batch_cap=4,
                                 num_layers=2, report_mode=mode,
                                 window_cycles=window,
                                 policy={"batching": batching,
                                         "prefill_chunk": 32})
            reports[mode] = simulate_serving(config, trace, Schedule.dynamic(),
                                             hardware=hardware)
        full, streaming = reports["full"], reports["streaming"]
        stats = streaming.streaming
        assert stats is not None and full.streaming is None
        assert streaming.num_requests == full.num_requests == len(trace)
        assert streaming.total_output_tokens == full.total_output_tokens
        assert streaming.num_steps == full.num_steps
        assert stats.busy_cycles == sum(s.cycles for s in full.steps)
        assert streaming.queue_depth() == full.queue_depth()
        assert streaming.utilization_heatmap() == \
            full.utilization_heatmap(window)
        assert streaming.total_cycles == full.total_cycles
        assert streaming.memory == full.memory

        # completion order is not recoverable from the sorted records, so
        # only the float sums may differ from a fresh fold of them
        reference = StreamingStats(rel_accuracy=stats.rel_accuracy)
        for record in full.requests:
            reference.observe_request(*astuple(record))
        for key in ("ttft", "tpot", "e2e"):
            assert_sketch_matches(getattr(stats, key),
                                  getattr(reference, key))
        assert stats.priority_classes() == reference.priority_classes()
        for cls, trio in reference._classes.items():
            for key, sketch in trio.items():
                assert_sketch_matches(stats._classes[cls][key], sketch)

        rel = stats.rel_accuracy
        for metric in ("ttft", "tpot", "e2e"):
            exact = getattr(full, metric)()
            estimate = getattr(streaming, metric)()
            assert estimate["count"] == exact["count"]
            for q in QS:
                assert estimate[f"p{q}"] == pytest.approx(
                    exact[f"p{q}"], rel=rel), (metric, q)

    def test_exact_aggregates_match(self, paired_reports):
        full, streaming = paired_reports
        assert streaming.report_mode == "streaming"
        assert streaming.num_requests == full.num_requests
        assert streaming.num_steps == full.num_steps
        assert streaming.total_output_tokens == full.total_output_tokens
        assert streaming.total_cycles == full.total_cycles
        assert streaming.queue_depth() == full.queue_depth()
        assert streaming.goodput == full.goodput

    def test_percentiles_within_sketch_bound(self, paired_reports):
        full, streaming = paired_reports
        rel = streaming.streaming.rel_accuracy
        for metric in ("ttft", "tpot", "e2e"):
            exact = getattr(full, metric)()
            estimate = getattr(streaming, metric)()
            assert estimate["count"] == exact["count"]
            assert estimate["max"] == exact["max"]
            assert estimate["mean"] == pytest.approx(exact["mean"], rel=1e-9)
            for q in QS:
                assert estimate[f"p{q}"] == pytest.approx(
                    exact[f"p{q}"], rel=rel), (metric, q)

    def test_slo_attainment_matches_away_from_boundary(self, paired_reports):
        full, streaming = paired_reports
        # a threshold far from any observed TTFT: count_le is exact there
        slo = full.ttft()["p90"] * 1.5
        assert streaming.slo_attainment(slo) == full.slo_attainment(slo)

    def test_streaming_report_round_trips(self, paired_reports):
        _, streaming = paired_reports
        clone = ServingReport.from_dict(streaming.to_dict())
        assert clone.to_dict() == streaming.to_dict()
        assert clone.ttft() == streaming.ttft()
        assert clone.queue_depth() == streaming.queue_depth()

    def test_streaming_report_round_trips_through_json(self, paired_reports):
        _, streaming = paired_reports
        payload = json.loads(json.dumps(streaming.to_dict()))
        assert ServingReport.from_dict(payload).to_dict() == streaming.to_dict()

    def test_full_mode_payload_has_no_streaming_key(self, paired_reports):
        full, streaming = paired_reports
        assert "streaming" not in full.to_dict()
        assert "streaming" in streaming.to_dict()
        # streaming mode drops the per-request / per-step payloads entirely
        payload = streaming.to_dict()
        assert payload["requests"] == []
        assert payload["steps"] == []


class TestStreamingMemoryCeiling:
    def test_100k_requests_report_in_constant_memory(self):
        """The acceptance bound: a >= 100k-request streaming run whose peak
        traced allocation is O(windows + sketch buckets), megabytes below the
        O(requests) a full-mode record list would allocate."""
        n = 100_000
        batch = 8
        gap = 3000.0  # one batch-sized burst per gap keeps the queue tiny
        arrivals = [float(int(i // batch) * gap) for i in range(n)]
        trace = trace_from_lists(arrivals, [16] * n, [1] * n, name="const-100k")
        config = ServeConfig(model=_serve_model(32), batch_cap=batch,
                             num_layers=1, report_mode="streaming")
        schedule = Schedule.dynamic()

        # warm the step memo so the traced run measures the serving loop and
        # the streaming report, not one-time step-cost simulation
        simulate_serving(config, trace, schedule)

        tracemalloc.start()
        report = simulate_serving(config, trace, schedule)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert report.num_requests == n
        assert report.streaming is not None
        # O(windows + buckets): both stay small however many requests ran
        assert report.streaming.timeline.num_windows < 1000
        assert report.streaming.ttft.num_buckets < 1000
        # a full-mode report would hold 100k RequestRecords (+ steps): tens
        # of MB; the streaming run's whole working set stays under 2 MB
        assert peak < 2 * 1024 * 1024, f"peak {peak / 1e6:.2f} MB"
