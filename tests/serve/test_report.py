"""ServingReport unit tests: percentile math, serialization, and the golden.

The golden section pins a complete serving run — a known 4-request arrival
trace on a tiny 2-expert model — to recorded TTFT/TPOT/e2e values.  The
simulator is deterministic, so drift here means the serving scheduler, the
step-cost composition or the underlying timing model changed behaviour; if
the change is intentional, re-record the constants (they are printed by
running this file's ``_golden_report`` under ``python -c``).
"""

import dataclasses
import inspect
import pickle
from dataclasses import replace

import pytest

from repro.core.errors import ConfigError
from repro.schedules import Schedule
from repro.serve import (RequestRecord, ServeConfig, ServingReport, StepSample,
                         percentile, simulate_serving, summarize, trace_from_lists)
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

REL_TOL = 0.02


class TestPercentileMath:
    """Nearest-rank percentiles: every value is an observed sample."""

    def test_pinned_values_on_one_to_ten(self):
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]  # unsorted on purpose
        assert percentile(values, 0) == 1.0
        assert percentile(values, 10) == 1.0
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 95) == 10.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 100) == 10.0

    def test_single_sample_is_every_percentile(self):
        for q in (0, 50, 99, 100):
            assert percentile([42.0], q) == 42.0

    def test_rank_boundaries_are_exact(self):
        # with 4 samples, p50 -> ceil(2.0) = rank 2, p51 -> ceil(2.04) = rank 3
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 51) == 3.0
        assert percentile(values, 75) == 3.0
        assert percentile(values, 76) == 4.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ConfigError):
            percentile([], 50)
        with pytest.raises(ConfigError):
            percentile([1.0], 101)
        with pytest.raises(ConfigError):
            percentile([1.0], -1)

    def test_summarize_empty_sample_is_all_zero(self):
        summary = summarize([])
        assert set(summary) == {"mean", "max", "p50", "p90", "p95", "p99",
                                "count"}
        assert all(v == 0.0 for v in summary.values())
        # count distinguishes "no samples" from a legitimately all-zero sample
        assert summarize([0.0, 0.0])["count"] == 2.0

    def test_summarize_matches_percentile(self):
        values = [float(i) for i in range(1, 101)]
        summary = summarize(values)
        assert summary["mean"] == 50.5
        assert summary["max"] == 100.0
        assert summary["p50"] == 50.0
        assert summary["p99"] == 99.0
        assert summary["count"] == 100.0

    def test_summarize_single_sort_matches_per_percentile_sorts(self):
        # unsorted, duplicate-heavy input: the sort-once fast path must agree
        # with independent nearest-rank percentile() calls on every point
        values = [5.0, 1.0, 5.0, 3.0, 9.0, 1.0, 7.0]
        summary = summarize(values)
        for q in (50, 90, 95, 99):
            assert summary[f"p{q}"] == percentile(values, q)


class TestRequestRecord:
    def test_latency_definitions(self):
        record = RequestRecord(request_id=0, arrival=100.0, first_token=350.0,
                               completion=950.0, prompt_tokens=32, output_tokens=4)
        assert record.ttft == 250.0
        assert record.tpot == pytest.approx(200.0)  # (950-350)/3
        assert record.e2e == 850.0

    def test_single_token_output_has_zero_tpot(self):
        record = RequestRecord(request_id=0, arrival=0.0, first_token=10.0,
                               completion=10.0, prompt_tokens=16, output_tokens=1)
        assert record.tpot == 0.0


class TestHandWrittenInit:
    """``RequestRecord`` and ``StepSample`` write their ``__init__`` by hand
    (one ``__dict__`` fill instead of a ``__setattr__`` per field); these
    pins keep it equal to the generated one."""

    @pytest.mark.parametrize("cls", [RequestRecord, StepSample])
    def test_parameters_match_the_fields(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        fields = dataclasses.fields(cls)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            want = (inspect.Parameter.empty if field.default is dataclasses.MISSING
                    else field.default)
            assert param.default == want, field.name
            assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD

    @pytest.mark.parametrize("cls", [RequestRecord, StepSample])
    def test_frozen_value_semantics(self, cls):
        values = {f.name: i + 1 for i, f in enumerate(dataclasses.fields(cls))}
        record = cls(**values)
        assert vars(record) == values
        assert record == cls(*values.values())
        assert hash(record) == hash(cls(**values))
        assert cls.from_dict(record.to_dict()) == record
        assert pickle.loads(pickle.dumps(record)) == record
        last = dataclasses.fields(cls)[-1].name
        changed = replace(record, **{last: 99})
        assert getattr(changed, last) == 99 and changed != record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, last, 0)


class TestSerialization:
    def _report(self):
        return ServingReport(
            trace="t", schedule="dynamic", batch_cap=4,
            requests=(RequestRecord(0, 0.0, 10.0, 30.0, 16, 3),
                      RequestRecord(1, 5.0, 12.0, 12.0, 16, 1)),
            steps=(StepSample(0.0, 10.0, 2, 1, 33, 2),
                   StepSample(10.0, 2.0, 1, 0, 1, 0)),
            total_cycles=30.0, distinct_steps=2)

    def test_round_trip_is_bit_identical(self):
        report = self._report()
        restored = ServingReport.from_dict(report.to_dict())
        assert restored.to_dict() == report.to_dict()
        assert restored.requests == report.requests
        assert restored.steps == report.steps

    def test_metrics_flat_and_json_able(self):
        import json

        metrics = self._report().metrics()
        assert all(isinstance(v, float) for v in metrics.values())
        json.dumps(metrics)  # must not raise
        assert metrics["requests"] == 2.0
        assert metrics["ttft_p50"] == 7.0   # min(10-0, 12-5) at rank 1 of 2
        assert metrics["queue_queued_max"] == 1.0

    def test_empty_report_has_zero_metrics(self):
        empty = ServingReport(trace="t", schedule="s", batch_cap=1)
        metrics = empty.metrics()
        assert metrics["requests"] == 0.0
        assert metrics["goodput_rpmc"] == 0.0
        assert metrics["ttft_p95"] == 0.0
        assert ServingReport.from_dict(empty.to_dict()).to_dict() == empty.to_dict()


class TestStepCacheStats:
    """``to_dict``'s ``step_cache`` key: live memo counters, not run state."""

    def _report(self):
        return ServingReport(trace="t", schedule="dynamic", batch_cap=4,
                             total_cycles=1.0)

    def test_payload_carries_integer_counters(self):
        payload = self._report().to_dict()
        stats = payload["step_cache"]
        assert set(stats) == {"size", "maxsize", "hits", "misses", "evictions"}
        assert all(isinstance(v, int) for v in stats.values())

    def test_from_dict_ignores_and_metrics_excludes_it(self):
        # sweep-cache payloads must be pure functions of the point, so the
        # live counters never leak into metrics() and never affect loading
        report = self._report()
        assert "step_cache" not in report.metrics()
        payload = report.to_dict()
        payload["step_cache"] = {"size": 10**6, "maxsize": 1, "hits": -1,
                                 "misses": -1, "evictions": -1}
        reloaded = ServingReport.from_dict(payload)
        assert reloaded.total_cycles == report.total_cycles
        del payload["step_cache"]  # pre-PR-10 payloads lack the key entirely
        assert ServingReport.from_dict(payload).to_dict() == report.to_dict()

    def test_counters_track_memoization(self):
        from repro.serve.scheduler import clear_step_cache, step_cache_stats

        clear_step_cache()
        _golden_report()
        first = step_cache_stats()
        assert first["misses"] > 0
        assert first["size"] == first["misses"] <= first["maxsize"]
        report = _golden_report()  # identical run -> pure cache hits
        second = step_cache_stats()
        assert second["misses"] == first["misses"]
        assert second["hits"] >= first["hits"] + report.distinct_steps
        assert report.to_dict()["step_cache"] == second


# ---------------------------------------------------------------------------
# Golden: a known arrival trace with pinned latency percentiles
# ---------------------------------------------------------------------------

def _golden_report() -> ServingReport:
    model = replace(scaled_config(QWEN3_30B_A3B, scale=64), name="golden-2e",
                    num_experts=2, experts_per_token=1)
    trace = trace_from_lists(
        arrivals=[0.0, 100.0, 5000.0, 20000.0],
        prompt_tokens=[32, 16, 64, 16],
        output_tokens=[3, 1, 4, 2],
        name="golden-trace")
    config = ServeConfig(model=model, batch_cap=2, num_layers=1,
                         kv_tile_rows=64, seed=7)
    return simulate_serving(config, trace, Schedule.dynamic())


#: recorded from the run above; every cycle-derived value is asserted at 2%
GOLDEN = {
    "total_cycles": 21301.5,
    "steps": 9,
    "distinct_steps": 6,
    "ttft_p50": 855.5,
    "ttft_p95": 1515.688,
    "ttft_mean": 1024.375,
    "tpot_p50": 656.219,
    "tpot_p95": 682.25,
    "e2e_p50": 1515.688,
    "e2e_p95": 3023.812,
    "goodput_rpmc": 187.78,
}


@pytest.fixture(scope="module")
def golden_report():
    return _golden_report()


class TestGoldenServingRun:
    def test_structure_is_exact(self, golden_report):
        report = golden_report
        assert report.num_requests == 4
        assert report.total_output_tokens == 10
        assert len(report.steps) == GOLDEN["steps"]
        assert report.distinct_steps == GOLDEN["distinct_steps"]
        # the late-arriving request waited: its prefill starts at its arrival
        assert report.steps[-2].start == pytest.approx(20000.0)

    def test_latency_percentiles_match_recorded_values(self, golden_report):
        metrics = golden_report.metrics()
        for key, expected in GOLDEN.items():
            if key in ("steps", "distinct_steps", "total_cycles"):
                continue
            assert metrics[key] == pytest.approx(expected, rel=REL_TOL), key

    def test_total_cycles_matches(self, golden_report):
        assert golden_report.total_cycles == pytest.approx(GOLDEN["total_cycles"],
                                                           rel=REL_TOL)

    def test_rerun_is_bit_identical(self, golden_report):
        assert _golden_report().to_dict() == golden_report.to_dict()

    def test_round_trip_preserves_golden_metrics(self, golden_report):
        restored = ServingReport.from_dict(golden_report.to_dict())
        assert restored.metrics() == golden_report.metrics()
