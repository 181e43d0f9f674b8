"""Finite KV memory: the page pool, eviction policies and engine preemption."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import serve
from repro.core.errors import ConfigError
from repro.platforms import get_platform
from repro.schedules import Schedule
from repro.serve import (KVPagePool, MemoryStats, ServeConfig, ServingReport,
                         eviction_policy_names, get_eviction_policy,
                         kv_bytes_per_row, simulate_serving, trace_from_lists)
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config


@pytest.fixture(scope="module")
def model():
    return replace(scaled_config(QWEN3_30B_A3B, scale=64), name="mem-2e",
                   num_experts=2, experts_per_token=1)


def config(model, **overrides):
    defaults = dict(batch_cap=4, num_layers=1, kv_tile_rows=16, seed=3)
    defaults.update(overrides)
    return ServeConfig(model=model, **defaults)


def tiny_platform(model, pages, *, kv_tile_rows=16, num_layers=1):
    """An SDA variant whose HBM holds exactly ``pages`` KV pages."""
    row_bytes = kv_bytes_per_row(model, num_layers)
    return get_platform("sda").replace(
        f"sda-test-{pages}p", hbm_capacity_bytes=pages * kv_tile_rows * row_bytes)


class TestPagePoolAccounting:
    def test_admit_grow_release_roundtrip(self):
        pool = KVPagePool(capacity_pages=4, page_rows=16)
        assert pool.try_admit(0, rows=20, max_rows=64)  # 2 pages
        assert pool.used_pages == 2 and pool.free_pages == 2
        assert pool.try_grow(0, rows=32)   # still 2 pages
        assert pool.used_pages == 2
        assert pool.try_grow(0, rows=33)   # crosses into page 3
        assert pool.used_pages == 3
        assert pool.release(0) == 3
        assert pool.used_pages == 0 and pool.used_rows == 0
        assert pool.stats()["releases"] == 1

    def test_pages_for_ceil_with_min_one(self):
        pool = KVPagePool(capacity_pages=4, page_rows=16)
        assert pool.pages_for(0) == 1
        assert pool.pages_for(16) == 1
        assert pool.pages_for(17) == 2

    def test_admit_fails_when_full_and_counts(self):
        pool = KVPagePool(capacity_pages=2, page_rows=16)
        assert pool.try_admit(0, rows=32, max_rows=32)
        assert not pool.try_admit(1, rows=1, max_rows=16)
        assert pool.failed_admits == 1
        assert pool.used_pages == 2  # the failed admit reserved nothing

    def test_grow_fails_when_full_and_leaves_reservation(self):
        pool = KVPagePool(capacity_pages=2, page_rows=16)
        assert pool.try_admit(0, rows=16, max_rows=64)
        assert pool.try_admit(1, rows=16, max_rows=64)
        assert not pool.try_grow(0, rows=17)
        assert pool.failed_grows == 1
        assert pool.used_pages == 2
        # freeing the neighbour unblocks the growth
        pool.release(1)
        assert pool.try_grow(0, rows=17)

    def test_occupancy_fragmentation_and_peak(self):
        pool = KVPagePool(capacity_pages=4, page_rows=16)
        assert pool.occupancy == 0.0 and pool.fragmentation == 0.0
        pool.try_admit(0, rows=8, max_rows=8)
        assert pool.occupancy == pytest.approx(0.25)
        assert pool.fragmentation == pytest.approx(0.5)  # 8 of 16 rows unused
        pool.try_admit(1, rows=16, max_rows=16)
        assert pool.peak_pages == 2
        pool.release(0)
        assert pool.peak_pages == 2  # peak is sticky

    def test_contiguous_reserves_lifetime_upfront(self):
        pool = KVPagePool(capacity_pages=4, page_rows=16, mode="contiguous")
        assert pool.try_admit(0, rows=4, max_rows=48)  # 3 pages, not 1
        assert pool.used_pages == 3
        # growth inside the lifetime never allocates, never fails
        assert pool.try_grow(0, rows=48)
        assert pool.used_pages == 3 and pool.grows == 0
        # exceeding the reservation is a scheduler bug, not a soft failure
        with pytest.raises(ConfigError):
            pool.try_grow(0, rows=49)

    def test_double_admit_and_unknown_ids_raise(self):
        pool = KVPagePool(capacity_pages=4, page_rows=16)
        pool.try_admit(0, rows=1, max_rows=1)
        with pytest.raises(ConfigError):
            pool.try_admit(0, rows=1, max_rows=1)
        with pytest.raises(ConfigError):
            pool.try_grow(7, rows=1)
        with pytest.raises(ConfigError):
            pool.release(7)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigError):
            KVPagePool(capacity_pages=0, page_rows=16)
        with pytest.raises(ConfigError):
            KVPagePool(capacity_pages=1, page_rows=0)
        with pytest.raises(ConfigError):
            KVPagePool(capacity_pages=1, page_rows=16, mode="virtual")

    def test_from_bytes_floor_divides_and_rejects_subpage(self):
        pool = KVPagePool.from_bytes(capacity_bytes=1000, page_rows=16,
                                     row_bytes=16)  # 256 B/page -> 3 pages
        assert pool.capacity_pages == 3
        with pytest.raises(ConfigError):
            KVPagePool.from_bytes(capacity_bytes=255, page_rows=16, row_bytes=16)
        with pytest.raises(ConfigError):
            KVPagePool.from_bytes(capacity_bytes=1000, page_rows=16, row_bytes=0)


def _candidate(request_id, kv_length, admitted_at):
    return SimpleNamespace(request=SimpleNamespace(request_id=request_id),
                           kv_length=kv_length, admitted_at=admitted_at)


class TestEvictionPolicies:
    CANDIDATES = [_candidate(0, kv_length=10, admitted_at=100.0),
                  _candidate(1, kv_length=30, admitted_at=50.0),
                  _candidate(2, kv_length=30, admitted_at=200.0)]

    def test_registry_names_sorted_and_unknown_rejected(self):
        assert eviction_policy_names() == sorted(eviction_policy_names())
        assert {"evict-lru", "evict-largest-kv", "evict-youngest"} <= \
            set(eviction_policy_names())
        with pytest.raises(ConfigError):
            get_eviction_policy("evict-random")

    def test_lru_picks_oldest_admission(self):
        policy = get_eviction_policy("evict-lru")
        assert policy.select(self.CANDIDATES).request.request_id == 1

    def test_largest_kv_picks_biggest_context(self):
        policy = get_eviction_policy("evict-largest-kv")
        # 1 and 2 tie on kv_length; the lower request_id wins the tie
        assert policy.select(self.CANDIDATES).request.request_id == 1

    def test_youngest_picks_latest_admission(self):
        policy = get_eviction_policy("evict-youngest")
        assert policy.select(self.CANDIDATES).request.request_id == 2

    def test_selection_is_order_independent(self):
        # determinism across Python hash seeds: the choice depends on the
        # candidates' keys, never on iteration order
        for name in eviction_policy_names():
            policy = get_eviction_policy(name)
            forward = policy.select(self.CANDIDATES).request.request_id
            backward = policy.select(list(reversed(self.CANDIDATES)))
            assert backward.request.request_id == forward


class TestMemoryStatsSerialization:
    STATS = MemoryStats(mode="paged", page_rows=16, capacity_pages=8,
                        row_bytes=64, peak_pages=7, preemptions=3,
                        recompute_tokens=41, admission_stalls=12,
                        occupancy_mean=0.5, occupancy_max=0.875,
                        fragmentation_mean=0.1, fragmentation_max=0.3)

    def test_to_from_dict_round_trips_through_json(self):
        payload = json.loads(json.dumps(self.STATS.to_dict()))
        assert MemoryStats.from_dict(payload) == self.STATS

    def test_empty_metrics_mirrors_metric_keys(self):
        assert set(MemoryStats.empty_metrics()) == set(self.STATS.metrics())
        assert all(v == 0.0 for v in MemoryStats.empty_metrics().values())


@pytest.fixture(scope="module")
def pressure_trace():
    """Four long-decode requests landing together on a small pool."""
    return trace_from_lists(
        arrivals=[0.0, 0.0, 0.0, 0.0, 100.0, 100.0],
        prompt_tokens=[24, 24, 24, 24, 16, 16],
        output_tokens=[24, 24, 24, 24, 16, 16],
        name="pressure")


class TestEnginePreemption:
    def test_pressure_preempts_and_still_completes_everyone(self, model,
                                                            pressure_trace):
        """No starvation: every request completes exactly once even when the
        pool forces repeated eviction and recompute."""
        platform = tiny_platform(model, pages=6)
        report = simulate_serving(config(model), pressure_trace,
                                  Schedule.dynamic(), hardware=platform)
        assert report.memory is not None
        assert report.memory.preemptions > 0
        assert report.memory.recompute_tokens > 0
        assert sorted(r.request_id for r in report.requests) == list(range(6))

    def test_victim_selection_is_deterministic_per_policy(self, model,
                                                          pressure_trace):
        platform = tiny_platform(model, pages=6)
        for policy in eviction_policy_names():
            cfg = config(model, eviction_policy=policy)
            first = simulate_serving(cfg, pressure_trace, Schedule.dynamic(),
                                     hardware=platform)
            second = simulate_serving(cfg, pressure_trace, Schedule.dynamic(),
                                      hardware=platform)
            assert second.to_dict() == first.to_dict()

    def test_policies_shape_the_recompute_bill_differently(self, model):
        # staggered arrivals + mixed context sizes make age, size and youth
        # rank the candidates differently
        trace = trace_from_lists(
            arrivals=[0.0, 200.0, 400.0, 600.0, 800.0, 1000.0],
            prompt_tokens=[40, 8, 24, 8, 40, 8],
            output_tokens=[32, 24, 24, 24, 16, 16],
            name="staggered")
        platform = tiny_platform(model, pages=7)
        by_policy = {
            policy: simulate_serving(config(model, eviction_policy=policy),
                                     trace, Schedule.dynamic(),
                                     hardware=platform).memory
            for policy in eviction_policy_names()}
        # all policies preempt under this trace, and they disagree on the
        # outcome (otherwise the registry is decorative)
        assert all(m.preemptions > 0 for m in by_policy.values())
        bills = {(m.preemptions, m.recompute_tokens) for m in by_policy.values()}
        assert len(bills) == len(by_policy)

    def test_contiguous_mode_never_preempts(self, model, pressure_trace):
        platform = tiny_platform(model, pages=6)
        report = simulate_serving(config(model, kv_mode="contiguous"),
                                  pressure_trace, Schedule.dynamic(),
                                  hardware=platform)
        assert report.memory.preemptions == 0
        assert report.memory.recompute_tokens == 0
        assert report.memory.admission_stalls > 0  # pressure shows up here
        assert sorted(r.request_id for r in report.requests) == list(range(6))

    def test_oversized_request_rejected_at_submit(self, model):
        platform = tiny_platform(model, pages=2)
        trace = trace_from_lists([0.0], [24], [24], name="too-big")  # 3 pages
        with pytest.raises(ConfigError):
            simulate_serving(config(model), trace, Schedule.dynamic(),
                             hardware=platform)

    def test_kv_occupancy_recorded_on_every_step(self, model, pressure_trace):
        platform = tiny_platform(model, pages=6)
        report = simulate_serving(config(model), pressure_trace,
                                  Schedule.dynamic(), hardware=platform)
        assert all(s.kv_capacity_pages == 6 for s in report.steps)
        assert all(0 <= s.kv_pages <= 6 for s in report.steps)
        assert max(s.kv_pages for s in report.steps) == report.memory.peak_pages
        assert sum(s.preemptions for s in report.steps) == \
            report.memory.preemptions


class TestFacadeOnBoundedPlatform:
    def test_serve_threads_the_platform_into_memory_stats(self, model,
                                                          pressure_trace):
        report = serve(model, pressure_trace, platform=tiny_platform(model, 6),
                       batch_cap=4, num_layers=1, kv_tile_rows=16, seed=3)
        assert report.memory is not None and report.memory.capacity_pages == 6
        assert report.metrics()["kv_occupancy_max"] > 0
        restored = ServingReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert restored.to_dict() == report.to_dict()
        assert restored.memory == report.memory


class TestUnboundedPathUnchanged:
    def test_unbounded_report_has_no_memory_and_zero_slice(self, model,
                                                           pressure_trace):
        report = simulate_serving(config(model), pressure_trace,
                                  Schedule.dynamic())
        assert report.memory is None
        metrics = report.metrics()
        assert metrics["preemptions"] == 0.0
        assert metrics["kv_capacity_pages"] == 0.0

    def test_kv_knobs_are_inert_without_capacity(self, model, pressure_trace):
        """kv_mode / eviction_policy cannot change an unbounded run at all."""
        base = simulate_serving(config(model), pressure_trace,
                                Schedule.dynamic())
        for overrides in ({"kv_mode": "contiguous"},
                          {"eviction_policy": "evict-youngest"}):
            other = simulate_serving(config(model, **overrides),
                                     pressure_trace, Schedule.dynamic())
            assert other.to_dict() == base.to_dict()

    def test_bounded_but_roomy_pool_matches_unbounded(self, model,
                                                      pressure_trace):
        """A pool that never fills changes accounting, not scheduling: the
        requests and steps match the unbounded run exactly."""
        unbounded = simulate_serving(config(model), pressure_trace,
                                     Schedule.dynamic())
        roomy = simulate_serving(config(model), pressure_trace,
                                 Schedule.dynamic(),
                                 hardware=tiny_platform(model, pages=64))
        assert roomy.memory.preemptions == 0
        assert roomy.memory.admission_stalls == 0
        assert [r.__dict__ for r in roomy.requests] == \
            [r.__dict__ for r in unbounded.requests]
        assert roomy.total_cycles == unbounded.total_cycles


class TestServingReportMemoryRoundTrip:
    def test_bounded_report_round_trips_through_json(self, model,
                                                     pressure_trace):
        report = simulate_serving(config(model), pressure_trace,
                                  Schedule.dynamic(),
                                  hardware=tiny_platform(model, pages=6))
        payload = json.loads(json.dumps(report.to_dict()))
        restored = ServingReport.from_dict(payload)
        assert restored.to_dict() == report.to_dict()
        assert restored.memory == report.memory
        assert restored.metrics() == report.metrics()

    def test_pre_memory_payload_still_loads(self, model, pressure_trace):
        """Reports serialized before the memory subsystem (no 'memory' key,
        no kv fields in steps) must keep loading."""
        report = simulate_serving(config(model), pressure_trace,
                                  Schedule.dynamic())
        payload = report.to_dict()
        del payload["memory"]
        for step in payload["steps"]:
            for key in ("kv_rows", "kv_pages", "kv_capacity_pages",
                        "preemptions"):
                del step[key]
        restored = ServingReport.from_dict(json.loads(json.dumps(payload)))
        assert restored.memory is None
        assert restored.total_cycles == report.total_cycles
