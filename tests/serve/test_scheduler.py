"""Behavioural invariants of the continuous-batching scheduler."""

import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import ConfigError
from repro.platforms import resolve_platform
from repro.schedules import Schedule
from repro.serve import (ServeConfig, ServePolicy, StepMemo, clear_step_cache,
                         poisson_trace, simulate_serving, step_cache_stats,
                         term_cache_stats, trace_from_lists)
from repro.serve.workload import STEP_TERMS
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config


@pytest.fixture(scope="module")
def model():
    return replace(scaled_config(QWEN3_30B_A3B, scale=64), name="sched-2e",
                   num_experts=2, experts_per_token=1)


def config(model, **overrides):
    defaults = dict(batch_cap=2, num_layers=1, kv_tile_rows=64, seed=3)
    defaults.update(overrides)
    return ServeConfig(model=model, **defaults)


#: six requests arriving faster than a cap-2 server drains them
BUSY_TRACE = trace_from_lists(
    arrivals=[0.0, 0.0, 0.0, 500.0, 500.0, 1000.0],
    prompt_tokens=[32, 16, 16, 32, 16, 16],
    output_tokens=[3, 2, 2, 3, 1, 2],
    name="busy")


@pytest.fixture(scope="module")
def busy_report(model):
    return simulate_serving(config(model), BUSY_TRACE, Schedule.dynamic())


class TestSchedulingInvariants:
    def test_every_request_completes_exactly_once(self, busy_report):
        assert busy_report.num_requests == 6
        assert sorted(r.request_id for r in busy_report.requests) == list(range(6))

    def test_batch_cap_respected_every_step(self, busy_report):
        assert all(step.running <= 2 for step in busy_report.steps)
        assert max(step.running for step in busy_report.steps) == 2

    def test_queue_builds_when_cap_saturated(self, busy_report):
        assert max(step.queued for step in busy_report.steps) >= 1

    def test_no_service_before_arrival(self, busy_report):
        for record in busy_report.requests:
            assert record.first_token > record.arrival
            assert record.completion >= record.first_token

    def test_fifo_admission_orders_first_tokens_by_arrival(self, busy_report):
        records = sorted(busy_report.requests,
                         key=lambda r: (r.arrival, r.request_id))
        first_tokens = [r.first_token for r in records]
        assert first_tokens == sorted(first_tokens)

    # chunked prefill and prefill-decode leave runners out of some steps; a
    # runner that sat a step out must neither advance nor emit a token
    @pytest.mark.parametrize("policy", [
        None, ServePolicy(batching="chunked-prefill", prefill_chunk=16),
        ServePolicy(batching="prefill-decode")],
        ids=lambda policy: policy.batching if policy else "default")
    def test_token_conservation_across_steps(self, model, policy):
        # each request contributes its prompt (prefill step) plus one token
        # per decode step; the step samples must account for every one
        report = simulate_serving(config(model, policy=policy), BUSY_TRACE,
                                  Schedule.dynamic())
        expected = sum(r.prompt_tokens + (r.output_tokens - 1)
                       for r in report.requests)
        assert report.num_requests == 6
        assert sum(step.tokens for step in report.steps) == expected

    def test_steps_are_contiguous_in_time(self, busy_report):
        for prev, cur in zip(busy_report.steps, busy_report.steps[1:]):
            assert cur.start >= prev.start + prev.cycles - 1e-9
        last = busy_report.steps[-1]
        assert busy_report.total_cycles == pytest.approx(last.start + last.cycles)


class TestIdleJump:
    def test_server_sleeps_through_an_idle_gap(self, model):
        trace = trace_from_lists(
            arrivals=[0.0, 500_000.0],
            prompt_tokens=[16, 16],
            output_tokens=[2, 2],
            name="gapped")
        report = simulate_serving(config(model), trace, Schedule.dynamic())
        # the second request's prefill step starts exactly at its arrival,
        # not after idle-spinning step after step
        starts = [step.start for step in report.steps]
        assert 500_000.0 in starts
        # and the gap contains no steps at all
        assert not any(10_000 < start < 500_000 for start in starts)
        assert report.requests[1].ttft < 100_000


class TestDeterminismAndMemo:
    def test_memoization_does_not_change_results(self, model):
        trace = poisson_trace(rate=200.0, num_requests=6, seed=1,
                              prompt_mean=32.0, prompt_max=64,
                              output_mean=3.0, output_max=6)
        cold_cache_entries = clear_step_cache()
        del cold_cache_entries
        first = simulate_serving(config(model), trace, Schedule.dynamic())
        # warm memo: same results, bit for bit
        second = simulate_serving(config(model), trace, Schedule.dynamic())
        assert second.to_dict() == first.to_dict()
        # cleared memo: still identical
        clear_step_cache()
        third = simulate_serving(config(model), trace, Schedule.dynamic())
        assert third.to_dict() == first.to_dict()
        assert third.distinct_steps == first.distinct_steps

    def test_schedule_changes_the_latencies(self, model):
        trace = poisson_trace(rate=200.0, num_requests=5, seed=2,
                              prompt_mean=32.0, prompt_max=64,
                              output_mean=3.0, output_max=6)
        dynamic = simulate_serving(config(model), trace, Schedule.dynamic())
        static = simulate_serving(config(model), trace,
                                  Schedule.static("static", tile_rows=4))
        assert dynamic.schedule == "dynamic" and static.schedule == "static"
        assert dynamic.to_dict() != static.to_dict()

    def test_seed_changes_routing_hence_latencies(self, model):
        trace = trace_from_lists([0.0], [64], [2], name="one")
        a = simulate_serving(config(model, seed=0), trace, Schedule.dynamic())
        b = simulate_serving(config(model, seed=1), trace, Schedule.dynamic())
        # same trace, different MoE routing seed: steps may (and for this
        # config do) cost differently, but structure is identical
        assert len(a.steps) == len(b.steps)
        assert a.num_requests == b.num_requests


class TestBoundedMemo:
    def test_memo_evicts_lru_beyond_maxsize(self):
        memo = StepMemo(maxsize=2)
        memo.put(("ctx", (1,)), 1.0)
        memo.put(("ctx", (2,)), 2.0)
        assert memo.get(("ctx", (1,))) == 1.0  # (1,) is now most-recent
        memo.put(("ctx", (3,)), 3.0)           # evicts (2,), the LRU entry
        assert len(memo) == 2
        assert memo.get(("ctx", (2,))) is None
        assert memo.get(("ctx", (1,))) == 1.0
        assert memo.get(("ctx", (3,))) == 3.0
        assert memo.stats()["evictions"] == 1

    def test_memo_counts_hits_and_misses(self):
        memo = StepMemo(maxsize=4)
        assert memo.get(("ctx", (1,))) is None
        memo.put(("ctx", (1,)), 1.0)
        memo.get(("ctx", (1,)))
        memo.get(("ctx", (1,)))
        stats = memo.stats()
        assert stats == {"size": 1, "maxsize": 4, "hits": 2, "misses": 1,
                         "evictions": 0}
        assert memo.clear() == 1
        assert memo.stats() == {"size": 0, "maxsize": 4, "hits": 0,
                                "misses": 0, "evictions": 0}

    def test_memo_rejects_nonpositive_maxsize(self):
        with pytest.raises(ConfigError):
            StepMemo(maxsize=0)

    def test_process_memo_reports_activity(self, model):
        clear_step_cache()
        trace = poisson_trace(rate=200.0, num_requests=4, seed=1,
                              prompt_mean=32.0, prompt_max=64,
                              output_mean=3.0, output_max=6)
        simulate_serving(config(model), trace, Schedule.dynamic())
        cold = step_cache_stats()
        assert cold["size"] > 0 and cold["misses"] > 0
        simulate_serving(config(model), trace, Schedule.dynamic())
        warm = step_cache_stats()
        assert warm["hits"] > cold["hits"]
        assert warm["size"] == cold["size"]

    def test_eviction_pressure_never_changes_results(self, model, monkeypatch):
        """A memo far too small to hold one run still reproduces the report
        bit for bit — eviction costs re-simulation, never correctness."""
        from repro.serve import scheduler

        trace = poisson_trace(rate=300.0, num_requests=6, seed=1,
                              prompt_mean=32.0, prompt_max=64,
                              output_mean=3.0, output_max=6)
        clear_step_cache()
        reference = simulate_serving(config(model), trace, Schedule.dynamic())
        monkeypatch.setattr(scheduler, "_STEP_MEMO", StepMemo(maxsize=1))
        monkeypatch.setattr(scheduler, "_TERM_MEMOS",
                            {term: StepMemo(maxsize=1) for term in STEP_TERMS})
        squeezed = simulate_serving(config(model), trace, Schedule.dynamic())
        assert squeezed.to_dict() == reference.to_dict()
        stats = scheduler.step_cache_stats()
        assert stats["maxsize"] == 1
        assert stats["evictions"] > 0
        for term, term_stats in term_cache_stats().items():
            assert term_stats["maxsize"] == 1, term
            assert term_stats["evictions"] > 0, term


class TestTermMemo:
    """Each sub-layer term is simulated once per distinct input it depends
    on, and composing memoized terms never changes a result."""

    def test_one_simulation_per_distinct_input(self, model, monkeypatch):
        from repro.serve import scheduler, workload

        seen = []
        step_cycles = scheduler._step_cycles

        def recording(config, schedule, hardware, context, num_tokens,
                      kv_lengths, fresh):
            seen.append((num_tokens, kv_lengths))
            return step_cycles(config, schedule, hardware, context,
                               num_tokens, kv_lengths, fresh)

        builds = {term: 0 for term in STEP_TERMS}
        for term in STEP_TERMS:
            builder = getattr(workload, f"build_{term}_layer")

            def counting(cfg, _term=term, _builder=builder):
                builds[_term] += 1
                return _builder(cfg)

            monkeypatch.setattr(workload, f"build_{term}_layer", counting)

        # each term's program is named after its layer ("qkv_...", "moe_...")
        simulations = {term: 0 for term in STEP_TERMS}
        simulate = workload.simulate

        def simulating(program, inputs, **kwargs):
            simulations[program.name.split("_")[0]] += 1
            return simulate(program, inputs, **kwargs)

        monkeypatch.setattr(workload, "simulate", simulating)
        monkeypatch.setattr(scheduler, "_step_cycles", recording)

        trace = poisson_trace(rate=400.0, num_requests=8, seed=4,
                              prompt_mean=48.0, prompt_max=160,
                              output_mean=4.0, output_max=8)
        clear_step_cache()
        report = simulate_serving(config(model, batch_cap=3), trace,
                                  Schedule.dynamic())
        token_counts = {tokens for tokens, _ in seen}
        kv_tuples = {kv for _, kv in seen}
        # the trace must make signatures share terms, or nothing is shown
        assert len(token_counts) < report.distinct_steps
        assert len(kv_tuples) < report.distinct_steps

        terms = term_cache_stats()
        assert step_cache_stats()["misses"] == report.distinct_steps == len(set(seen))
        assert terms["qkv"]["misses"] == len(token_counts) == simulations["qkv"]
        assert terms["moe"]["misses"] == len(token_counts) == simulations["moe"]
        assert (terms["attention"]["misses"] == len(kv_tuples)
                == simulations["attention"])
        # one symbolic-batch program per term serves every step of the run
        assert builds == {term: 1 for term in STEP_TERMS}

    def test_clear_step_cache_clears_the_term_memos(self, model):
        trace = trace_from_lists([0.0], [32], [2], name="one")
        clear_step_cache()
        simulate_serving(config(model), trace, Schedule.dynamic())
        assert all(stats["size"] for stats in term_cache_stats().values())
        assert clear_step_cache() == 2  # the prefill and the decode signature
        for stats in term_cache_stats().values():
            assert stats == {"size": 0, "maxsize": stats["maxsize"], "hits": 0,
                             "misses": 0, "evictions": 0}

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace_seed=st.integers(0, 2**16), num_requests=st.integers(1, 5),
           rate=st.sampled_from([100.0, 800.0]), seed=st.integers(0, 3),
           batch_cap=st.integers(1, 3), kv_tile_rows=st.sampled_from([16, 64]),
           schedule=st.sampled_from([Schedule.dynamic(),
                                     Schedule.static("static", tile_rows=4)]))
    def test_term_memo_matches_uncached_steps(self, model, monkeypatch,
                                              trace_seed, num_requests, rate,
                                              seed, batch_cap, kv_tile_rows,
                                              schedule):
        from repro.serve import scheduler

        trace = poisson_trace(rate=rate, num_requests=num_requests,
                              seed=trace_seed, prompt_mean=40.0, prompt_max=128,
                              output_mean=3.0, output_max=5)
        cfg = config(model, seed=seed, batch_cap=batch_cap,
                     kv_tile_rows=kv_tile_rows)
        clear_step_cache()
        memoized = simulate_serving(cfg, trace, schedule).to_dict()

        def uncached(config, schedule, hardware, context, num_tokens,
                     kv_lengths, fresh):
            step = scheduler._step_workload(config, num_tokens, kv_lengths)
            cycles = step.run(schedule, hardware)["cycles"]
            fresh[(num_tokens, kv_lengths)] = cycles
            return cycles

        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "_step_cycles", uncached)
            reference = simulate_serving(cfg, trace, schedule).to_dict()
        memoized.pop("step_cache")
        reference.pop("step_cache")
        assert memoized == reference

    def test_direct_run_returns_the_full_metrics(self, model):
        from repro.serve import scheduler

        step = scheduler._step_workload(config(model), 40, (64, 128))
        hardware = resolve_platform(None).hardware
        direct = step.run(Schedule.dynamic())
        clear_step_cache()
        memo = functools.partial(scheduler._term_cost, "ctx")
        assert step.run(Schedule.dynamic(), hardware, lookup=memo) == direct
        assert step.run(Schedule.dynamic(), hardware, lookup=memo) == direct
        assert set(direct) == {
            "cycles", "offchip_traffic_bytes", "onchip_memory_bytes",
            "allocated_compute_flops_per_cycle", "num_layers",
            "step_qkv_cycles", "step_attention_cycles", "step_moe_cycles"}
        assert direct["cycles"] == (direct["step_qkv_cycles"]
                                    + direct["step_attention_cycles"]
                                    + direct["step_moe_cycles"])
        assert all(stats["hits"] == 1 for stats in term_cache_stats().values())


class TestFloatAccumulation:
    def test_clock_is_an_exact_prefix_sum_of_steps(self, model):
        """``now += cycles`` with ``now == start`` makes the final clock
        *exactly* ``last.start + last.cycles`` — no tolerance, pinned so a
        refactor can't quietly reintroduce drift between the step records
        and the report's total."""
        trace = poisson_trace(rate=500.0, num_requests=24, seed=9,
                              prompt_mean=32.0, prompt_max=64,
                              output_mean=4.0, output_max=8)
        report = simulate_serving(config(model), trace, Schedule.dynamic())
        assert len(report.steps) > 20
        last = report.steps[-1]
        assert last.start + last.cycles == report.total_cycles  # exact
        # every step starts exactly where the previous ended, or later
        # (an idle jump to a queued arrival) — never earlier, never drifted
        for prev, cur in zip(report.steps, report.steps[1:]):
            end = prev.start + prev.cycles
            assert cur.start == end or cur.start > end


class TestEdgeCases:
    def test_empty_trace_yields_empty_report(self, model):
        empty = trace_from_lists([], [], [], name="empty")
        report = simulate_serving(config(model), empty, Schedule.dynamic())
        assert report.num_requests == 0
        assert report.steps == ()
        assert report.total_cycles == 0.0
        assert report.metrics()["goodput_rpmc"] == 0.0

    def test_single_request_single_token(self, model):
        trace = trace_from_lists([0.0], [16], [1], name="one-shot")
        report = simulate_serving(config(model), trace, Schedule.dynamic())
        assert len(report.steps) == 1
        record = report.requests[0]
        assert record.ttft == record.e2e
        assert record.tpot == 0.0

    def test_cap_one_serializes_everything(self, model):
        trace = trace_from_lists([0.0, 0.0], [16, 16], [2, 2], name="pair")
        report = simulate_serving(config(model, batch_cap=1), trace,
                                  Schedule.dynamic())
        assert all(step.running == 1 for step in report.steps)
        # strictly sequential: the second request starts after the first ends
        first, second = report.requests
        assert second.first_token > first.completion

    def test_invalid_config_rejected(self, model):
        with pytest.raises(ConfigError):
            ServeConfig(model=model, batch_cap=0)
        with pytest.raises(ConfigError):
            ServeConfig(model=model, num_layers=0)
