"""ServePolicy registries, round-trips, and default-policy bit-identity.

The golden values in TestDefaultPolicyBitIdentity were captured from the
scheduler *before* the policy refactor (PR 7 state) — the default
ServePolicy must reproduce them exactly, on both the unbounded and the
capacity-bounded (preemption/recompute) paths.
"""

import json

import pytest

from repro.core.errors import ConfigError
from repro.platforms import get_platform
from repro.schedules import Schedule
from repro.serve import (DEFAULT_POLICY, ServeConfig, ServePolicy,
                         ServeWorkload, admission_policy_names,
                         batching_policy_names, get_serve_policy,
                         policy_grid, poisson_trace, priority_policy_names,
                         register_admission_policy, register_batching_policy,
                         register_priority_policy, register_serve_policy,
                         resolve_serve_policy, serve_policy_names,
                         simulate_serving, trace_from_lists)
from repro.serve.policy import (AdmissionPolicy, BatchingPolicy,
                                PriorityPolicy)
from repro.serve.registry import (is_builtin, registered_names,
                                  resolve_registered)
from repro.workloads.configs import QWEN3_30B_A3B, cap_experts, scaled_config


def serve_model():
    return cap_experts(scaled_config(QWEN3_30B_A3B, scale=32), 16)


def unbounded_report(policy=None):
    model = serve_model()
    trace = poisson_trace(rate=300.0, num_requests=10, seed=0,
                          prompt_mean=48.0, prompt_max=192,
                          output_mean=6.0, output_max=24)
    config = ServeConfig(model=model, batch_cap=2, num_layers=2,
                         kv_tile_rows=64, seed=0, policy=policy)
    return simulate_serving(config, trace, Schedule.dynamic())


def bounded_report(policy=None):
    model = serve_model()
    trace = poisson_trace(rate=640.0, num_requests=12, seed=0,
                          prompt_mean=48.0, prompt_max=160,
                          output_mean=24.0, output_max=48)
    config = ServeConfig(model=model, batch_cap=4, num_layers=2,
                         kv_tile_rows=64, seed=0, policy=policy)
    return simulate_serving(config, trace, Schedule.dynamic(),
                            hardware=get_platform("sda-hbm-small"))


class TestDefaultPolicyBitIdentity:
    """The default ServePolicy pins the pre-refactor scheduler exactly."""

    # pre-refactor goldens (PR 7 scheduler, captured before the policy layer)
    UNBOUNDED_TOTAL = 64741.71875
    UNBOUNDED_FIRST_TOKENS = (
        2717.578125, 7298.984375, 12758.234375, 20760.515625, 26669.765625,
        32579.015625, 41639.515625, 44914.921875, 51716.078125, 56054.84375)
    UNBOUNDED_COMPLETIONS = (
        10450.234375, 23911.765625, 17485.109375, 29821.015625, 38881.515625,
        41639.515625, 48066.171875, 51716.078125, 61609.71875, 64741.71875)
    UNBOUNDED_STEP_TOKENS = (
        32, 1, 49, 2, 2, 17, 2, 2, 2, 49, 2, 2, 33, 2, 2, 33, 2, 2, 2, 2,
        33, 49, 2, 2, 65, 81, 2, 2, 2, 1, 1)

    BOUNDED_TOTAL = 234678.328125
    BOUNDED_FIRST_TOKENS = (
        2276.0, 7281.25, 7281.25, 7281.25, 37129.484375, 40428.546875,
        72763.53125, 105746.796875, 105746.796875, 145803.546875,
        148821.796875, 194957.078125)
    BOUNDED_COMPLETIONS = (
        69092.15625, 53200.296875, 37129.484375, 34296.0, 107875.421875,
        87560.78125, 100052.21875, 140968.421875, 145803.546875,
        198660.328125, 191046.921875, 234678.328125)

    def test_unbounded_run_matches_golden(self):
        report = unbounded_report()
        assert report.total_cycles == self.UNBOUNDED_TOTAL
        assert len(report.steps) == 31
        assert report.distinct_steps == 10
        assert tuple(r.first_token for r in report.requests) == \
            self.UNBOUNDED_FIRST_TOKENS
        assert tuple(r.completion for r in report.requests) == \
            self.UNBOUNDED_COMPLETIONS
        assert tuple(s.tokens for s in report.steps) == \
            self.UNBOUNDED_STEP_TOKENS
        assert report.steps[0].start == 0.0
        assert report.steps[0].cycles == 2717.578125

    def test_bounded_preemption_run_matches_golden(self):
        report = bounded_report()
        assert report.total_cycles == self.BOUNDED_TOTAL
        assert len(report.steps) == 118
        assert report.distinct_steps == 17
        assert report.memory.preemptions == 2
        assert report.memory.admission_stalls == 74
        assert report.memory.recompute_tokens == 11
        assert tuple(r.first_token for r in report.requests) == \
            self.BOUNDED_FIRST_TOKENS
        assert tuple(r.completion for r in report.requests) == \
            self.BOUNDED_COMPLETIONS

    def test_explicit_default_policy_is_the_pinned_path(self):
        for policy in (ServePolicy(), get_serve_policy("default"),
                       resolve_serve_policy("default")):
            report = unbounded_report(policy)
            assert report.total_cycles == self.UNBOUNDED_TOTAL


class TestRegistries:
    def test_builtin_names(self):
        assert admission_policy_names() == \
            ["fifo", "priority-class", "slo-deadline"]
        assert batching_policy_names() == \
            ["chunked-prefill", "orca-continuous", "prefill-decode"]
        assert priority_policy_names() == \
            ["interactive-first", "short-prompt-first", "trace"]
        assert serve_policy_names() == \
            ["chunked-prefill", "default", "prefill-decode", "priority",
             "slo-preempt"]

    def test_unknown_names_raise_listing_configerror(self):
        with pytest.raises(ConfigError, match="registered:.*fifo"):
            ServePolicy(admission="nope")
        with pytest.raises(ConfigError, match="registered:.*orca-continuous"):
            ServePolicy(batching="nope")
        with pytest.raises(ConfigError, match="registered:.*trace"):
            ServePolicy(priority="nope")
        with pytest.raises(ConfigError, match="registered:.*default"):
            get_serve_policy("nope")
        with pytest.raises(ConfigError, match="attached:"):
            resolve_registered("no-such-kind", "x")

    def test_shared_resolution_covers_eviction_and_routing(self):
        from repro.serve import get_eviction_policy, get_routing_policy
        with pytest.raises(ConfigError, match="registered:.*evict-lru"):
            get_eviction_policy("nope")
        with pytest.raises(ConfigError, match="registered:.*round-robin"):
            get_routing_policy("nope")
        assert "evict-lru" in registered_names("eviction")
        assert "round-robin" in registered_names("routing")
        assert is_builtin("eviction", "evict-lru")
        assert is_builtin("routing", "round-robin")

    def test_knob_validation(self):
        with pytest.raises(ConfigError, match="prefill_chunk"):
            ServePolicy(prefill_chunk=0)
        with pytest.raises(ConfigError, match="class_slos"):
            ServePolicy(class_slos=(0.0,))

    def test_resolve_serve_policy_paths(self):
        assert resolve_serve_policy(None) is DEFAULT_POLICY
        assert resolve_serve_policy("chunked-prefill") == \
            ServePolicy(batching="chunked-prefill")
        spec = ServePolicy(prefill_chunk=16, batching="chunked-prefill")
        assert resolve_serve_policy(spec) is spec
        assert resolve_serve_policy(spec.to_dict()) == spec
        with pytest.raises(ConfigError, match="cannot resolve"):
            resolve_serve_policy(42)

    def test_policy_grid(self):
        grid = policy_grid()
        assert sorted(grid) == serve_policy_names()
        sub = policy_grid("default", "slo-preempt")
        assert list(sub) == ["default", "slo-preempt"]
        assert sub["slo-preempt"].admission == "slo-deadline"
        custom = policy_grid(ServePolicy(batching="prefill-decode",
                                         priority="short-prompt-first"))
        assert list(custom) == ["fifo/prefill-decode/short-prompt-first"]

    def test_labels(self):
        assert ServePolicy().label == "default"
        assert ServePolicy(batching="chunked-prefill").label == "chunked-prefill"
        assert ServePolicy(admission="priority-class").label == \
            "priority-class/orca-continuous/trace"


class TestSerialization:
    def test_serve_policy_round_trip(self):
        for name in serve_policy_names():
            policy = get_serve_policy(name)
            rebuilt = ServePolicy.from_dict(
                json.loads(json.dumps(policy.to_dict())))
            assert rebuilt == policy
        spec = ServePolicy(batching="chunked-prefill", prefill_chunk=16,
                           admission="slo-deadline",
                           class_slos=(10_000.0, 90_000.0))
        assert ServePolicy.from_dict(spec.to_dict()) == spec

    def test_custom_policy_rejects_serialization(self):
        @register_admission_policy("test-custom-admission")
        class CustomAdmission(AdmissionPolicy):
            def select(self, waiting, now):
                return 0 if waiting else None

        try:
            spec = ServePolicy(admission="test-custom-admission")
            with pytest.raises(ConfigError,
                               match="custom-registered admission"):
                spec.to_dict()
            assert not is_builtin("admission", "test-custom-admission")
        finally:
            from repro.serve.policy import ADMISSION_POLICIES
            del ADMISSION_POLICIES["test-custom-admission"]

    def test_from_dict_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="registered:"):
            ServePolicy.from_dict({"admission": "never-registered"})

    def test_serve_config_carries_policy(self):
        config = ServeConfig(model=serve_model(),
                             policy=ServePolicy(batching="chunked-prefill"))
        assert config.policy.batching == "chunked-prefill"
        assert ServeConfig(model=serve_model()).policy is DEFAULT_POLICY
        # names and spec dicts resolve on construction, like resolve_serve_policy
        assert ServeConfig(model=serve_model(), policy="chunked-prefill"
                           ).policy == get_serve_policy("chunked-prefill")
        assert ServeConfig(model=serve_model(),
                           policy={"batching": "chunked-prefill"}
                           ).policy.batching == "chunked-prefill"
        with pytest.raises(ConfigError, match="registered"):
            ServeConfig(model=serve_model(), policy="never-registered")

    def test_duplicate_registrations_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_admission_policy("fifo")(AdmissionPolicy)
        with pytest.raises(ConfigError, match="already registered"):
            register_batching_policy("orca-continuous")(BatchingPolicy)
        with pytest.raises(ConfigError, match="already registered"):
            register_priority_policy("trace")(PriorityPolicy)
        with pytest.raises(ConfigError, match="already registered"):
            register_serve_policy("default", ServePolicy())


class TestPolicyBehavior:
    def test_chunked_prefill_spreads_context(self):
        report = unbounded_report(ServePolicy(batching="chunked-prefill",
                                              prefill_chunk=16))
        # the first prompt (32 tokens) needs two 16-token chunks before its
        # first output token, so step 0 processes exactly the chunk budget
        assert report.steps[0].tokens == 16
        assert report.requests[0].first_token > report.steps[0].cycles
        assert report.policy["batching"] == "chunked-prefill"
        assert report.num_requests == 10

    def test_prefill_decode_disaggregates_steps(self):
        report = unbounded_report(ServePolicy(batching="prefill-decode"))
        assert report.num_requests == 10
        # no step mixes prefill context with decode-only requests: a step
        # either prefills (tokens == sum of contexts) or decodes (1/request)
        for step in report.steps:
            assert step.prefills == 0 or step.prefills * 1 >= 1
            if step.prefills == 0:
                assert step.tokens <= step.running

    def test_priority_policy_reorders_queue(self):
        # two long-output requests arrive first and hog the cap-1 batch;
        # under FIFO the late interactive request waits for the queue head,
        # under priority-class admission it overtakes the queued batch job
        arrivals = [0.0, 1.0, 2.0]
        prompts = [64, 64, 16]
        outputs = [32, 32, 2]
        trace = trace_from_lists(arrivals, prompts, outputs, name="prio")
        config = ServeConfig(model=serve_model(), batch_cap=1, num_layers=2)
        fifo = simulate_serving(config, trace, Schedule.dynamic())
        prio = simulate_serving(
            ServeConfig(model=serve_model(), batch_cap=1, num_layers=2,
                        policy=ServePolicy(admission="priority-class",
                                           priority="interactive-first")),
            trace, Schedule.dynamic())
        fifo_ttft = {r.request_id: r.ttft for r in fifo.requests}
        prio_ttft = {r.request_id: r.ttft for r in prio.requests}
        assert prio_ttft[2] < fifo_ttft[2]
        assert {r.request_id: r.priority for r in prio.requests} == \
            {0: 1, 1: 1, 2: 0}

    def test_slo_deadline_preempts_runner(self):
        # one long batch job occupies the cap-1 batch; an interactive request
        # with a tight deadline arrives later and must preempt it
        trace = trace_from_lists([0.0, 100.0], [64, 16], [48, 2], name="slo")
        policy = ServePolicy(admission="slo-deadline",
                             priority="interactive-first",
                             class_slos=(20_000.0, 10_000_000.0))
        report = simulate_serving(
            ServeConfig(model=serve_model(), batch_cap=1, num_layers=2,
                        policy=policy),
            trace, Schedule.dynamic())
        ttft = {r.request_id: r.ttft for r in report.requests}
        assert ttft[1] <= 20_000.0
        assert report.num_requests == 2

    def test_trace_priorities_flow_through(self):
        trace = trace_from_lists([0.0, 1.0], [16, 16], [2, 2],
                                 priorities=[3, 1], name="classes")
        report = simulate_serving(
            ServeConfig(model=serve_model(), batch_cap=2, num_layers=2),
            trace, Schedule.dynamic())
        assert {r.request_id: r.priority for r in report.requests} == \
            {0: 3, 1: 1}
        breakdown = report.per_priority()
        assert sorted(breakdown) == [1, 3]
        assert breakdown[1]["requests"] == 1
        assert breakdown[1]["ttft"]["p99"] > 0
        assert report.priority_classes() == (1, 3)
        attainment = report.slo_attainment_by_priority(1e12)
        assert attainment == {1: 1.0, 3: 1.0}

    def test_bounded_platform_with_chunked_prefill_terminates(self):
        report = bounded_report(ServePolicy(batching="chunked-prefill",
                                            prefill_chunk=32))
        assert report.num_requests == 12
        assert report.memory is not None

    def test_bounded_platform_with_slo_preempt_terminates(self):
        report = bounded_report(get_serve_policy("slo-preempt"))
        assert report.num_requests == 12
        assert report.memory.preemptions >= 0

    def test_policy_on_report_round_trips(self):
        report = unbounded_report(get_serve_policy("priority"))
        from repro.serve import ServingReport
        rebuilt = ServingReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.policy == report.policy
        assert rebuilt.policy["admission"] == "priority-class"


class TestPoliciesAxis:
    def test_pooled_two_policy_scenario_separates_its_cells(self):
        from repro.api import get_scenario, run

        scenario = get_scenario("serve-policies", num_requests=6,
                                policies=("default", "chunked-prefill"))
        result = run(scenario, jobs=2)
        by_policy = {row.policy: row["cycles"] for row in result.rows}
        assert set(by_policy) == {"default", "chunked-prefill"}
        assert by_policy["default"] != by_policy["chunked-prefill"]
        assert result.stats.simulated == len(result.rows) == 2


class TestServeWorkloadPolicy:
    def test_workload_threads_policy_and_labels(self):
        model = serve_model()
        trace = poisson_trace(rate=300.0, num_requests=6, seed=0,
                              prompt_mean=48.0, prompt_max=192,
                              output_mean=6.0, output_max=24)
        default = ServeWorkload(ServeConfig(model=model, batch_cap=2), trace)
        chunked = ServeWorkload(
            ServeConfig(model=model, batch_cap=2,
                        policy=ServePolicy(batching="chunked-prefill")), trace)
        assert default.label() == f"serve:{trace.name}:cap2"
        assert chunked.label() == f"serve:{trace.name}:cap2:chunked-prefill"
        base = default.run(Schedule.dynamic())
        alt = chunked.run(Schedule.dynamic())
        assert base["cycles"] != alt["cycles"]

    def test_policy_changes_sweep_cache_identity(self):
        from repro.sweep.cache import canonicalize, stable_hash
        model = serve_model()
        trace = poisson_trace(rate=300.0, num_requests=4, seed=0)
        a = ServeWorkload(ServeConfig(model=model), trace)
        b = ServeWorkload(ServeConfig(
            model=model, policy=ServePolicy(batching="chunked-prefill")), trace)
        c = ServeWorkload(ServeConfig(
            model=model, policy=ServePolicy(batching="chunked-prefill",
                                            prefill_chunk=16)), trace)
        keys = {stable_hash(canonicalize(w)) for w in (a, b, c)}
        assert len(keys) == 3


#: the test-only batching policy's plan for the step in flight: a function of
#: the running batch, swapped by each test
_PLAN = {}


@pytest.fixture
def scripted_batching():
    """A registered batching policy that plans whatever ``_PLAN`` says."""
    @register_batching_policy("test-scripted-plan")
    class ScriptedBatching(BatchingPolicy):
        def plan(self, running):
            return _PLAN["plan"](running)

    try:
        yield "test-scripted-plan"
    finally:
        from repro.serve.policy import BATCHING_POLICIES
        del BATCHING_POLICIES["test-scripted-plan"]
        _PLAN.clear()


def _remaining(active):
    return active.kv_length - active.context_done


#: (first step's chunk per prefilling runner, the malformed second plan,
#: today's message for it); the malformed entry is the plan's last, so the
#: runners planned before it have their chunk set when the check fails
MALFORMED_PLANS = {
    "empty-plan": (64, lambda running: [],
                   "planned an empty step for a non-empty batch"),
    "zero-token-chunk": (
        64, lambda running: [(a, _remaining(a)) for a in running[:-1]]
        + [(running[-1], 0)],
        r"planned 0 tokens for request 1 \(valid: 1\.\.63\)"),
    "chunk-past-the-context": (
        64, lambda running: [(a, _remaining(a)) for a in running[:-1]]
        + [(running[-1], 64)],
        r"planned 64 tokens for request 1 \(valid: 1\.\.63\)"),
    "two-tokens-for-a-decode": (
        127, lambda running: [(a, 1) for a in running[:-1]]
        + [(running[-1], 2)],
        r"planned 2 tokens for request 1 \(valid: 1\.\.1\)"),
}


class TestPlanValidation:
    """A malformed plan raises before any KV is secured or runner preempted.

    Two 127-token prompts fill the 4-page pool of ``sda-hbm-small`` at
    admission; after a full prefill the next decode needs a third page per
    runner, so a valid second step preempts.
    """

    def _engine(self, batching, hardware, first_chunk):
        from repro.serve.scheduler import ReplicaEngine

        config = ServeConfig(model=serve_model(), batch_cap=4, num_layers=2,
                             policy=ServePolicy(batching=batching))
        engine = ReplicaEngine(config, Schedule.dynamic(), hardware)
        trace = trace_from_lists([0.0] * 2, [127] * 2, [8] * 2, name="plan")
        for request in trace.requests:
            engine.submit(request)
        _PLAN["plan"] = lambda running: [
            (a, min(first_chunk, _remaining(a))) for a in running]
        engine.step()
        assert engine.queued == 0 and len(engine._running) == 2
        return engine

    @pytest.mark.parametrize("hardware", [None, "sda-hbm-small"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_PLANS))
    def test_malformed_plan_raises_before_kv_is_touched(
            self, scripted_batching, hardware, case):
        first_chunk, malformed, message = MALFORMED_PLANS[case]
        engine = self._engine(scripted_batching, hardware, first_chunk)
        pool = engine._pool
        before = (engine.now, engine._preemptions,
                  None if pool is None else (pool.used_pages, pool.used_rows))
        _PLAN["plan"] = malformed
        with pytest.raises(ConfigError, match=message):
            engine.step()
        assert (engine.now, engine._preemptions,
                None if pool is None else (pool.used_pages, pool.used_rows)
                ) == before
        assert all(a.chunk == 0 for a in engine._running)

    def test_a_valid_second_step_preempts(self, scripted_batching):
        engine = self._engine(scripted_batching, "sda-hbm-small", 127)
        assert engine._pool.used_pages == engine._pool.capacity_pages == 4
        _PLAN["plan"] = lambda running: [(a, 1) for a in running]
        engine.step()
        assert engine._preemptions > 0
