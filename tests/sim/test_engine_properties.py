"""Seeded randomized property tests for the simulation engine.

Where ``test_engine_scheduling.py`` pins hand-picked edge cases, these tests
sweep ~50 *randomly generated* configurations (all derived from fixed seeds,
so failures reproduce exactly) and assert the engine's four load-bearing
invariants:

* **determinism** — a simulation is a pure function of (program, inputs,
  hardware): running any random workload/schedule twice must reproduce the
  cycles, traffic, memory and flops bit-for-bit (this is what makes the sweep
  cache and the pooled runner sound),
* **batched-vs-scalar equivalence** — the batched effects (``push_many``,
  ``pop_run``, ``pop_each``) must be observationally identical to the scalar
  effect loops they replace, on arbitrary random pipelines (token counts,
  capacities, latencies, tick costs),
* **conservation** — tokens are neither lost nor duplicated: for every
  channel, ``total_pushed == total_popped + len(queue)`` when the run ends,
  and every program sink must have drained its output channel completely,
* **inline-vs-round-trip equivalence** — effects the executors complete
  inline give the same reports, per-operator stats, outputs and event counts
  as yielding every one of them to the engine.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.stream import DONE, Data, Done
from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.schedules import Schedule, parallelization
from repro.sim.engine import MISS, Engine
from repro.sim.executors.common import DECLINE, OpContext
from repro.sim.executors.shape import flatten_executor
from repro.sim.executors.sources import collector
from repro.sim.lowering import lower
from repro.sim.runner import SimReport
from repro.workloads.attention import AttentionConfig, build_attention_layer
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config, sda_hardware
from repro.workloads.moe import MoELayerConfig, build_moe_layer
from repro.workloads.qkv import QKVConfig, build_qkv_layer

#: seeds for the random workload/schedule configurations (one test case each)
WORKLOAD_SEEDS = list(range(30))
#: seeds for the random engine pipelines (batched-vs-scalar equivalence)
PIPELINE_SEEDS = list(range(20))


# ---------------------------------------------------------------------------
# Random configuration generators
# ---------------------------------------------------------------------------

def _random_model(rng: random.Random):
    num_experts = rng.choice([2, 3, 4, 6])
    return replace(
        scaled_config(QWEN3_30B_A3B, scale=rng.choice([32, 64])),
        name=f"prop-{num_experts}e",
        num_experts=num_experts,
        experts_per_token=rng.randint(1, min(2, num_experts)),
    )


def _random_schedule(rng: random.Random, batch: int) -> Schedule:
    if rng.random() < 0.5:
        tiling = Schedule.dynamic().tiling
    else:
        tiling = Schedule.static("s", max(1, rng.choice([1, 2, 4, batch]))).tiling
    strategy = rng.choice(["coarse", "interleave", "dynamic"])
    num_regions = rng.choice([2, 4])
    return Schedule(
        name=f"prop-{strategy}",
        tiling=tiling,
        parallelization=parallelization(strategy, num_regions=num_regions,
                                        coarse_chunk=max(1, batch // num_regions)),
    )


def _random_workload(seed: int):
    """A random (builder, program, inputs) triple — moe / attention / qkv."""
    rng = random.Random(seed)
    model = _random_model(rng)
    batch = rng.choice([1, 2, 3, 5, 8])
    schedule = _random_schedule(rng, batch)
    kind = rng.choice(["moe", "attention", "qkv"])
    if kind == "moe":
        assignments = representative_iteration(generate_routing_trace(
            model, batch_size=batch, num_iterations=1, seed=seed))
        built = build_moe_layer(MoELayerConfig(
            model=model, batch=batch, tile_rows=schedule.moe_tile_rows))
        inputs = built.inputs(assignments)
    elif kind == "attention":
        lengths = [rng.randint(16, 600) for _ in range(batch)]
        built = build_attention_layer(AttentionConfig(
            model=model, batch=batch, strategy=schedule.attention_strategy,
            num_regions=schedule.parallelization.num_regions,
            coarse_chunk=schedule.parallelization.coarse_chunk,
            kv_tile_rows=rng.choice([32, 64]), compute_bw=256))
        inputs = built.inputs(lengths)
    else:
        built = build_qkv_layer(QKVConfig(model=model, batch=batch,
                                          compute_bw=8192))
        inputs = built.inputs()
    return kind, built, inputs


def _run_lowered(built, inputs):
    lowered = lower(built.program, inputs=inputs, hardware=sda_hardware())
    metrics = lowered.run()
    return lowered, metrics


def _metric_tuple(metrics):
    return (metrics.cycles, metrics.offchip_traffic, metrics.onchip_memory,
            metrics.total_flops, metrics.allocated_compute)


# ---------------------------------------------------------------------------
# Determinism + conservation over random workloads
# ---------------------------------------------------------------------------

class TestRandomWorkloadProperties:
    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_deterministic_and_conserving(self, seed):
        kind, built, inputs = _random_workload(seed)
        lowered, metrics = _run_lowered(built, inputs)

        # conservation: every pushed token was popped or is still queued —
        # nothing lost, nothing duplicated
        for channel in lowered.engine.channels:
            assert channel.total_pushed == channel.total_popped + len(channel.queue), \
                f"seed {seed} ({kind}): channel {channel.name} leaks tokens"

        # the program's sinks drained their streams completely
        for name, ctx in lowered.sink_contexts.items():
            assert ctx.results is not None, f"seed {seed}: sink {name} collected nothing"

        # determinism: an independent rebuild + rerun reproduces everything
        kind2, built2, inputs2 = _random_workload(seed)
        assert kind2 == kind
        lowered2, metrics2 = _run_lowered(built2, inputs2)
        assert _metric_tuple(metrics2) == _metric_tuple(metrics), \
            f"seed {seed} ({kind}): rerun diverged"
        pushed = sorted(ch.total_pushed for ch in lowered.engine.channels)
        pushed2 = sorted(ch.total_pushed for ch in lowered2.engine.channels)
        assert pushed2 == pushed, f"seed {seed} ({kind}): channel traffic diverged"


# ---------------------------------------------------------------------------
# Batched-vs-scalar equivalence over random pipelines
# ---------------------------------------------------------------------------

def _run_pipeline(seed: int, batched: bool):
    """A random producer -> consumer pipeline, scalar or batched effects."""
    rng = random.Random(1000 + seed)
    num_tokens = rng.randint(1, 24)
    capacity = rng.choice([None, 1, 2, 4])
    latency = rng.choice([0.0, 1.0, 2.5])
    tick = rng.choice([0, 1, 3, 7])
    run_len = rng.randint(1, 8)
    time_slack = rng.choice([5.0, 200.0, 10_000.0])

    engine = Engine(timed=True, time_slack=time_slack)
    ch = engine.add_channel("ch", capacity=capacity, latency=latency)
    tokens = [Data(i) for i in range(num_tokens)] + [DONE]
    seen = []

    def producer_scalar():
        for token in tokens:
            yield ("push", ch, token)

    def producer_batched():
        yield ("push_many", [ch], tokens)

    def consumer_scalar():
        while True:
            token = yield ("pop", ch)
            if isinstance(token, Done):
                return
            seen.append(token.value)
            if tick:
                yield ("tick", tick)

    def consumer_batched():
        done = False
        while not done:
            run = yield ("pop_run", ch, run_len)
            for token in run:
                if isinstance(token, Done):
                    done = True
                    break
                seen.append(token.value)
                if tick:
                    yield ("tick", tick)

    engine.add_process("p", producer_batched() if batched else producer_scalar())
    engine.add_process("c", consumer_batched() if batched else consumer_scalar(),
                       is_sink=True)
    metrics = engine.run()
    conserved = ch.total_pushed == ch.total_popped + len(ch.queue)
    return seen, metrics.cycles, conserved


class TestRandomPipelineEquivalence:
    @pytest.mark.parametrize("seed", PIPELINE_SEEDS)
    def test_batched_effects_match_scalar_loops(self, seed):
        scalar_seen, scalar_cycles, scalar_ok = _run_pipeline(seed, batched=False)
        batched_seen, batched_cycles, batched_ok = _run_pipeline(seed, batched=True)
        assert scalar_ok and batched_ok
        assert batched_seen == scalar_seen, f"seed {seed}: token order diverged"
        assert batched_seen == sorted(batched_seen), f"seed {seed}: FIFO violated"
        assert batched_cycles == scalar_cycles, \
            f"seed {seed}: batched timing diverged ({batched_cycles} != {scalar_cycles})"

    @pytest.mark.parametrize("seed", PIPELINE_SEEDS[:10])
    def test_pop_each_matches_sequential_pops(self, seed):
        rng = random.Random(2000 + seed)
        num_tokens = rng.randint(1, 12)
        latencies = [rng.choice([0.0, 1.0, 3.0]) for _ in range(3)]
        stamps = [[rng.uniform(0, 20) for _ in range(num_tokens)] for _ in range(3)]

        def run(batched: bool):
            engine = Engine(timed=True)
            channels = [engine.add_channel(f"c{i}", latency=latencies[i])
                        for i in range(3)]
            for i, ch in enumerate(channels):
                for j in range(num_tokens):
                    ch.push(Data((i, j)), stamps[i][j])
            got = []

            def scalar():
                for _ in range(num_tokens):
                    row = []
                    for ch in channels:
                        token = yield ("pop", ch)
                        row.append(token.value)
                    got.append(tuple(row))

            def fused():
                for _ in range(num_tokens):
                    row = yield ("pop_each", channels)
                    got.append(tuple(t.value for t in row))

            proc = engine.add_process("z", fused() if batched else scalar(),
                                      is_sink=True)
            engine.run()
            return got, proc.local_time

        assert run(True) == run(False), f"seed {seed}: pop_each diverged"


# ---------------------------------------------------------------------------
# Inline-vs-round-trip equivalence
# ---------------------------------------------------------------------------

def _decline_inline_effects(monkeypatch):
    """The oracle: every inline effect declines, so executors yield them all."""
    pop, pop_any, push, tick, tick_push = DECLINE
    monkeypatch.setattr(Engine, "pop_now", lambda engine, channel: pop(channel))
    monkeypatch.setattr(Engine, "pop_any_now", lambda engine, channels: pop_any(channels))
    monkeypatch.setattr(Engine, "push_now",
                        lambda engine, channels, tokens: push(channels, tokens))
    monkeypatch.setattr(Engine, "tick_now", lambda engine, cycles: tick(cycles))
    monkeypatch.setattr(Engine, "tick_push_now",
                        lambda engine, cycles, channels, tokens:
                        tick_push(cycles, channels, tokens))


def _observe(seed: int, capacity, timed: bool, time_slack: float):
    """Everything a run exposes: report, per-op stats, outputs and events."""
    _, built, inputs = _random_workload(seed)
    hardware = replace(sda_hardware(), channel_capacity=capacity)
    lowered = lower(built.program, inputs=inputs, hardware=hardware, timed=timed)
    lowered.engine.time_slack = time_slack
    metrics = lowered.run()
    report = SimReport(cycles=metrics.cycles, metrics=metrics, hardware=hardware)
    per_op = {name: vars(stats).copy() for name, stats in metrics.per_op.items()}
    outputs = {name: lowered.output_tokens(name) for name in lowered.sink_contexts}
    return report.to_dict(), per_op, outputs, metrics.events


#: (capacity, timed, time_slack) cases, each run over a few random workloads
INLINE_CASES = [(capacity, timed, slack)
                for capacity in (None, 4)
                for timed in (True, False)
                for slack in (0.0, 1.0, 200.0)]


class TestInlineEffects:
    """Effects completed inside an executor (``Engine.pop_now`` and friends)
    are observationally identical to yielding them to the engine: the same
    report, per-operator metrics, outputs and event count (an inline effect
    counts as the effect it replaces)."""

    @pytest.mark.parametrize("capacity,timed,time_slack", INLINE_CASES)
    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS[:10])
    def test_inline_matches_round_trips(self, seed, capacity, timed, time_slack,
                                        monkeypatch):
        completed = []
        pop_now = Engine.pop_now

        def counting_pop(engine, channel):
            token = pop_now(engine, channel)
            completed.append(token is not MISS)
            return token

        monkeypatch.setattr(Engine, "pop_now", counting_pop)
        inline = _observe(seed, capacity, timed, time_slack)
        assert any(completed), "no pop completed inline"
        _decline_inline_effects(monkeypatch)
        assert _observe(seed, capacity, timed, time_slack) == inline

    def test_pop_overrunning_the_horizon_parks_the_next_effect(self, monkeypatch):
        """An inline pop that jumps the clock past the horizon mid-run: the
        executor's next effect declines and is parked after the send, where
        the scalar loop would have rescheduled between the two effects."""
        overruns = []
        pop_now = Engine.pop_now

        def watching_pop(engine, channel):
            token = pop_now(engine, channel)
            if token is not MISS and engine.current.local_time > engine.horizon:
                overruns.append(token)
            return token

        monkeypatch.setattr(Engine, "pop_now", watching_pop)
        inline = self._flatten_against_a_ticker()
        assert overruns, "no inline pop overran the horizon"
        _decline_inline_effects(monkeypatch)
        assert self._flatten_against_a_ticker() == inline

    @staticmethod
    def _flatten_against_a_ticker():
        engine = Engine(timed=True, time_slack=0.0)
        source = engine.add_channel("source", latency=0.0)
        out = engine.add_channel("out")
        # tokens visible at cycles 0, 0, 50, 50, 51 and 60: the third pop
        # moves the flatten's clock far past the ticker's
        for value, ready in enumerate((0.0, 0.0, 50.0, 50.0, 51.0)):
            source.push(Data(value), ready)
        source.push(DONE, 60.0)

        def ticker():
            for _ in range(80):
                yield ("tick", 1)

        hardware = sda_hardware()
        flatten_ctx = OpContext("flatten", engine.metrics, hardware, engine=engine)
        collect_ctx = OpContext("collect", engine.metrics, hardware)
        engine.add_process("ticker", ticker())
        engine.add_process("flatten", flatten_executor(
            SimpleNamespace(min_level=0, max_level=1), [source], [[out]], flatten_ctx))
        engine.add_process("collect", collector([out], collect_ctx), is_sink=True)
        metrics = engine.run()
        return (metrics.cycles, metrics.events, collect_ctx.results,
                [(p.name, p.local_time) for p in engine.processes])
