"""A shared symbolic-batch term program simulates exactly like a fresh build.

Serving steps simulate one program per term and term context, built with a
symbolic batch and lowered through a plan kept on the program.  The oracle
here is the path it replaced: a fresh build with the step's concrete batch,
per call.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.expert_routing import generate_routing_trace, representative_iteration
from repro.platforms import resolve_platform
from repro.schedules import Schedule
from repro.serve import workload
from repro.serve.workload import STEP_TERMS, ServeStepWorkload, TermCost
from repro.sim import simulate
from repro.workloads.attention import AttentionConfig, build_attention_layer
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config
from repro.workloads.moe import MoELayerConfig, build_moe_layer
from repro.workloads.qkv import QKVConfig, build_qkv_layer

MODEL = replace(scaled_config(QWEN3_30B_A3B, scale=64), name="shared-4e",
                num_experts=4, experts_per_token=2)
HARDWARE = resolve_platform(None).hardware
SCHEDULES = [
    Schedule.dynamic(),
    # static tiles of 4 rows: steps under 4 tokens clamp to their own program
    Schedule.static("static", tile_rows=4),
    Schedule.static("coarse", tile_rows=4, attention="coarse", coarse_chunk=2),
    Schedule.dynamic("timemux", num_experts=4, timemux_regions=2),
]


def _fresh(term, step, schedule):
    """(program, inputs) of a concrete-batch build: the pre-sharing path."""
    if term == "qkv":
        built = build_qkv_layer(QKVConfig(model=MODEL, batch=step.num_tokens,
                                          compute_bw=step.moe_compute_bw))
        return built.program, built.inputs()
    if term == "attention":
        par = schedule.parallelization
        built = build_attention_layer(AttentionConfig(
            model=MODEL, batch=len(step.kv_lengths), strategy=par.strategy,
            num_regions=par.num_regions, coarse_chunk=par.coarse_chunk,
            kv_tile_rows=step.kv_tile_rows, compute_bw=step.attention_compute_bw))
        return built.program, built.inputs(list(step.kv_lengths))
    tile_rows = schedule.moe_tile_rows
    if tile_rows is not None:
        tile_rows = min(tile_rows, step.num_tokens)
    built = build_moe_layer(MoELayerConfig(
        model=MODEL, batch=step.num_tokens, tile_rows=tile_rows,
        num_regions=schedule.moe_num_regions,
        combine_output=schedule.moe_num_regions is None,
        compute_bw=step.moe_compute_bw))
    assignments = representative_iteration(generate_routing_trace(
        MODEL, batch_size=step.num_tokens, num_iterations=1, seed=step.routing_seed))
    return built.program, built.inputs(assignments)


def _facts(report):
    """Everything a run reports: aggregates, per-op stats, collected outputs."""
    return (report.to_dict(),
            {name: asdict(stats) for name, stats in report.metrics.per_op.items()},
            {name: list(map(repr, tokens)) for name, tokens in report.outputs.items()})


steps = st.integers(1, 300).flatmap(lambda num_tokens: st.tuples(
    st.just(num_tokens),
    st.lists(st.integers(1, 1000), min_size=1, max_size=min(num_tokens, 6)),
    st.integers(0, 2**16)))


@settings(max_examples=12, deadline=None)
@given(schedule=st.sampled_from(SCHEDULES), calls=st.lists(steps, min_size=2, max_size=3))
def test_shared_term_programs_match_fresh_builds(schedule, calls):
    runs = []

    def recording(program, inputs, **kwargs):
        report = simulate(program, inputs, **kwargs)
        runs.append((program, report))
        return report

    programs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workload, "simulate", recording)
        for num_tokens, kv_lengths, routing_seed in calls:
            step = ServeStepWorkload(model=MODEL, num_tokens=num_tokens,
                                     kv_lengths=kv_lengths, routing_seed=routing_seed,
                                     kv_tile_rows=16)
            for term in STEP_TERMS:
                cost = getattr(step, f"_{term}")(schedule, HARDWARE)
                program, shared = runs.pop()
                fresh = simulate(*_fresh(term, step, schedule), hardware=HARDWARE)
                assert cost == TermCost.of(fresh)
                assert _facts(shared) == _facts(fresh)
                # one program per term context, whatever the step's batch
                tile_rows = schedule.moe_tile_rows
                clamped = term == "moe" and tile_rows is not None and num_tokens < tile_rows
                key = (term, num_tokens if clamped else None)
                assert programs.setdefault(key, program) is program
    assert len(programs) >= len(STEP_TERMS)
