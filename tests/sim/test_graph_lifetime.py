"""What a simulated serving term leaves behind.

A serving term runs a shared symbolic-batch program, kept until
``clear_step_cache()``.  Everything one run creates — the lowered program and
its engine, channels and contexts, the input tokens and the collected
outputs — is freed by reference counting as soon as the term's cost is
known, with the collector switched off; and because program graphs hold no
operator <-> handle cycles (a handle is a ``(producer, port)`` view), so is
an acyclic shared program once the cache is cleared.  One cold exact serve
then leaves almost nothing for the collector, and the shared element-cost
memo costs each distinct Accum update once per serve.
"""

import gc
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.api
import repro.serve.workload as serve_workload
import repro.sim.executors.compute as compute
import repro.sim.runner as runner
from repro.core.graph import OperatorBase
from repro.core.stream import Token
from repro.platforms import resolve_platform
from repro.schedules import Schedule
from repro.serve import clear_step_cache, generators, library
from repro.serve.workload import ServeStepWorkload
from repro.sim.channel import Channel

ROOT = Path(__file__).resolve().parents[2]


@contextmanager
def _collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Tokens(list):
    """A token list that can be watched through a weak reference."""


def _live(kind) -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, kind))


@pytest.mark.parametrize("term", ["_moe", "_qkv"])
def test_term_run_state_is_freed_without_the_collector(term, monkeypatch):
    runs = []  # weak references to each run's per-run state
    programs = []
    lower = runner.lower

    def lowering(program, **kwargs):
        lowered = lower(program, **kwargs)
        runs.extend([weakref.ref(lowered), weakref.ref(lowered.engine),
                     *map(weakref.ref, lowered.sink_contexts.values())])
        return lowered

    simulate = serve_workload.simulate

    def watching(program, inputs, **kwargs):
        programs.append(weakref.ref(program))
        inputs = {name: _Tokens(tokens) for name, tokens in inputs.items()}
        runs.extend(weakref.ref(tokens) for tokens in inputs.values())
        report = simulate(program, inputs, **kwargs)
        runs.append(weakref.ref(report))
        return report

    monkeypatch.setattr(runner, "lower", lowering)
    monkeypatch.setattr(serve_workload, "simulate", watching)
    hardware = resolve_platform(None).hardware
    clear_step_cache()
    with _collector_off():
        tokens, channels = _live(Token), _live(Channel)
        for num_tokens in (24, 9):
            step = ServeStepWorkload(model=library._serve_model(32),
                                     num_tokens=num_tokens,
                                     kv_lengths=(40, 70, 100), routing_seed=3)
            assert getattr(step, term)(Schedule.dynamic(), hardware).cycles > 0
        # the run's engine, channels, contexts, input token lists, report
        # and collected outputs are gone by reference counting ...
        assert len(runs) > 2 * 4 and [ref() for ref in runs] == [None] * len(runs)
        assert (_live(Token), _live(Channel)) == (tokens, channels)
        # ... while both steps ran one shared program, kept until the cache
        # is cleared
        assert programs[0]() is not None and programs[0]() is programs[1]()
        clear_step_cache()
        assert programs[0]() is None


def _cold_serve():
    trace = generators.generate_trace("heavy-tail", rate=400.0, num_requests=120,
                                      seed=1001)
    clear_step_cache()
    return repro.api.serve(library._serve_model(32), trace, batch_cap=8,
                           num_layers=2, kv_tile_rows=64)


def test_cold_serve_costs_each_update_once_and_frees_its_terms(monkeypatch):
    costed = Counter()
    accum_costs = compute._accum_costs

    def counting(op, ctx, value, state):
        costed[(compute._fixed_key(op, ctx), compute._accum_key(value, state))] += 1
        return accum_costs(op, ctx, value, state)

    monkeypatch.setattr(compute, "_accum_costs", counting)
    with _collector_off():
        report = _cold_serve()
        during, _ = _cyclic_garbage()
        clear_step_cache()
        after, functions = _cyclic_garbage()
    assert report.num_requests == 120 and report.distinct_steps == 93
    # every update is metadata-only, so each distinct key is costed once
    assert all(key[1] is not None for key in costed)
    assert set(costed.values()) == {1}
    tile_updates = sum(1 for _, key in costed if type(key[0][0]) is int)
    assert tile_updates <= 1000  # 71,211 tile and tuple updates before sharing
    # the serve leaves no cyclic garbage (13,776 objects with a dynamic
    # attention graph per distinct KV batch, 222,698 before that) ...
    assert during == 0
    # ... and clearing the cache leaves its one shared dynamic attention
    # program, whose availability feedback edge is a real cycle
    assert functions == {"DecodeAttendTile", "SumAccum", "RoundRobinSeed"}
    assert after < 500


def _cyclic_garbage():
    """(objects the collector frees now, the functions of freed operators)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cyclic = gc.collect()
        functions = {type(obj.fn).__name__ for obj in gc.garbage
                     if isinstance(obj, OperatorBase) and hasattr(obj, "fn")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return cyclic, functions


def test_cold_serve_leaves_little_for_the_collector():
    # a fresh interpreter, so that the collector's state is the serve's own
    paths = [str(ROOT / "src"), str(Path(__file__).parent)]
    script = (f"import gc, sys; sys.path[:0] = {paths!r}; "
              "from test_graph_lifetime import _cold_serve; "
              "gc.collect(); _cold_serve(); print(gc.collect())")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert int(done.stdout.split()[-1]) < 1000  # 22,176 before
