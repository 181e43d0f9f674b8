"""What a simulated serving term leaves behind.

Program graphs hold no operator <-> handle cycles (a handle is a
``(producer, port)`` view), so a term's graph, its input tokens and its
collected outputs are freed by reference counting as soon as the term's
cost is known — with the collector switched off.  One cold exact serve then
leaves almost nothing for the collector, and the shared element-cost memo
costs each distinct Accum update once per serve.
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
from repro.core.graph import OperatorBase
from repro.platforms import resolve_platform
from repro.schedules import Schedule
from repro.serve import clear_step_cache, generators, library
from repro.serve.workload import ServeStepWorkload

ROOT = Path(__file__).resolve().parents[2]


@contextmanager
def _collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("term", ["_moe", "_qkv"])
def test_term_graph_is_freed_without_the_collector(term, monkeypatch):
    refs = []
    simulate = serve_workload.simulate

    def watching(program, inputs, **kwargs):
        refs.extend([weakref.ref(program), weakref.ref(program.operators[-1]),
                     weakref.ref(program.operators[0])])
        return simulate(program, inputs, **kwargs)

    monkeypatch.setattr(serve_workload, "simulate", watching)
    step = ServeStepWorkload(model=library._serve_model(32), num_tokens=24,
                             kv_lengths=(40, 70, 100), routing_seed=3)
    with _collector_off():
        cost = getattr(step, term)(Schedule.dynamic(), resolve_platform(None).hardware)
        assert cost.cycles > 0
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None] * 3


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
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            cyclic = gc.collect()
            functions = {type(obj.fn).__name__ for obj in gc.garbage
                         if isinstance(obj, OperatorBase) and hasattr(obj, "fn")}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert report.num_requests == 120 and report.distinct_steps == 93
    # every update is metadata-only, so each distinct key is costed once
    assert all(key[1] is not None for key in costed)
    assert set(costed.values()) == {1}
    tile_updates = sum(1 for _, key in costed if type(key[0][0]) is int)
    assert tile_updates <= 1000  # 71,211 tile and tuple updates before sharing
    # only the dynamic attention graphs stay cyclic: their availability
    # feedback edge is a real cycle (222,698 cyclic objects before)
    assert functions == {"DecodeAttendTile", "SumAccum", "RoundRobinSeed"}
    assert cyclic < 15_000


def test_cold_serve_leaves_little_for_the_collector():
    # a fresh interpreter, so that the collector's state is the serve's own
    paths = [str(ROOT / "src"), str(Path(__file__).parent)]
    script = (f"import gc, sys; sys.path[:0] = {paths!r}; "
              "from test_graph_lifetime import _cold_serve; "
              "gc.collect(); _cold_serve(); print(gc.collect())")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert int(done.stdout.split()[-1]) < 1000  # 22,176 before
