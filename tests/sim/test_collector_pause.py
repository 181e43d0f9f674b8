"""The cyclic collector is paused while a program is built and simulated.

``collector_paused()`` switches the collector off for a block and restores the
caller's state on the way out, exceptions included; ``simulate()``,
``execute_point()`` and ``ServeStepWorkload.run()`` run inside one.  Run state
is acyclic, so reference counting frees nearly all of it; the rest, the
dynamic attention graphs' availability feedback loops, waits for the first
collection after the block.
"""

import gc

import pytest

import repro.api
import repro.serve.workload as serve_workload
import repro.sim.runner as runner
import repro.sweep.tasks as tasks
from repro.api import AttentionWorkload, Schedule
from repro.experiments import figure14
from repro.experiments.common import SMOKE_SCALE
from repro.serve import clear_step_cache, poisson_trace
from repro.serve.library import _serve_model
from repro.sim import collector_paused, simulate
from repro.sweep import SweepRunner, SweepSpec, execute_point
from repro.sweep.spec import SweepPoint
from repro.workloads.qkv import QKVConfig, build_qkv_layer


@pytest.fixture
def collector_on():
    """Start with the collector on; leave it as the test found it."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


class TestCollectorPaused:
    def test_pauses_and_restores_an_enabled_collector(self, collector_on):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self, collector_on):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_blocks_restore_on_the_outer_exit(self, collector_on):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner block was a no-op
        assert gc.isenabled()

    def test_restores_on_an_exception(self, collector_on):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("inside")
        assert gc.isenabled()


class TestPausedScopes:
    def test_simulate(self, collector_on, monkeypatch):
        seen = []
        lower = runner.lower

        def lowering(program, **kwargs):
            seen.append(gc.isenabled())
            return lower(program, **kwargs)

        monkeypatch.setattr(runner, "lower", lowering)
        qkv = build_qkv_layer(QKVConfig(model=_serve_model(32), batch=4, compute_bw=8192))
        assert simulate(qkv.program, qkv.inputs(num_rows=4)).cycles > 0
        assert seen == [False] and gc.isenabled()

    def test_serve(self, collector_on, monkeypatch):
        seen = []
        term = serve_workload.simulate

        def watching(program, inputs, **kwargs):
            seen.append(gc.isenabled())
            return term(program, inputs, **kwargs)

        monkeypatch.setattr(serve_workload, "simulate", watching)
        clear_step_cache()
        report = repro.api.serve(_serve_model(32), poisson_trace(rate=160.0, num_requests=4,
                                                                 seed=0), batch_cap=4)
        assert report.num_requests == 4
        assert seen and not any(seen)  # every term ran paused ...
        assert gc.isenabled()  # ... and the serve hands the collector back

    def test_serial_sweep(self, collector_on):
        workload = AttentionWorkload(model=_serve_model(32), batch=3,
                                     lengths=[40, 70, 100], kv_tile_rows=64)
        spec = SweepSpec(name="attention", task="workload", base={"workload": workload},
                         axes={"schedule": [Schedule.dynamic(),
                                            Schedule.static("tile-4", 4)]})
        results = SweepRunner(jobs=1).run(spec)
        assert all(result["cycles"] > 0 for result in results)
        assert gc.isenabled()

    def test_task_that_raises(self, collector_on, monkeypatch):
        seen = []

        def failing(**kwargs):
            seen.append(gc.isenabled())
            raise RuntimeError("task failed")

        monkeypatch.setitem(tasks.TASKS, "failing-for-test", failing)
        point = SweepPoint(spec_name="t", task="failing-for-test", index=0, params=(),
                           seed=0)
        with pytest.raises(RuntimeError, match="task failed"):
            execute_point(point)
        tasks.task_accepts_seed.cache_clear()
        assert seen == [False] and gc.isenabled()


def test_dynamic_attention_point_leaves_few_cyclic_objects(collector_on):
    # the dynamic schedule's availability feedback edge is a real cycle: a
    # SMOKE figure 14 point leaves its attention graph (328 objects) for the
    # first collection after the point
    point = next(p for p in figure14.scenario(SMOKE_SCALE).sweep_spec().points()
                 if p.kwargs()["schedule"].name == "dynamic")
    gc.collect()
    assert execute_point(point)["cycles"] > 0
    assert gc.isenabled()
    assert gc.collect() <= 328

