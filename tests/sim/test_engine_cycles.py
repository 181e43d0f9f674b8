"""An engine leaves no reference cycles behind once ``run()`` returns.

Suspended executors hold their channels and the channels' waiter lists hold
the suspended processes, so without clean-up every simulation would leave its
whole engine for the cyclic garbage collector.  The program graph's own
operator <-> stream-handle cycles are outside this contract.
"""

import gc
import types
from dataclasses import replace

import pytest

from repro.core.errors import DeadlockError
from repro.schedules import Schedule
from repro.serve.workload import ServeStepWorkload
from repro.sim.channel import Channel
from repro.sim.engine import Engine, Process
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

ENGINE_TYPES = (Engine, Process, Channel, types.GeneratorType)


def _engine_garbage(action):
    """Run ``action`` with the collector off; the engine objects it left as
    cyclic garbage."""
    gc.collect()
    gc.disable()
    try:
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage if isinstance(obj, ENGINE_TYPES)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("schedule", [Schedule.dynamic(), Schedule.static("tile-4", 4)],
                         ids=["dynamic", "static"])
def test_serving_steps_leave_no_engine_cycles(schedule):
    model = replace(scaled_config(QWEN3_30B_A3B, scale=32), num_experts=8,
                    experts_per_token=2)
    steps = [ServeStepWorkload(model=model, num_tokens=tokens, kv_lengths=kv_lengths,
                               routing_seed=tokens)
             for tokens, kv_lengths in ((4, (64, 200, 96)), (9, (32, 300, 64, 128)))]

    def run_steps():
        for step in steps:
            assert step.run(schedule)["cycles"] > 0

    assert _engine_garbage(run_steps) == []


def test_deadlocked_run_leaves_no_engine_cycles():
    def deadlock():
        engine = Engine(timed=True)
        ch = engine.add_channel("ch")
        out = engine.add_channel("out", capacity=1)

        def consumer():
            yield ("pop", ch)  # nobody ever pushes

        def producer():
            while True:     # blocks on the full channel nobody drains
                yield ("push", out, None)

        engine.add_process("producer", producer())
        engine.add_process("consumer", consumer(), is_sink=True)
        with pytest.raises(DeadlockError):
            engine.run()

    assert _engine_garbage(deadlock) == []
