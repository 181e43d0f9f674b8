"""One cold repetition of one workload, in a process of its own.

Usage (``run.py`` starts it; ``--t0`` is the wall-clock time at which the
process was started, so set-up time includes interpreter start-up)::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \\
        --t0 SECONDS --scratch DIR

Prints one JSON object on its last stdout line.  A crash exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextlib.contextmanager
def counting_clamps(counter: list):
    """Count ``CostModelExtrapolationWarning`` instead of printing each one."""
    from repro.costmodel import CostModelExtrapolationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("always", CostModelExtrapolationWarning)
        show = warnings.showwarning

        def count(message, category, *args, **kwargs):
            if issubclass(category, CostModelExtrapolationWarning):
                counter[0] += 1
            else:
                show(message, category, *args, **kwargs)

        warnings.showwarning = count
        yield


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    import speed
    import tracing

    tracer = tracing.Tracer()
    clock = speed.PhaseClock(args.t0, on_phase=tracer.enter,
                             on_chunk=tracer.exclude if args.trace else None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.trace:
        tracer.install()
    run = {
        tracing.EXACT: lambda: workloads.serve_exact_cold(args.seed, clock),
        tracing.LADDER: lambda: workloads.fleet_surrogate_ladder(args.seed, clock),
        tracing.FIGURES: lambda: workloads.paper_figures(args.seed, clock,
                                                         args.scratch),
    }[args.workload]
    clamps = [0]
    with counting_clamps(clamps):
        result = run()
    clock.stop()
    # start-up and imports are mostly I/O and C code, which the reference
    # chunk does not track (a chunk slowed 1.7x came with imports slowed
    # about 1.3x), so that part is reported uncorrected
    result["setup_s"] = (clock.seconds("start", corrected=False)
                         + clock.seconds("setup"))
    result["wall_s"] = clock.seconds("timed")
    result["speed"] = clock.speed("timed")
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    result["extra"]["costmodel.clamped"] = clamps[0]
    if args.trace:
        layers = tracer.layer_metrics(clock.speed("timed"), clock.speed("setup"))
        layers.update(result["extra"])
        layers["trace.unattributed_s"] = result["wall_s"] - sum(
            layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        result["layers"] = layers
        problems = tracer.self_check(args.workload)
        result["checks"] += problems
        result["failed"] += len(problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
