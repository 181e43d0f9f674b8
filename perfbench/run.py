"""Layered cold-run benchmark of the repro simulator.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``serve-exact-cold``, ``fleet-surrogate-ladder`` and
``paper-figures`` (see ``workloads.py`` and ``DESIGN.md``).  Each repetition
runs cold in a fresh child process (``child.py``), on its own input derived
from ``--seed``.  The repetition count follows from ``--seconds`` and is the
same for the same arguments, so the printed digests repeat for a seed.

With ``--trace 0`` the metrics are the medians over repetitions of
``wall_s`` (timed phase), ``setup_s`` (process start to timed phase) and
``peak_rss_mb``.  With ``--trace 1`` the repetitions run in pairs on the same
input, untraced then traced, and the metrics are the per-layer counts and self
times of the traced runs (medians) plus ``trace.overhead_ratio``.  Times are
host seconds rescaled to a reference machine speed measured inside each
repetition (``speed.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the digest of the
simulated results.  A repetition that crashes makes the benchmark exit 1
without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space inside the checkout (sweep caches of paper-figures)
SCRATCH = os.path.join(ROOT, ".perfbench")

#: typical real seconds of one repetition, process start-up included, on a
#: 2-core x86 VM at 2.1 GHz that runs at 0.8 of the reference speed
REP_SECONDS = {
    "serve-exact-cold": 9.5,
    "fleet-surrogate-ladder": 10.5,
    "paper-figures": 7.5,
}
MIN_REPS = 2
#: the whole run gives up (exit 1) after this many seconds
DEADLINE_S = 170.0


def run_child(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One cold repetition; raises ``RuntimeError`` when it crashes and
    ``subprocess.TimeoutExpired`` when it is still running at ``deadline``."""
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    env = dict(os.environ)
    # anything that falls back to the default sweep cache stays fresh and local
    env["REPRO_SWEEP_CACHE"] = scratch
    # imports read cached bytecode, as an installed package's would; only the
    # first repetition in a checkout compiles (the median hides it)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--scratch", scratch,
               "--t0", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-4000:]}")
    return {"seed": seed, **json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 1

    reps = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
    seeds = [args.seed * 1000 + rep for rep in range(reps)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            pairs = [(run_child(args.workload, seed, False, deadline),
                      run_child(args.workload, seed, True, deadline))
                     for seed in seeds[:max(1, reps // 2)]]
            runs = [run for pair in pairs for run in pair]
            traced = [t["layers"] for _, t in pairs]
            metrics = {name: statistics.median(t[name] for t in traced)
                       for name in traced[0]}
            metrics["trace.overhead_ratio"] = statistics.median(
                t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs)
        else:
            runs = [run_child(args.workload, seed, False, deadline)
                    for seed in seeds]
            metrics = {name: statistics.median(run[name] for run in runs)
                       for name in ("wall_s", "setup_s", "peak_rss_mb")}
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)  # only when no repetition left files behind

    # names and units come from BENCHMARK.json; a missing metric is a crash
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    failed = sum(run["failed"] for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    for run in runs:
        print(f"rep seed {run['seed']}: wall_s {run['wall_s']:.4f} setup_s "
              f"{run['setup_s']:.4f} peak_rss_mb {run['peak_rss_mb']:.1f} "
              f"speed {run['speed']:.3f}", file=sys.stderr)
        for check in run["checks"]:
            print(f"check failed: {check}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "digests": [run["digest"] for run in runs],
                      "summaries": [run["summary"] for run in runs]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
