"""Same-runner A/B gate: perfbench on a base checkout against this one.

Usage::

    python3 tools/perf_ab.py BASE_CHECKOUT WORKLOAD

Runs ``perfbench/run.py --workload WORKLOAD --seed 1 --seconds 30`` twice in
``BASE_CHECKOUT`` (the base) and twice in the checkout holding this file (the
head), in ABBA order: base, head, head, base.  A drift in machine speed over
the four runs then weighs on both sides alike.  Each side runs its own
``perfbench/run.py`` from its own root; the end-to-end metrics, their
``better`` direction and their ``bound`` come from this checkout's
``BENCHMARK.json``.

A side's value of a metric is the median of its per-repetition values, the
``rep seed N: wall_s ... setup_s ... peak_rss_mb ...`` lines perfbench prints
to stderr, pooled over both of the side's runs.  At ``--seconds 30`` a run
has three or four repetitions, so this median sees six to eight values where
the median of the two runs' results saw two, and one slow process start
moves it less.

The gate fails (exit 1) when the head

- prints ``"correct": false`` in any run,
- fails a larger share of its attempted operations than the base, or
- has a pooled median of an end-to-end metric worse than the base's by more
  than the metric's bound, a fraction of the base median.

A perfbench run that crashes fails the gate too.

Then each side runs one traced perfbench, ``--seed 1 --seconds 1 --trace
1``, and after the checks the gate prints ``calls: equal`` when both traced
runs report the same count metrics (every per-layer ``*.calls`` and the
other metrics whose unit is ``count``), and ``calls: differ (...)`` with
each count that differs otherwise.  Last it prints ``digests: equal`` when
every run of both sides printed the same digests of the simulated results
(perfbench's second-to-last stdout line), and ``digests: differ (base ...,
head ...)`` otherwise.  Both lines are informational: a change may alter
the work done or the results on purpose, and the goldens and tests judge
whether it should.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
SECONDS = 30
#: the length of each side's traced run, the one the calls line compares
TRACED_SECONDS = 1


#: perfbench's stderr line for one repetition: ``name value`` pairs
REP_LINE = re.compile(r"rep seed \d+: (.*)")


def parse_result(stdout: str) -> Dict:
    """The result object perfbench prints as its last stdout line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def parse_reps(stderr: str) -> List[Dict[str, float]]:
    """The per-repetition values of perfbench's ``rep seed N:`` stderr lines."""
    reps = []
    for line in stderr.splitlines():
        match = REP_LINE.fullmatch(line.strip())
        if match:
            words = match.group(1).split()
            reps.append({name: float(value)
                         for name, value in zip(words[::2], words[1::2])})
    if not reps:
        raise ValueError("perfbench printed no repetition lines")
    return reps


def parse_digests(stdout: str) -> List[str]:
    """The result digests perfbench prints on its second-to-last stdout line."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("perfbench printed no digest line")
    return json.loads(lines[-2])["digests"]


def parse_run(stdout: str, stderr: str) -> Dict:
    """One run: its result object, with its repetitions under ``"reps"`` and
    its digests under ``"digests"``."""
    return {**parse_result(stdout), "reps": parse_reps(stderr),
            "digests": parse_digests(stdout)}


def failed_share(results: Sequence[Dict]) -> float:
    """Failed over attempted operations, summed over ``results``."""
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def compare(base: Sequence[Dict], head: Sequence[Dict],
            end_to_end: Sequence[Dict]) -> List[Tuple[bool, str]]:
    """The gate's checks of ``head`` against ``base`` as ``(ok, line)`` pairs.

    ``base`` and ``head`` are parsed runs (:func:`parse_run`),
    ``end_to_end`` the metric declarations of ``BENCHMARK.json``.  The gate
    passes when every check is ok.
    """
    checks = [(r["correct"], f"head run {i + 1}: correct {r['correct']}")
              for i, r in enumerate(head)]
    base_share, head_share = failed_share(base), failed_share(head)
    checks.append((head_share <= base_share,
                   f"failed share: base {base_share:.4f} head {head_share:.4f}"))
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        before = statistics.median(rep[name] for r in base for rep in r["reps"])
        after = statistics.median(rep[name] for r in head for rep in r["reps"])
        worse = (after - before) if metric["better"] == "lower" else (before - after)
        change = worse / before if before else 0.0
        checks.append((change <= bound,
                       f"{name}: base {before:.4g} head {after:.4g} "
                       f"{metric['unit']} (worse by {change:+.1%}, bound {bound:.0%})"))
    return checks


def digest_line(base: Sequence[Dict], head: Sequence[Dict]) -> str:
    """Whether every run of both sides simulated the same results."""
    sides = [{tuple(r["digests"]) for r in runs} for runs in (base, head)]
    if len(sides[0] | sides[1]) == 1:
        return "digests: equal"
    shown = [" | ".join(",".join(digests) for digests in sorted(side)) for side in sides]
    return f"digests: differ (base {shown[0]}, head {shown[1]})"


def count_metrics(result: Dict) -> Dict[str, float]:
    """The metrics of a result object whose unit is ``count``."""
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] == "count"}


def calls_line(base: Dict, head: Dict) -> str:
    """Whether a traced run of each side counted the same calls."""
    before, after = count_metrics(base), count_metrics(head)
    differ = [f"{name} {before.get(name, '-')} -> {after.get(name, '-')}"
              for name in sorted(before.keys() | after.keys())
              if before.get(name) != after.get(name)]
    return f"calls: differ ({', '.join(differ)})" if differ else "calls: equal"


def run_perfbench(root: str, workload: str, traced: bool = False) -> Dict:
    """One perfbench run in checkout ``root``; its output passes through.

    ``traced`` makes it the short ``--trace 1`` run the calls line reads."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(TRACED_SECONDS if traced else SECONDS)]
    if traced:
        command += ["--trace", "1"]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    print(done.stdout, end="", flush=True)
    print(done.stderr, end="", file=sys.stderr, flush=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench in {root} exited {done.returncode}")
    return parse_run(done.stdout, done.stderr)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/perf_ab.py BASE_CHECKOUT WORKLOAD",
              file=sys.stderr)
        return 2
    base_root, workload = os.path.abspath(argv[0]), argv[1]
    with open(os.path.join(HEAD, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    results: Dict[str, List[Dict]] = {"base": [], "head": []}
    traced: Dict[str, Dict] = {}
    try:
        for side in ("base", "head", "head", "base"):
            print(f"== {workload}: {side}", file=sys.stderr, flush=True)
            root = base_root if side == "base" else HEAD
            results[side].append(run_perfbench(root, workload))
        for side, root in (("base", base_root), ("head", HEAD)):
            print(f"== {workload}: {side}, traced", file=sys.stderr, flush=True)
            traced[side] = run_perfbench(root, workload, traced=True)
    except (RuntimeError, ValueError) as error:
        print(f"FAIL {error}")
        return 1
    checks = compare(results["base"], results["head"], end_to_end)
    for ok, line in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {line}")
    print(calls_line(traced["base"], traced["head"]))
    print(digest_line(results["base"], results["head"]))
    return 0 if all(ok for ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
