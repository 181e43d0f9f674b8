"""The A/B gate (``tools/perf_ab.py``) on synthetic perfbench output.

The output is perfbench's last stdout line and its ``rep seed N:`` stderr
lines, built by hand; the metric declarations are the real
``BENCHMARK.json``.  ``main`` and ``run_perfbench`` run against stand-ins for
the perfbench run and for ``subprocess.run``, so no perfbench process runs.
"""

import importlib.util
import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE_VALUES = {"wall_s": 4.0, "setup_s": 0.5, "peak_rss_mb": 50.0}


@pytest.fixture(scope="module")
def perf_ab():
    spec = importlib.util.spec_from_file_location("perf_ab", ROOT / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGESTS = ["0" * 16, "1" * 16, "2" * 16]


#: a traced run's count metrics (a few of them)
COUNTS = {"serve.scheduler.calls": 221053, "serve.streaming.calls": 221037,
          "serve.scheduler.steps": 141037}


def result_line(correct=True, attempted=100, failed=0, digests=DIGESTS, counts=None,
                **values) -> str:
    """A perfbench stdout tail: the digest line, then the result object.

    ``counts`` adds a traced run's count metrics, next to a per-layer time."""
    metrics = {m["name"]: {"value": values.get(m["name"], BASE_VALUES[m["name"]]),
                           "unit": m["unit"]} for m in END_TO_END}
    if counts is not None:
        metrics.update({name: {"value": value, "unit": "count"}
                        for name, value in counts.items()})
        metrics["serve.scheduler.self_s"] = {"value": values.get("self_s", 1.5),
                                             "unit": "s"}
    digest = json.dumps({"workload": "w", "seed": 1, "digests": digests,
                         "summaries": [{} for _ in digests]})
    result = json.dumps({"correct": correct, "attempted": attempted,
                         "failed": failed, "metrics": metrics})
    return f"{digest}\n{result}\n"


def rep_lines(reps=3, seed=1, **values) -> str:
    """Perfbench's stderr: one ``rep seed N:`` line per repetition.

    A value may be a list, one entry per repetition."""
    lines = ["== noise before the repetition lines"]
    for rep in range(reps):
        got = {name: values.get(name, BASE_VALUES[name]) for name in BASE_VALUES}
        got = {name: v[rep] if isinstance(v, list) else v for name, v in got.items()}
        lines.append(f"rep seed {seed * 1000 + rep}: wall_s {got['wall_s']:.4f} "
                     f"setup_s {got['setup_s']:.4f} peak_rss_mb "
                     f"{got['peak_rss_mb']:.1f} speed 0.800")
    return "\n".join(lines) + "\n"


def run_output(correct=True, attempted=100, failed=0, reps=3, digests=DIGESTS, **values):
    """One synthetic perfbench run: ``(stdout, stderr)``.  Its result object
    holds the median of the repetitions, as perfbench's does."""
    medians = {name: statistics.median(v) for name, v in values.items()
               if isinstance(v, list)}
    return (result_line(correct, attempted, failed, digests, **{**values, **medians}),
            rep_lines(reps, **values))


def decide(perf_ab, base_runs, head_runs):
    """The names of the failed checks (empty: the gate passes)."""
    base = [perf_ab.parse_run(*run) for run in base_runs]
    head = [perf_ab.parse_run(*run) for run in head_runs]
    return [line.split(":")[0] for ok, line in perf_ab.compare(base, head, END_TO_END)
            if not ok]


def test_change_within_bound_passes(perf_ab):
    base = [run_output(), run_output(wall_s=4.2)]
    head = [run_output(wall_s=4.6, setup_s=0.55, peak_rss_mb=53.0),
            run_output(wall_s=4.8, setup_s=0.6, peak_rss_mb=54.0)]
    assert decide(perf_ab, base, head) == []


@pytest.mark.parametrize("name,factor", [("wall_s", 1.3), ("peak_rss_mb", 1.15),
                                         ("setup_s", 1.3)])
def test_regression_beyond_bound_fails(perf_ab, name, factor):
    slow = run_output(**{name: BASE_VALUES[name] * factor})
    assert decide(perf_ab, [run_output()] * 2, [slow] * 2) == [name]


def test_one_slow_head_run_moves_the_median(perf_ab):
    head = [run_output(), run_output(wall_s=BASE_VALUES["wall_s"] * 1.6)]
    assert decide(perf_ab, [run_output()] * 2, head) == ["wall_s"]


def test_improvement_passes(perf_ab):
    fast = run_output(wall_s=2.0, setup_s=0.3, peak_rss_mb=40.0)
    assert decide(perf_ab, [run_output()] * 2, [fast] * 2) == []


def test_incorrect_head_fails(perf_ab):
    head = [run_output(), run_output(correct=False)]
    assert decide(perf_ab, [run_output()] * 2, head) == ["head run 2"]


def test_higher_failed_share_fails(perf_ab):
    head = [run_output(failed=1), run_output()]
    assert decide(perf_ab, [run_output()] * 2, head) == ["failed share"]


def test_failed_share_no_higher_than_base_passes(perf_ab):
    base = [run_output(correct=False, failed=2), run_output()]
    head = [run_output(correct=True, attempted=200, failed=0), run_output()]
    assert decide(perf_ab, base, head) == []


def test_empty_output_is_rejected(perf_ab):
    with pytest.raises(ValueError):
        perf_ab.parse_result("")


def test_result_is_the_last_stdout_line(perf_ab):
    result = perf_ab.parse_result(result_line(failed=3) + "\n")
    assert result["failed"] == 3
    assert set(result["metrics"]) == {m["name"] for m in END_TO_END}


def test_non_json_tail_is_rejected(perf_ab):
    with pytest.raises(ValueError):
        perf_ab.parse_result(result_line() + "Traceback (most recent call last):\n")


def test_failed_share_pools_the_runs(perf_ab):
    runs = [perf_ab.parse_result(result_line(attempted=300, failed=3)),
            perf_ab.parse_result(result_line(attempted=100, failed=1))]
    assert perf_ab.failed_share(runs) == pytest.approx(4 / 400)
    assert perf_ab.failed_share([]) == 0.0


def test_every_end_to_end_metric_is_checked(perf_ab):
    runs = [perf_ab.parse_run(*run_output())] * 2
    checks = perf_ab.compare(runs, runs, END_TO_END)
    names = [line.split(":")[0] for _, line in checks]
    assert names == ["head run 1", "head run 2", "failed share",
                     *(m["name"] for m in END_TO_END)]


@pytest.mark.parametrize("name,value", [("wall_s", 4.8), ("setup_s", 0.625),
                                        ("peak_rss_mb", 55.0)])
def test_regression_at_the_bound_passes(perf_ab, name, value):
    bound = next(m["bound"] for m in END_TO_END if m["name"] == name)
    assert (value - BASE_VALUES[name]) / BASE_VALUES[name] == pytest.approx(bound)
    at_bound = run_output(**{name: value})
    assert decide(perf_ab, [run_output()] * 2, [at_bound] * 2) == []


def test_higher_is_better_metric_fails_when_it_drops(perf_ab):
    declared = [{"name": "wall_s", "unit": "s", "better": "higher", "bound": 0.1}]
    base = [perf_ab.parse_run(*run_output())] * 2
    lower = [perf_ab.parse_run(*run_output(wall_s=3.0))] * 2
    higher = [perf_ab.parse_run(*run_output(wall_s=6.0))] * 2
    assert [ok for ok, _ in perf_ab.compare(base, lower, declared)][-1] is False
    assert all(ok for ok, _ in perf_ab.compare(base, higher, declared))


def test_digests_are_the_second_to_last_stdout_line(perf_ab):
    out, err = run_output(digests=["ab" * 8, "cd" * 8])
    assert perf_ab.parse_digests(out) == ["ab" * 8, "cd" * 8]
    assert perf_ab.parse_run(out, err)["digests"] == ["ab" * 8, "cd" * 8]
    with pytest.raises(ValueError):
        perf_ab.parse_digests(out.strip().splitlines()[-1])


def test_equal_digests_are_reported_equal(perf_ab):
    runs = [perf_ab.parse_run(*run_output()) for _ in range(2)]
    assert perf_ab.digest_line(runs, runs) == "digests: equal"


def test_differing_digests_name_both_sides(perf_ab):
    base = [perf_ab.parse_run(*run_output(digests=["aa", "bb"]))] * 2
    head = [perf_ab.parse_run(*run_output(digests=["aa", "cc"]))] * 2
    assert perf_ab.digest_line(base, head) == "digests: differ (base aa,bb, head aa,cc)"
    # one head run of two that differs is enough
    mixed = [head[0], base[0]]
    assert perf_ab.digest_line(base, mixed) == \
        "digests: differ (base aa,bb, head aa,bb | aa,cc)"


def test_differing_digests_do_not_fail_the_gate(perf_ab):
    base = [perf_ab.parse_run(*run_output())] * 2
    head = [perf_ab.parse_run(*run_output(digests=["ff" * 8] * 3))] * 2
    assert all(ok for ok, _ in perf_ab.compare(base, head, END_TO_END))


class FakePerfbench:
    """Stands in for ``run_perfbench``: records each call, returns a run.

    Untimed traced runs are recorded apart, in ``traced``."""

    def __init__(self, perf_ab, head_run=None, crash_on=None, head_counts=None):
        self.perf_ab, self.calls, self.traced = perf_ab, [], []
        self.head_run, self.crash_on = head_run or run_output(), crash_on
        self.head_counts = head_counts or COUNTS

    def __call__(self, root, workload, traced=False):
        side = "head" if root == self.perf_ab.HEAD else "base"
        if traced:
            self.traced.append((root, workload))
            counts = self.head_counts if side == "head" else COUNTS
            return self.perf_ab.parse_run(result_line(counts=counts), rep_lines(reps=1))
        self.calls.append((root, workload))
        if side == self.crash_on:
            raise RuntimeError(f"perfbench in {root} exited 1")
        return self.perf_ab.parse_run(*(self.head_run if side == "head"
                                        else run_output()))


@pytest.mark.parametrize("argv", [[], ["base"], ["base", "w", "extra"]])
def test_usage_needs_exactly_two_positionals(perf_ab, monkeypatch, argv):
    fake = FakePerfbench(perf_ab)
    monkeypatch.setattr(perf_ab, "run_perfbench", fake)
    assert perf_ab.main(argv) == 2
    assert fake.calls == []


def test_main_runs_base_and_head_in_abba_order(perf_ab, monkeypatch, tmp_path, capsys):
    fake = FakePerfbench(perf_ab)
    monkeypatch.setattr(perf_ab, "run_perfbench", fake)
    assert perf_ab.main([str(tmp_path), "paper-figures"]) == 0
    base = str(tmp_path.resolve())
    assert fake.calls == [(base, "paper-figures"), (perf_ab.HEAD, "paper-figures"),
                          (perf_ab.HEAD, "paper-figures"), (base, "paper-figures")]
    assert fake.traced == [(base, "paper-figures"), (perf_ab.HEAD, "paper-figures")]
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.splitlines()[-2:] == ["calls: equal", "digests: equal"]


def test_main_reports_differing_digests_and_still_passes(perf_ab, monkeypatch, tmp_path,
                                                         capsys):
    other = run_output(digests=["ff" * 8])
    monkeypatch.setattr(perf_ab, "run_perfbench", FakePerfbench(perf_ab, other))
    assert perf_ab.main([str(tmp_path), "paper-figures"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"digests: differ (base {','.join(DIGESTS)}, head {'ff' * 8})"


def test_main_fails_on_a_slow_head(perf_ab, monkeypatch, tmp_path, capsys):
    slow = run_output(wall_s=BASE_VALUES["wall_s"] * 2)
    monkeypatch.setattr(perf_ab, "run_perfbench", FakePerfbench(perf_ab, slow))
    assert perf_ab.main([str(tmp_path), "serve-exact-cold"]) == 1
    assert "FAIL wall_s" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["base", "head"])
def test_main_fails_when_a_run_crashes(perf_ab, monkeypatch, tmp_path, capsys, side):
    fake = FakePerfbench(perf_ab, crash_on=side)
    monkeypatch.setattr(perf_ab, "run_perfbench", fake)
    assert perf_ab.main([str(tmp_path), "serve-exact-cold"]) == 1
    assert "FAIL perfbench in" in capsys.readouterr().out


def test_run_perfbench_command_and_exit_status(perf_ab, monkeypatch, tmp_path, capsys):
    seen = {}

    def fake_run(command, cwd, stdout, stderr, text):
        seen.update(command=command, cwd=cwd)
        return SimpleNamespace(returncode=seen.get("returncode", 0),
                               stdout=result_line(), stderr=rep_lines(wall_s=3.5))

    monkeypatch.setattr(perf_ab.subprocess, "run", fake_run)
    result = perf_ab.run_perfbench(str(tmp_path), "fleet-surrogate-ladder")
    assert result["correct"] is True
    assert [rep["wall_s"] for rep in result["reps"]] == [3.5] * 3
    assert seen["cwd"] == str(tmp_path)
    assert seen["command"][1:] == [str(Path("perfbench") / "run.py"), "--workload",
                                   "fleet-surrogate-ladder", "--seed", "1",
                                   "--seconds", "30"]
    out, err = capsys.readouterr()
    assert '"correct": true' in out
    assert "rep seed 1000: wall_s 3.5000" in err  # stderr passes through
    seen["returncode"] = 1
    with pytest.raises(RuntimeError):
        perf_ab.run_perfbench(str(tmp_path), "fleet-surrogate-ladder")


def test_rep_lines_are_parsed(perf_ab):
    stderr = rep_lines(wall_s=[4.0, 4.5, 3.9], setup_s=[0.3, 0.4, 0.35])
    reps = perf_ab.parse_reps(stderr + "check failed: the memo was warm\n")
    assert [rep["wall_s"] for rep in reps] == [4.0, 4.5, 3.9]
    assert [rep["setup_s"] for rep in reps] == [0.3, 0.4, 0.35]
    assert reps[0] == {"wall_s": 4.0, "setup_s": 0.3, "peak_rss_mb": 50.0, "speed": 0.8}


def test_no_rep_lines_is_rejected(perf_ab):
    with pytest.raises(ValueError):
        perf_ab.parse_reps("== serve-exact-cold: head\nTraceback\n")
    with pytest.raises(ValueError):
        perf_ab.parse_run(result_line(), "")


def test_the_repetitions_decide_not_the_result_medians(perf_ab):
    # the result objects claim a 2x slower head; its repetitions do not
    fast_reps = perf_ab.parse_reps(rep_lines())
    head = [{**perf_ab.parse_result(result_line(wall_s=8.0)), "reps": fast_reps}] * 2
    base = [perf_ab.parse_run(*run_output())] * 2
    assert all(ok for ok, _ in perf_ab.compare(base, head, END_TO_END))


def test_one_slow_process_start_does_not_fail_setup(perf_ab):
    # one head run whose later process starts were slow: the median of the two
    # runs' medians reads +33% (over the 25% bound), the pooled median +1.7%
    base = [run_output(setup_s=[0.30, 0.30, 0.30])] * 2
    head = [run_output(setup_s=[0.30, 0.50, 0.50]), run_output(setup_s=[0.29, 0.30, 0.31])]
    results = [perf_ab.parse_result(out)["metrics"]["setup_s"]["value"] for out, _ in head]
    assert statistics.median(results) / 0.30 - 1 > 0.25
    assert decide(perf_ab, base, head) == []


def test_pooled_median_still_fails_a_slow_side(perf_ab):
    base = [run_output(reps=3), run_output(reps=4)]
    head = [run_output(setup_s=[0.66, 0.7, 0.3]), run_output(setup_s=[0.7, 0.3, 0.64])]
    assert decide(perf_ab, base, head) == ["setup_s"]


def test_equal_counts_are_reported_equal(perf_ab):
    base = perf_ab.parse_result(result_line(counts=COUNTS))
    # a per-layer time is not a count: it may differ
    head = perf_ab.parse_result(result_line(counts=COUNTS, self_s=0.9))
    assert perf_ab.count_metrics(head) == COUNTS
    assert perf_ab.calls_line(base, head) == "calls: equal"


def test_differing_counts_are_each_named(perf_ab):
    base = perf_ab.parse_result(result_line(counts=COUNTS))
    head_counts = {**COUNTS, "serve.scheduler.calls": 221060,
                   "serve.scheduler.steps": 141000}
    head = perf_ab.parse_result(result_line(counts=head_counts))
    assert perf_ab.calls_line(base, head) == (
        "calls: differ (serve.scheduler.calls 221053 -> 221060, "
        "serve.scheduler.steps 141037 -> 141000)")


def test_a_count_on_one_side_only_differs(perf_ab):
    base = perf_ab.parse_result(result_line(counts=COUNTS))
    head = perf_ab.parse_result(result_line(counts={**COUNTS, "new.calls": 3}))
    assert perf_ab.calls_line(base, head) == "calls: differ (new.calls - -> 3)"
    assert perf_ab.calls_line(head, base) == "calls: differ (new.calls 3 -> -)"


def test_main_reports_differing_calls_and_still_passes(perf_ab, monkeypatch, tmp_path,
                                                       capsys):
    fake = FakePerfbench(perf_ab, head_counts={**COUNTS, "serve.streaming.calls": 0})
    monkeypatch.setattr(perf_ab, "run_perfbench", fake)
    assert perf_ab.main([str(tmp_path), "fleet-surrogate-ladder"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "calls: differ (serve.streaming.calls 221037 -> 0)"
    assert not any(line.startswith("FAIL") for line in lines)


def test_run_perfbench_traced_command(perf_ab, monkeypatch, tmp_path):
    seen = {}

    def fake_run(command, cwd, stdout, stderr, text):
        seen.update(command=command)
        return SimpleNamespace(returncode=0, stdout=result_line(counts=COUNTS),
                               stderr=rep_lines(reps=1))

    monkeypatch.setattr(perf_ab.subprocess, "run", fake_run)
    result = perf_ab.run_perfbench(str(tmp_path), "serve-exact-cold", traced=True)
    assert perf_ab.count_metrics(result) == COUNTS
    assert seen["command"][1:] == [str(Path("perfbench") / "run.py"), "--workload",
                                   "serve-exact-cold", "--seed", "1",
                                   "--seconds", "1", "--trace", "1"]
