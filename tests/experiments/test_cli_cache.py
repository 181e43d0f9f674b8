"""The experiments CLI against an on-disk sweep cache: a warm re-run is
served entirely from the cache and reproduces the cold run's payload."""

import json

from repro.experiments.runner import main


def test_warm_figure_rerun_matches_the_cold_pooled_run(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
    assert main(["--figure", "15", "--smoke", "--jobs", "2",
                 "--cache-dir", cache, "--json", str(cold_path)]) == 0
    assert main(["--figure", "15", "--smoke",
                 "--cache-dir", cache, "--json", str(warm_path)]) == 0
    capsys.readouterr()
    cold = json.loads(cold_path.read_text())["15"]
    warm = json.loads(warm_path.read_text())["15"]
    # per-run accounting legitimately differs (simulated vs cached, jobs)
    for run in (cold, warm):
        run.pop("elapsed_seconds")
    cold_stats, warm_stats = cold.pop("sweep_stats"), warm.pop("sweep_stats")
    assert cold_stats["simulated"] == cold_stats["points"] > 0
    assert warm_stats["simulated"] == 0
    assert warm_stats["cache_hits"] == cold_stats["points"]
    assert cold["rows"] and cold == warm
