"""ExperimentSpec: payload kinds, the name registry, JSON round-trips, runs."""

import json

import pytest

import repro.api as api
from repro.api import (ExperimentSpec, ResultCache, experiment,
                       experiment_descriptions, experiment_names, run_experiment)
from repro.api.experiment import EXPERIMENTS, register_experiment
from repro.api.scenario import SCENARIOS
from repro.core.errors import ConfigError


class TestSpecRecord:
    def test_exactly_one_payload_required(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="empty")
        with pytest.raises(ConfigError):
            ExperimentSpec(name="both", figure="1",
                           sweep=experiment("serve-latency", scale="smoke").sweep)
        with pytest.raises(ConfigError):
            ExperimentSpec(name="", figure="1")

    def test_kinds(self):
        assert experiment("serve-latency", scale="smoke").kind == "sweep"
        assert experiment("figure15", scale="smoke").kind == "scenario"
        assert experiment("figure8", scale="smoke").kind == "figure"


class TestResolution:
    def test_every_figure_resolves(self):
        """The acceptance criterion: every figure is addressable by name."""
        for number in ("1", "8", "9", "10", "12", "13", "14", "15", "17",
                       "19", "20", "21"):
            spec = experiment(f"figure{number}", scale="smoke")
            assert spec.kind in ("scenario", "figure")
            # the bare CLI id resolves to the same spec
            assert experiment(number, scale="smoke").to_dict() == spec.to_dict()

    def test_registered_scenarios_resolve(self):
        spec = experiment("serve-burst")
        assert spec.kind == "scenario"
        assert spec.scenario.name == "serve-burst"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            experiment("nonexistent-experiment")

    def test_names_and_descriptions_cover_all_sources(self):
        names = experiment_names()
        for expected in ("figure1", "figure15", "serve-latency", "serve-poisson",
                         "dense-ffn"):
            assert expected in names
        assert set(names) == set(EXPERIMENTS) | set(SCENARIOS)
        descriptions = experiment_descriptions()
        assert set(descriptions) >= set(EXPERIMENTS)
        assert descriptions["serve-latency"]

    def test_register_experiment_duplicate_rejected(self):
        @register_experiment("_test-exp", "test entry")
        def factory(**overrides):
            return experiment("dense-ffn")

        try:
            with pytest.raises(ConfigError):
                register_experiment("_test-exp")(factory)
            assert experiment("_test-exp").scenario.name == "dense-ffn"
        finally:
            del EXPERIMENTS["_test-exp"]



#: the benchmark-suite case names the package once resolved, each with the
#: registered name and the smoke-scale overrides that build its scenario
FORMER_BENCH_CASES = {
    "figure15-batch-sweep": ("figure15", {"scale": "smoke"}),
    "figure14-dynamic-parallelization": ("figure14", {"scale": "smoke"}),
    "figure9-dynamic-tiling": ("figure9", {"scale": "smoke"}),
    "figure12-timemux": ("figure12", {"scale": "smoke"}),
    "dense-ffn": ("dense-ffn", {}),
    "serve-poisson": ("serve-poisson", {"rates": (40.0, 640.0), "num_requests": 48,
                                        "output_max": 12}),
    "serve-burst": ("serve-burst", {"num_requests": 48, "output_max": 12}),
    "serve-chunked-prefill": ("serve-policies", {"num_requests": 48, "output_max": 12,
                                                 "policies": ("chunked-prefill",)}),
    "serve-overload": ("serve-overload", {"num_requests": 24, "rates": (640.0,)}),
    "serve-streaming-large": ("serve-streaming", {"num_requests": 2000,
                                                  "arrival_rate": 2000.0,
                                                  "batch_cap": 8, "output_max": 4}),
    "fleet-grid": ("fleet-grid", {"num_requests": 24, "output_max": 12}),
    "fleet-autoscale": ("fleet-autoscale", {"num_requests": 24, "output_max": 12}),
    "fleet-surrogate-sweep": ("fleet-surrogate", {"num_requests": 2000,
                                                  "arrival_rate": 4000.0}),
}


class TestFormerBenchCases:
    """Names resolve from the experiment and scenario registries only."""

    @pytest.mark.parametrize("case", sorted(set(FORMER_BENCH_CASES) - set(SCENARIOS)))
    def test_case_only_name_is_unknown(self, case):
        with pytest.raises(ConfigError, match="unknown experiment"):
            experiment(case)
        assert case not in experiment_names()

    @pytest.mark.parametrize("case", sorted(FORMER_BENCH_CASES))
    def test_scenario_builds_under_its_registered_name(self, case):
        name, overrides = FORMER_BENCH_CASES[case]
        spec = experiment(name, **overrides)
        assert spec.kind == "scenario"
        assert len(spec.scenario) > 0

class TestSerialization:
    @pytest.mark.parametrize("name,kind", [("serve-latency", "sweep"),
                                           ("figure15", "scenario"),
                                           ("figure8", "figure")])
    def test_spec_json_round_trip(self, name, kind):
        spec = experiment(name, scale="smoke")
        payload = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ExperimentSpec.from_dict(payload)
        assert rebuilt.kind == kind
        assert rebuilt.to_dict() == spec.to_dict()

    def test_round_tripped_scenario_spec_runs_identically(self):
        spec = experiment("dense-ffn")
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        original = run_experiment(spec)
        again = run_experiment(rebuilt)
        assert again.rows == original.rows

    def test_round_tripped_sweep_spec_shares_cache_identity(self):
        spec = experiment("serve-latency", scale="smoke",
                          rates=(40.0,), num_requests=4)
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        original_keys = [p.cache_key() for p in spec.sweep.points()]
        rebuilt_keys = [p.cache_key() for p in rebuilt.sweep.points()]
        assert rebuilt_keys == original_keys


class TestExecution:
    def test_sweep_experiment_runs_and_caches(self, tmp_path):
        spec = experiment("serve-latency", scale="smoke",
                          rates=(40.0, 160.0), num_requests=4)
        cold = run_experiment(spec, cache=ResultCache(tmp_path))
        assert len(cold.rows) == len(spec.sweep)
        assert all(row["ttft_p50"] > 0 for row in cold.rows)
        warm = run_experiment(spec, cache=ResultCache(tmp_path))
        assert warm.stats.simulated == 0
        assert warm.rows == cold.rows

    def test_scenario_experiment_carries_scenario_result(self):
        result = run_experiment("prefill-decode-mix", batch=8)
        assert result.spec.kind == "scenario"
        assert result.scenario is not None
        assert {row["schedule"] for row in result.rows} == \
            {"coarse", "interleave", "dynamic"}
        assert all(row["platform"] == "sda" for row in result.rows)

    def test_figure_experiment_dispatches_native_entry_point(self):
        result = run_experiment("figure1", scale="smoke")
        assert result.raw["gpu_max_fraction"] < 0.5
        assert len(result.rows) == 12

    def test_figure_experiment_accepts_scale_objects(self):
        """A figure spec built from an ExperimentScale object runs the same
        before and after a JSON round-trip (the stored params are JSON-plain
        and rebuilt on execution)."""
        from repro.experiments.common import SMOKE_SCALE

        spec = experiment("figure1", scale=SMOKE_SCALE)
        direct = run_experiment(spec)
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert run_experiment(rebuilt).rows == direct.rows

    def test_run_accepts_experiment_spec(self):
        """repro.api.run executes specs uniformly with scenarios."""
        result = api.run(experiment("dense-ffn"))
        assert result.spec.name == "dense-ffn"
        assert len(result.rows) > 0

    def test_overrides_only_for_names(self):
        with pytest.raises(ConfigError):
            run_experiment(experiment("dense-ffn"), seed=3)
