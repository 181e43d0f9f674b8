"""Platforms: registry, presets, the one resolution path, grids, JSON."""

import json

import pytest

from repro.core.errors import ConfigError
from repro.platforms import (PLATFORMS, Platform, default_platform, get_platform,
                             platform_grid, platform_names, register_platform,
                             resolve_platform, resolve_platforms)
from repro.sim.executors.common import HardwareConfig
from repro.workloads.configs import sda_hardware


class TestPresets:
    def test_shipped_presets_registered(self):
        for name in ("sda", "sda-hbm256", "sda-detailed"):
            assert name in platform_names()
            assert get_platform(name).description

    def test_default_platform_is_the_old_default_hardware(self):
        """The acceptance anchor: default platform == sda_hardware() exactly,
        so every pre-platform result is reproduced bit for bit."""
        assert default_platform().name == "sda"
        assert default_platform().hardware == sda_hardware()

    def test_hbm256_is_figure8_hardware(self):
        assert get_platform("sda-hbm256").hardware == \
            sda_hardware(onchip_bandwidth=256.0)

    def test_detailed_timing_model(self):
        platform = get_platform("sda-detailed")
        assert platform.hardware.timing_model == "detailed"
        assert platform.hardware.onchip_bandwidth == sda_hardware().onchip_bandwidth


class TestRegistry:
    def test_register_and_lookup(self):
        platform = Platform(name="_test-reg", hardware=HardwareConfig(
            onchip_bandwidth=32.0), description="test")
        register_platform(platform)
        try:
            assert get_platform("_test-reg") is platform
            assert "_test-reg" in platform_names()
        finally:
            del PLATFORMS["_test-reg"]

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            register_platform(Platform(name="sda"))

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_platform("nonexistent-platform")

    def test_invalid_platform_rejected(self):
        with pytest.raises(ConfigError):
            Platform(name="")
        with pytest.raises(ConfigError):
            Platform(name="bad", hardware="not-hardware")
        with pytest.raises(ConfigError):
            register_platform("not-a-platform")


class TestResolution:
    def test_none_is_default(self):
        assert resolve_platform(None) is default_platform()

    def test_name_goes_through_registry(self):
        assert resolve_platform("sda-hbm256") is get_platform("sda-hbm256")

    def test_platform_passes_through(self):
        platform = Platform(name="adhoc", hardware=HardwareConfig(onchip_bandwidth=8.0))
        assert resolve_platform(platform) is platform

    def test_known_hardware_resolves_to_its_preset(self):
        """Raw sda_hardware() values (the legacy call-site default) map back to
        the named presets, so legacy hardware= spellings share cache identity
        with the platform-native path."""
        assert resolve_platform(sda_hardware()) is get_platform("sda")
        assert resolve_platform(sda_hardware(onchip_bandwidth=256.0)) is \
            get_platform("sda-hbm256")

    def test_adhoc_hardware_wraps_deterministically(self):
        hw = HardwareConfig(onchip_bandwidth=12.5)
        first, second = resolve_platform(hw), resolve_platform(hw)
        assert first.name == second.name
        assert first.name.startswith("custom-")
        assert first.hardware == hw

    def test_unresolvable_rejected(self):
        with pytest.raises(ConfigError):
            resolve_platform(123)

    def test_resolve_platforms_shapes(self):
        single = resolve_platforms(None)
        assert list(single) == ["sda"]
        mapping = resolve_platforms({"base": None, "fast": "sda-hbm256"})
        assert list(mapping) == ["base", "fast"]
        assert mapping["fast"] is get_platform("sda-hbm256")
        sequence = resolve_platforms(["sda", "sda-detailed"])
        assert list(sequence) == ["sda", "sda-detailed"]
        with pytest.raises(ConfigError):
            resolve_platforms(["sda", "sda"])
        with pytest.raises(ConfigError):
            resolve_platforms({})


class TestCacheIdentity:
    def test_description_is_not_identity(self):
        """A platform's cache identity is exactly name + hardware: equal-name,
        equal-hardware platforms hash identically whatever their description
        says, so documentation edits can never invalidate warm caches."""
        from repro.sweep import stable_hash

        a = Platform(name="twin", hardware=HardwareConfig(), description="one")
        b = Platform(name="twin", hardware=HardwareConfig(), description="two")
        assert a == b
        assert stable_hash(a) == stable_hash(b)
        # the grid-derived detailed variant shares identity with the preset
        derived = platform_grid(timing_models=("detailed",))["sda-detailed"]
        assert stable_hash(derived) == stable_hash(get_platform("sda-detailed"))

    def test_name_and_hardware_are_identity(self):
        from repro.sweep import stable_hash

        base = Platform(name="twin", hardware=HardwareConfig())
        assert stable_hash(Platform(name="other", hardware=HardwareConfig())) != \
            stable_hash(base)
        assert stable_hash(Platform(name="twin", hardware=HardwareConfig(
            onchip_bandwidth=8.0))) != stable_hash(base)


class TestSerialization:
    def test_json_round_trip(self):
        platform = get_platform("sda-detailed")
        payload = json.loads(json.dumps(platform.to_dict()))
        rebuilt = Platform.from_dict(payload)
        assert rebuilt == platform
        assert rebuilt.hardware == platform.hardware

    def test_round_trip_of_custom_platform(self):
        platform = Platform(name="exotic", description="wide tiles",
                            hardware=HardwareConfig(compute_tile=32,
                                                    offchip_bandwidth=2048.0,
                                                    channel_capacity=4))
        assert Platform.from_dict(platform.to_dict()) == platform


class TestGrid:
    def test_grid_includes_base_and_variants(self):
        grid = platform_grid(onchip_bandwidths=(64.0, 128.0, 256.0))
        assert list(grid)[0] == "sda"
        assert grid["sda-onchip128"].hardware.onchip_bandwidth == 128.0
        assert grid["sda-onchip256"].hardware.onchip_bandwidth == 256.0
        # the base value does not produce a duplicate variant
        assert "sda-onchip64" not in grid

    def test_grid_multi_knob(self):
        grid = platform_grid(compute_tiles=(16, 32), timing_models=("detailed",),
                             offchip_bandwidths=(2048.0,))
        assert set(grid) == {"sda", "sda-tile32", "sda-detailed", "sda-offchip2048"}
        assert grid["sda-detailed"].hardware.timing_model == "detailed"
        assert grid["sda-tile32"].hardware.compute_tile == 32

    def test_grid_from_named_base(self):
        grid = platform_grid("sda-hbm256", onchip_bandwidths=(64.0,), prefix="v")
        assert set(grid) == {"sda-hbm256", "v-onchip64"}
        assert grid["v-onchip64"].hardware.onchip_bandwidth == 64.0
        # derived platforms keep the base's other knobs
        assert grid["v-onchip64"].hardware.offchip_bandwidth == \
            get_platform("sda-hbm256").hardware.offchip_bandwidth


class TestPooledPlatformSweep:
    def test_two_platform_scenario_through_the_pool(self):
        """A registered scenario re-gridded over two platforms runs through
        the pooled runner, simulating every cell once per platform."""
        from repro.api import Scenario, get_scenario, run

        base = get_scenario("dense-ffn")
        sweep = Scenario(name="pooled-platform-sweep", workloads=base.workloads,
                         schedules=base.schedules,
                         platforms=platform_grid(onchip_bandwidths=(64.0, 256.0)))
        result = run(sweep, jobs=2)
        assert {row.platform for row in result.rows} == {"sda", "sda-onchip256"}
        assert result.stats.simulated == len(result.rows) > 0
        assert [row.metrics for row in result.rows] == \
            [row.metrics for row in run(sweep).rows]
