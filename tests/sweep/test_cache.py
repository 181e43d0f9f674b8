"""Canonicalization, stable hashing and the on-disk result cache."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import MoEWorkload
from repro.data.kv_traces import VarianceClass
from repro.platforms import get_platform
from repro.schedules import Schedule
from repro.sweep import ResultCache, canonicalize, code_fingerprint, \
    default_cache_root, stable_hash
from repro.sweep.cache import CACHE_ENV_VAR
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config, sda_hardware


@dataclass(frozen=True)
class PointA:
    x: int = 1


@dataclass(frozen=True)
class PointB:
    x: int = 1


def representative_point():
    """A sweep point touching every canonicalize branch the cache keys use."""
    return {
        "workload": MoEWorkload(model=scaled_config(QWEN3_30B_A3B, scale=32), batch=4,
                                assignments=((0, 3), [1, 2], (3, 0), [2, 2])),
        "platform": get_platform("sda"),
        "schedule": Schedule.static("tile-2", 2),
        "variance": VarianceClass.HIGH,
        "count": np.int64(7),
        "shape": (16, 0.5, None, True),
        "tags": {"b", "a"},
    }


#: canonical JSON of ``representative_point()``, captured from the code before
#: canonicalize gained its exact-type fast paths
PINNED_CANONICAL_JSON = (
    '{"count":7,"platform":{"__dataclass__":"repro.platforms.Platform","hardw'
    'are":{"__dataclass__":"repro.sim.executors.common.HardwareConfig","chann'
    'el_capacity":null,"channel_latency":1.0,"compute_tile":16,"offchip_bandw'
    'idth":1024.0,"offchip_latency":100.0,"onchip_bandwidth":64.0,"timing_mod'
    'el":"roofline"},"hbm_capacity_bytes":null,"name":"sda"},"schedule":{"__d'
    'ataclass__":"repro.schedules.unified.Schedule","name":"tile-2","parallel'
    'ization":{"__dataclass__":"repro.schedules.parallelization.Parallelizati'
    'onSchedule","coarse_chunk":16,"num_regions":4,"strategy":"interleave"},"'
    'tiling":{"__dataclass__":"repro.schedules.tiling.TilingSchedule","kind":'
    '"static","tile_rows":2},"timemux":null},"shape":[16,0.5,null,true],"tags'
    '":["a","b"],"variance":{"__enum__":"VarianceClass","value":"high"},"work'
    'load":{"__dataclass__":"repro.api.workload.MoEWorkload","assignments":[['
    '0,3],[1,2],[3,0],[2,2]],"batch":4,"combine_output":null,"compute_bw":819'
    '2,"model":{"__dataclass__":"repro.workloads.configs.ModelConfig","expert'
    's_per_token":8,"head_dim":16,"hidden_dim":64,"moe_intermediate_dim":16,"'
    'name":"Qwen3-30B-A3B-scaled32x","num_attention_heads":32,"num_experts":1'
    '28,"num_kv_heads":4,"num_layers":48,"routing_skew":1.2},"weight_col_tile'
    's":4}}'
)
PINNED_KEY = "ee18f8568e7db10b88f83ef64a507da4803b43e3e2e2450cce825c6cf6a1359c"


class TestCanonicalPin:
    """Existing cache keys must not move.

    The pins were captured by running this command, with this test file in
    place, against the code before canonicalize's fast paths::

        PYTHONPATH=src:tests/sweep python -c "import json; \\
            from test_cache import representative_point; \\
            from repro.sweep import canonicalize, stable_hash; \\
            p = representative_point(); \\
            print(json.dumps(canonicalize(p), sort_keys=True, separators=(',', ':'))); \\
            print(stable_hash(p))"
    """

    def test_canonical_json_is_pinned(self):
        payload = json.dumps(canonicalize(representative_point()), sort_keys=True,
                             separators=(",", ":"))
        assert payload == PINNED_CANONICAL_JSON

    def test_key_is_pinned(self):
        assert stable_hash(representative_point()) == PINNED_KEY


class TestStableHash:
    def test_dict_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_tuple_and_list_equivalent(self):
        assert stable_hash((1, 2, 3)) == stable_hash([1, 2, 3])

    def test_distinct_dataclass_types_do_not_collide(self):
        assert stable_hash(PointA()) != stable_hash(PointB())

    def test_dataclass_field_change_changes_hash(self):
        assert stable_hash(PointA(x=1)) != stable_hash(PointA(x=2))

    def test_numpy_scalars_and_arrays(self):
        assert stable_hash(np.int64(7)) == stable_hash(7)
        assert stable_hash(np.array([1, 2])) == stable_hash([1, 2])

    def test_config_dataclasses_hash_deterministically(self):
        assert stable_hash(QWEN3_30B_A3B) == stable_hash(QWEN3_30B_A3B)
        assert stable_hash(sda_hardware()) == \
            stable_hash(sda_hardware(onchip_bandwidth=64.0))
        assert stable_hash(sda_hardware()) != \
            stable_hash(sda_hardware(onchip_bandwidth=32.0))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    def test_canonical_enum_tagging(self):
        from repro.data.kv_traces import VarianceClass
        payload = canonicalize(VarianceClass.HIGH)
        assert payload["__enum__"] == "VarianceClass"


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"point": 1})
        assert cache.get(key) is None
        cache.put(key, {"cycles": 12.5})
        assert cache.get(key) == {"cycles": 12.5}
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert len(cache) == 1

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("x")
        cache.put(key, {"cycles": 1.0})
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(stable_hash(i), {"cycles": float(i)})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_entries_are_plain_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash("y")
        cache.put(key, {"cycles": 3.0})
        assert json.loads(cache.path_for(key).read_text()) == {"cycles": 3.0}

    def test_code_fingerprint_is_stable_and_hexadecimal(self):
        first = code_fingerprint()
        assert first == code_fingerprint()
        int(first, 16)
        assert len(first) == 64

    def test_default_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
        assert default_cache_root() == tmp_path / "env-cache"
        assert ResultCache().root == tmp_path / "env-cache"
