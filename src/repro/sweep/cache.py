"""On-disk result cache for sweep runs.

Every simulated design point is identified by a *stable hash* of its complete
description — the task name, its parameters (model configuration, schedule
knobs, workload inputs), the hardware configuration and the per-point seed.
The hash is computed over a canonical JSON form, so logically identical points
hash identically across processes and Python versions, and any change to a
parameter (or to :data:`CACHE_VERSION`, bumped when simulator semantics
change) produces a fresh key.

Cached payloads are small JSON metric dictionaries (cycles, traffic, memory,
utilization — see :func:`repro.sweep.tasks.report_metrics`), which keeps the
cache cheap to store and safe to load.  Writes are atomic (temp file +
``os.replace``) so concurrent sweep processes sharing a cache directory never
observe torn entries.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

#: bump when simulator timing/metric semantics change so stale entries miss
CACHE_VERSION = 1

#: environment variable overriding the default cache root
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

#: subpackages whose sources determine simulation results; their content hash
#: is folded into every cache key so code changes invalidate stale entries
#: automatically (experiments/analysis only post-process and are excluded)
_FINGERPRINTED_SUBPACKAGES = ("api", "core", "costmodel", "data", "hdl", "ops",
                              "schedules", "serve", "sim", "workloads")


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """A content hash of the simulator and workload sources.

    Editing anything under the fingerprinted subpackages (or the sweep task
    definitions) changes every cache key, so a simulator fix can never be
    masked by stale cached figures — no manual ``CACHE_VERSION`` bump needed
    for routine changes.
    """
    root = Path(__file__).resolve().parent.parent
    files = [Path(__file__).parent / "tasks.py",
             root / "platforms.py", root / "serialize.py"]
    for sub in _FINGERPRINTED_SUBPACKAGES:
        files.extend(sorted((root / sub).rglob("*.py")))
    hasher = hashlib.sha256()
    for path in files:
        try:
            payload = path.read_bytes()
        except OSError:
            continue
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(payload)
    return hasher.hexdigest()


def default_cache_root() -> Path:
    """The default on-disk cache location (override with ``REPRO_SWEEP_CACHE``)."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "sweeps"


#: exact types that canonicalize to themselves (subclasses such as IntEnum or
#: numpy's float64 take the general path below)
_PRIMITIVES = frozenset({int, float, str, bool, type(None)})


def canonicalize(obj: Any) -> Any:
    """Recursively convert ``obj`` into a deterministic JSON-able structure.

    Dataclasses are tagged with their qualified class name so two different
    config types with the same field values do not collide; enums collapse to
    their values; tuples/sets become lists (sets sorted); mapping keys are
    emitted in sorted order by :func:`stable_hash`'s ``sort_keys``.
    """
    kind = type(obj)
    if kind in _PRIMITIVES:
        return obj
    if kind is list or kind is tuple:
        return [canonicalize(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        tag = f"{type(obj).__module__}.{type(obj).__qualname__}"
        # compare=False fields (e.g. Platform.description) are presentation
        # data, not identity: they stay out of the hash exactly as they stay
        # out of dataclass equality
        fields = {f.name: canonicalize(getattr(obj, f.name))
                  for f in dataclasses.fields(obj) if f.compare}
        return {"__dataclass__": tag, **fields}
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__qualname__}", "value": canonicalize(obj.value)}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonicalize(v) for v in obj)
    if hasattr(obj, "tolist") and callable(obj.tolist):
        # numpy scalars collapse to Python numbers, arrays to (nested) lists
        return canonicalize(obj.tolist())
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for cache hashing")


def stable_hash(obj: Any) -> str:
    """A hex digest stable across processes for any canonicalizable object."""
    payload = json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<key>.json`` metric payloads with hit/miss accounting."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, key: str) -> Path:
        # shard by the first two hex chars so huge sweeps don't create one
        # directory with tens of thousands of entries
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` on any negative path.

        A missing, unreadable, truncated, corrupted or wrong-shaped entry is a
        *miss*, never an error: the caller recomputes (and ``put`` overwrites
        the bad entry).  A cache must not be able to fail a sweep.
        """
        path = self.path_for(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            # OSError covers missing/unreadable entries (and a directory or
            # other non-file squatting on the path); ValueError covers
            # truncated/corrupted JSON and undecodable bytes
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            # valid JSON of the wrong shape is still corruption
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` atomically (temp file + ``os.replace``).

        Concurrent writers of the same key are safe: each writes its own temp
        file and the last rename wins with a complete payload — readers never
        observe a torn entry.  Filesystem failures are swallowed (a cache
        store is an optimization, not a result); serialization errors still
        raise, since an unserializable payload is a caller bug.
        """
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
