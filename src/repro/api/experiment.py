"""Experiments as declarative records — :class:`ExperimentSpec` and the registry.

A scenario is a grid; an *experiment* is anything the repository can run and
report: a scenario grid (most figures), a parametric sweep over a registered
task (the serving latency-vs-load study sweeps trace *generator* parameters,
not pre-built workloads), or a native figure entry point with bespoke
post-processing (the Figure 8 two-simulator validation).  ``ExperimentSpec``
captures all three shapes in one JSON-round-trippable record, and
:func:`experiment` resolves a name — registered experiments, registered
scenarios and figure ids all share the namespace — into a spec you can
inspect, serialize, modify and :func:`run_experiment`.

The payload kinds:

* ``scenario`` — a :class:`~repro.api.scenario.Scenario` (workloads ×
  schedules × platforms); runs through :func:`repro.api.run`.
* ``sweep`` — a :class:`~repro.sweep.spec.SweepSpec` over any registered
  task; runs on the shared :class:`~repro.sweep.runner.SweepRunner`, so
  serving load grids cache and pool-parallelize exactly like scenario cells.
* ``figure`` — a reference to a native entry point in
  :mod:`repro.experiments` (figure id + keyword parameters).  Still JSON
  data: the spec records *which* experiment with *which* parameters, and
  running it dispatches to the figure module.

Exactly one payload is set per spec.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..core.errors import ConfigError
from ..serialize import from_jsonable, to_jsonable
from ..sweep import ResultCache, SweepRunner, SweepSpec, SweepStats, build_runner
from .scenario import (SCENARIOS, Scenario, ScenarioResult, get_scenario,
                       run as run_scenario, scenario_descriptions)


@dataclass
class ExperimentSpec:
    """One runnable experiment as a declarative, serializable record."""

    name: str
    description: str = ""
    scenario: Optional[Scenario] = None
    sweep: Optional[SweepSpec] = None
    figure: Optional[str] = None
    #: keyword parameters of the native ``figure`` entry point (JSON-plain)
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("an experiment spec needs a non-empty name")
        payloads = [p for p in (self.scenario, self.sweep, self.figure)
                    if p is not None]
        if len(payloads) != 1:
            raise ConfigError(f"{self.name}: exactly one of scenario/sweep/figure "
                              f"must be set, got {len(payloads)}")

    @property
    def kind(self) -> str:
        """The payload kind: ``"scenario"``, ``"sweep"`` or ``"figure"``."""
        if self.scenario is not None:
            return "scenario"
        return "sweep" if self.sweep is not None else "figure"

    def __len__(self) -> int:
        """Design points of the grid payloads (0 for native figures)."""
        if self.scenario is not None:
            return len(self.scenario)
        return len(self.sweep) if self.sweep is not None else 0

    def run(self, *, jobs: Optional[int] = None,
            cache: Union[ResultCache, str, None] = None,
            runner: Optional[SweepRunner] = None) -> "ExperimentResult":
        """Execute this spec (see :func:`run_experiment`)."""
        return run_experiment(self, jobs=jobs, cache=cache, runner=runner)

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON description, symmetric with :meth:`from_dict`."""
        payload: Dict[str, Any] = {"name": self.name, "kind": self.kind,
                                   "description": self.description}
        if self.scenario is not None:
            payload["scenario"] = self.scenario.to_dict()
        if self.sweep is not None:
            payload["sweep"] = to_jsonable(self.sweep)
        if self.figure is not None:
            payload["figure"] = self.figure
            payload["params"] = to_jsonable(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            scenario=(Scenario.from_dict(payload["scenario"])
                      if payload.get("scenario") is not None else None),
            sweep=(from_jsonable(payload["sweep"])
                   if payload.get("sweep") is not None else None),
            figure=payload.get("figure"),
            params=dict(from_jsonable(payload.get("params") or {})),
        )


@dataclass
class ExperimentResult:
    """The outcome of one executed :class:`ExperimentSpec`.

    ``rows`` is always present (flat label + metric dictionaries, grid order);
    ``scenario`` carries the full :class:`~repro.api.scenario.ScenarioResult`
    for scenario payloads and ``raw`` the native result dictionary for figure
    payloads.
    """

    spec: ExperimentSpec
    rows: List[Dict[str, Any]]
    stats: SweepStats = field(default_factory=SweepStats)
    scenario: Optional[ScenarioResult] = None
    raw: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ExperimentEntry:
    factory: Callable[..., ExperimentSpec]
    description: str


#: experiment name -> entry; shares its namespace with scenarios and figure
#: ids (resolution order of :func:`experiment`)
EXPERIMENTS: Dict[str, _ExperimentEntry] = {}


def register_experiment(name: str, description: str = ""):
    """Decorator registering an :class:`ExperimentSpec` factory under ``name``."""

    def wrap(factory: Callable[..., ExperimentSpec]):
        if name in EXPERIMENTS:
            raise ConfigError(f"experiment {name!r} is already registered")
        doc = (factory.__doc__ or "").strip()
        EXPERIMENTS[name] = _ExperimentEntry(
            factory=factory,
            description=description or (doc.splitlines()[0] if doc else ""))
        return factory

    return wrap


def _load_experiment_library() -> None:
    """Import the modules that register the built-in experiments.

    Lazy: :mod:`repro.experiments` is a heavyweight import the bare API facade
    does not need, and the experiment modules themselves import
    :mod:`repro.api` — eager imports here would cycle.
    """
    importlib.import_module("repro.experiments.library")


def experiment(name: str, **overrides) -> ExperimentSpec:
    """Resolve ``name`` into an :class:`ExperimentSpec` (with factory overrides).

    Resolution order: registered experiments (every figure plus
    ``"serve-latency"``), then registered scenarios (wrapped as
    scenario-payload specs).  Figure experiments accept both spellings:
    ``"figure15"`` and the bare CLI id ``"15"``.
    """
    _load_experiment_library()
    alias = f"figure{name}" if name.isdigit() else name
    if alias in EXPERIMENTS:
        return EXPERIMENTS[alias].factory(**overrides)
    if alias in SCENARIOS:
        return ExperimentSpec(name=alias,
                              description=scenario_descriptions().get(alias, ""),
                              scenario=get_scenario(alias, **overrides))
    raise ConfigError(f"unknown experiment {name!r}; known: {experiment_names()}")


def experiment_names() -> List[str]:
    """Every resolvable experiment name, sorted (excluding bare figure ids)."""
    _load_experiment_library()
    return sorted(set(EXPERIMENTS) | set(SCENARIOS))


def experiment_descriptions() -> Dict[str, str]:
    """experiment name -> one-line description, for ``--list`` style output."""
    _load_experiment_library()
    described = {name: entry.description for name, entry in EXPERIMENTS.items()}
    for name, description in scenario_descriptions().items():
        described.setdefault(name, description)
    return dict(sorted(described.items()))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_experiment(spec: Union[ExperimentSpec, str], *, jobs: Optional[int] = None,
                   cache: Union[ResultCache, str, None] = None,
                   runner: Optional[SweepRunner] = None,
                   **overrides) -> ExperimentResult:
    """Execute an experiment spec (or resolve a name first) and collect rows.

    One entry point for all three payload kinds, mirroring
    :func:`repro.api.run`'s execution knobs: scenario and sweep payloads share
    the pooled runner and content-hash cache; figure payloads dispatch to
    their native entry point (which itself executes its grids through the
    same runner).
    """
    if isinstance(spec, str):
        spec = experiment(spec, **overrides)
    elif overrides:
        raise ConfigError("factory overrides only apply to experiment names")
    runner = build_runner(jobs=jobs, cache=cache, runner=runner)

    if spec.scenario is not None:
        result = run_scenario(spec.scenario, runner=runner)
        return ExperimentResult(spec=spec, rows=result.to_rows(),
                                stats=result.stats, scenario=result)
    if spec.sweep is not None:
        results = runner.run(spec.sweep)
        rows = [dict(r.metrics) for r in results]
        return ExperimentResult(spec=spec, rows=rows, stats=runner.last_stats)

    from ..experiments import runner as figure_runner
    from ..experiments.common import resolve_scale

    if spec.figure not in figure_runner.EXPERIMENTS:
        raise ConfigError(f"{spec.name}: unknown figure entry point "
                          f"{spec.figure!r}; known: {sorted(figure_runner.EXPERIMENTS)}")
    params = dict(spec.params)
    # params are stored JSON-plain (to_jsonable), so a tagged ExperimentScale
    # must be rebuilt before resolution — fresh and round-tripped specs agree
    scale = resolve_scale(from_jsonable(params.pop("scale", "default")))
    if params:
        raise ConfigError(f"{spec.name}: figure payloads only take a scale "
                          f"parameter, got {sorted(params)}")
    before = SweepStats()
    before.add(runner.cumulative_stats)
    raw = figure_runner.EXPERIMENTS[spec.figure](scale, runner)
    stats = SweepStats(
        points=runner.cumulative_stats.points - before.points,
        simulated=runner.cumulative_stats.simulated - before.simulated,
        cache_hits=runner.cumulative_stats.cache_hits - before.cache_hits,
        elapsed_seconds=(runner.cumulative_stats.elapsed_seconds
                         - before.elapsed_seconds))
    rows = raw.get("rows")
    if rows is None:
        rows = [row for payload in raw.get("per_model", {}).values()
                for row in payload.get("rows", [])]
    return ExperimentResult(spec=spec, rows=list(rows), stats=stats, raw=raw)
