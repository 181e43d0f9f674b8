"""Serving sweeps: the ``"serve"`` / ``"fleet"`` tasks and :func:`load_grid`.

The scenario path (:class:`~repro.serve.workload.ServeWorkload` under the
generic ``"workload"`` task) covers grids whose points are pre-built workload
objects.  Load studies instead sweep *generator parameters* — the arrival
rate above all — so this module registers two dedicated tasks that take a
serving config, a trace spec and an arrival rate and build the trace inside
the worker (nothing large crosses the pool boundary):

* ``"serve"`` (:func:`serve_point`) — one :class:`ServeConfig` server,
* ``"fleet"`` (:func:`fleet_point`) — one :class:`FleetConfig` fleet.

:func:`load_grid` builds every serving load study as **one** sweep over
them: a base config, an ordered mapping of axes and a trace spec.  An axis
is ``"arrival_rate"``, ``"schedule"``, ``"platform"`` or any config field
(``batch_cap``, ``policy``, ``num_replicas`` …); config-field axes apply as
:func:`~repro.serve.fleet.configure` overrides, so a grid can sweep every
knob the config declares and nothing else.  The registered serving
experiments (``serve-latency``, ``fleet-latency``, ``memory-pressure``,
``policy-shootout``, ``capacity``) are each one ``load_grid`` call with
their own axes.

Hardware arrives as a named :class:`~repro.platforms.Platform`, resolved
through the same single path as every other subsystem, so platform identity
participates in every cache key.  The tasks are seedless: the trace spec
carries the traffic seed and the config carries the routing seed, so every
grid point serves the *same-seed* traffic (rate changes the inter-arrival
scale, not the random stream) — which is what makes a latency-vs-load curve
comparable across its points.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..core.errors import ConfigError
from ..platforms import Platform, PlatformLike, resolve_platform
from ..schedules import Schedule
from ..sweep import SweepSpec, register_task
from .arrivals import ArrivalTrace
from .fleet import FleetConfig, configure, simulate_fleet
from .generators import generate_trace
from .scheduler import ServeConfig, simulate_serving


def _build_trace(trace: Mapping[str, Any], arrival_rate: float) -> ArrivalTrace:
    """The trace spec at ``arrival_rate`` (``generator`` defaults to Poisson)."""
    knobs = dict(trace)
    generator = knobs.pop("generator", "poisson")
    return generate_trace(generator, rate=arrival_rate, **knobs)


@register_task("serve")
def serve_point(config: ServeConfig, schedule: Optional[Schedule],
                trace: Mapping[str, Any], arrival_rate: float,
                platform: Optional[Platform] = None,
                ttft_slo: Optional[float] = None) -> Dict[str, float]:
    """One serving design point: generate the trace, serve it, report metrics.

    ``trace`` is a trace spec — a registered generator name under
    ``"generator"`` plus its keyword arguments (``num_requests``, ``seed``,
    length knobs) — realized at ``arrival_rate``.  The payload carries the
    swept coordinates alongside the serving metrics so result rows are
    self-describing; a ``ttft_slo`` (cycles) adds the strict-goodput view —
    ``slo_attainment`` and ``slo_goodput_rpmc``.
    """
    report = simulate_serving(config, _build_trace(trace, arrival_rate),
                              schedule, hardware=platform)
    payload = {"arrival_rate": float(arrival_rate),
               "batch_cap": float(config.batch_cap),
               "policy": config.policy.label, **report.metrics()}
    if ttft_slo is not None:
        payload["slo_attainment"] = float(report.slo_attainment(ttft_slo))
        payload["slo_goodput_rpmc"] = float(report.slo_goodput(ttft_slo))
    return payload


@register_task("fleet")
def fleet_point(config: FleetConfig, schedule: Optional[Schedule],
                trace: Mapping[str, Any], arrival_rate: float,
                platform: Optional[Platform] = None) -> Dict[str, float]:
    """One fleet design point: :func:`serve_point` on ``config.num_replicas``
    replicas, with the fleet coordinates (replica count, routing policy) in
    the payload."""
    report = simulate_fleet(config, _build_trace(trace, arrival_rate),
                            schedule, hardware=platform)
    return {"arrival_rate": float(arrival_rate),
            "num_replicas": float(config.num_replicas),
            "routing": config.routing, "policy": config.serve.policy.label,
            **report.metrics()}


def load_grid(config: Union[ServeConfig, FleetConfig],
              axes: Mapping[str, Sequence[Any]], *, trace: Mapping[str, Any],
              schedule: Optional[Schedule] = None,
              platform: PlatformLike = None, ttft_slo: Optional[float] = None,
              name: str = "load-grid") -> SweepSpec:
    """A serving load study as **one** sweep over the ``"serve"`` task (a
    :class:`ServeConfig`) or the ``"fleet"`` task (a :class:`FleetConfig`).

    ``axes`` maps ``"arrival_rate"`` (required), ``"schedule"``,
    ``"platform"`` or any :func:`~repro.serve.fleet.knob_names` of ``config``
    to its values.  Points are the cartesian product in ``axes`` order, the
    first axis major, so with axes ``(a, b, c)`` the row for ``a[i]``,
    ``b[j]``, ``c[k]`` sits at ``(i * len(b) + j) * len(c) + k``.  Unswept
    ``schedule`` / ``platform`` come from the keywords, and ``trace`` is the
    trace spec every point realizes at its own rate.  A ``ttft_slo`` (cycles)
    adds the SLO metrics to single-server grids.
    """
    fleet = isinstance(config, FleetConfig)
    if not len(axes.get("arrival_rate", ())):
        raise ConfigError(f"{name}: at least one arrival rate is required")
    empty = [axis for axis, values in axes.items() if not len(values)]
    if empty:
        raise ConfigError(f"{name}: axes {empty} need at least one value")
    if fleet and ttft_slo is not None:
        raise ConfigError(f"{name}: ttft_slo applies to single-server grids")
    points: Dict[str, list] = {"config": [], "schedule": [], "platform": [],
                               "arrival_rate": []}
    for combo in itertools.product(*axes.values()):
        knobs = dict(zip(axes, combo))
        points["arrival_rate"].append(float(knobs.pop("arrival_rate")))
        points["schedule"].append(knobs.pop("schedule", schedule))
        points["platform"].append(resolve_platform(knobs.pop("platform",
                                                             platform)))
        points["config"].append(configure(config, **knobs))
    base: Dict[str, Any] = {"trace": dict(trace)}
    if ttft_slo is not None:
        base["ttft_slo"] = float(ttft_slo)
    return SweepSpec(name=name, task="fleet" if fleet else "serve", base=base,
                     axes=points, mode="zip")
