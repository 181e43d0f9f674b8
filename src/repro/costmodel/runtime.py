"""Binding cost models into :class:`~repro.serve.scheduler.ReplicaEngine`.

:func:`bind_cost_model` turns a :class:`~repro.serve.scheduler.ServeConfig`
with ``engine="surrogate"`` into a step-cost callable with the same
contract as the scheduler's exact path: ``(num_tokens, kv_lengths,
signatures) -> cycles``, recording every signature in the engine's
per-run signature dict so ``distinct_steps`` stays meaningful.

Three bindings:

* ``cost_model="exact"`` — straight to the memoized exact path;
  bit-identical to ``engine="exact"``,
* a fitted artifact (:class:`~repro.costmodel.models.TableCostModel` /
  :class:`~repro.costmodel.models.CalibratedCostModel`) — pure prediction
  after a context-hash check; the process-wide step memo is bypassed
  entirely (predictions are cheaper than the memo lookup's bookkeeping and
  must never leak into exact runs),
* ``cost_model="table"`` / ``"calibrated"`` — **per-run adaptive
  calibration** (:class:`AdaptiveSurrogate`): the first
  ``calibration_budget`` distinct signatures are costed exactly (through
  the shared memo) and recorded as probes; reaching the budget fits the
  surrogate, after which probed signatures keep replaying their exact
  cycles and only unprobed ones are predicted.  The probe set is a pure
  function of the run's own step sequence, so surrogate results stay a
  deterministic function of ``(config, trace, schedule, platform)`` —
  nothing leaks between runs, replicas or sweep points.

Both surrogate flavours predict through :func:`_predicted`: a signature the
replica already costed is answered from its ``signatures`` map, so
``predict`` runs (and warns about a clamped signature) once per distinct
signature rather than once per step.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..core.errors import ConfigError
from .models import CostModel, check_context, fit_from_probes

#: the scheduler's step-cost contract: (num_tokens, kv_lengths, signatures)
StepCostFn = Callable[[int, Tuple[int, ...], Dict[Tuple, float]], float]


class AdaptiveSurrogate:
    """Probe the first ``budget`` distinct signatures exactly, then predict.

    The probe phase delegates to the scheduler's exact path (sharing the
    process-wide memo); once ``budget`` distinct signatures have been
    probed the surrogate fits itself (:func:`~repro.costmodel.models.
    fit_from_probes` — falling back to a table when the run never produced
    enough distinct signatures for the affine fit, e.g. single-signature
    workloads, which therefore stay *exact*).  Probed signatures keep
    replaying their exact cycles after the fit.
    """

    def __init__(self, config, schedule, hardware, context: str, *,
                 kind: str, budget: int) -> None:
        self._config = config
        self._schedule = schedule
        self._hardware = hardware
        self._context = context
        self._kind = kind
        self._budget = budget
        self._probes: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        self._model: Optional[CostModel] = None

    @property
    def fitted(self) -> Optional[CostModel]:
        """The fitted artifact, or ``None`` while still probing."""
        return self._model

    def _fit(self) -> None:
        probes = [(t, k, c) for (t, k), c in sorted(self._probes.items())]
        self._model = fit_from_probes(probes, kind=self._kind,
                                      context_hash=self._context,
                                      kv_tile_rows=self._config.kv_tile_rows)

    def cycles(self, num_tokens: int, kv_lengths: Tuple[int, ...],
               signatures: Dict[Tuple, float]) -> float:
        if self._model is not None:
            # every probe is in ``signatures`` too: the probe phase put it there
            return _predicted(self._model, num_tokens, kv_lengths, signatures)
        from ..serve import scheduler

        cycles = scheduler._step_cycles(
            self._config, self._schedule, self._hardware, self._context,
            num_tokens, kv_lengths, signatures)
        signature = (num_tokens, kv_lengths)
        if signature not in self._probes:
            self._probes[signature] = cycles
            if len(self._probes) >= self._budget:
                self._fit()
        return cycles


def _predicted(model: CostModel, num_tokens: int, kv_lengths: Tuple[int, ...],
               signatures: Dict[Tuple, float]) -> float:
    """The step's cycles from ``signatures`` when this run already costed
    it, else from ``model.predict`` (recorded for the next repeat)."""
    signature = (num_tokens, kv_lengths)
    cycles = signatures.get(signature)
    if cycles is None:
        cycles = signatures[signature] = model.predict(num_tokens, kv_lengths)
    return cycles


def bind_cost_model(config, schedule, hardware, context: str) -> StepCostFn:
    """The surrogate engine's step-cost callable for one replica run."""
    model = config.cost_model

    if model == "exact":
        def exact_cycles(num_tokens: int, kv_lengths: Tuple[int, ...],
                         signatures: Dict[Tuple, float]) -> float:
            from ..serve import scheduler

            return scheduler._step_cycles(config, schedule, hardware,
                                          context, num_tokens, kv_lengths,
                                          signatures)

        return exact_cycles

    if isinstance(model, str):
        return AdaptiveSurrogate(config, schedule, hardware, context,
                                 kind=model,
                                 budget=config.calibration_budget).cycles

    if not isinstance(model, CostModel):
        raise ConfigError(f"cost_model must resolve to a registered name or "
                          f"a CostModel, got {type(model).__name__!r}")
    check_context(model, context)
    return partial(_predicted, model)
