"""Synthetic expert-routing traces (HH-RLHF substitute, Appendix B.3).

The MoE experiments use expert-routing decisions collected by running
Qwen3-30B-A3B and Mixtral-8x7B on the HH-RLHF request trace; the experiments
consume, per iteration (decode step), which top-k experts every token in the
batch activates, summarised as per-expert bin counts.  To pick representative
iterations the paper measures the standard deviation of expert bin counts
across iterations/layers and selects the one closest to the overall average.

The generator below reproduces those statistics: expert popularity follows a
Zipf-like distribution (controlled by the model's ``routing_skew``), each token
picks ``experts_per_token`` distinct experts, and iterations are selected by
the same representative-deviation rule.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workloads.configs import ModelConfig


@dataclass(frozen=True)
class RoutingTrace:
    """Routing decisions for a sequence of iterations.

    ``assignments[i][t]`` is the tuple of expert indices activated by token
    ``t`` of the batch at iteration ``i``.
    """

    num_experts: int
    experts_per_token: int
    assignments: Tuple[Tuple[Tuple[int, ...], ...], ...]

    @property
    def num_iterations(self) -> int:
        return len(self.assignments)

    @property
    def batch_size(self) -> int:
        return len(self.assignments[0]) if self.assignments else 0

    def iteration(self, index: int) -> Tuple[Tuple[int, ...], ...]:
        return self.assignments[index]

    def bin_counts(self, index: int) -> np.ndarray:
        return expert_bin_counts(self.iteration(index), self.num_experts)

    def bin_count_std(self, index: int) -> float:
        return float(np.std(self.bin_counts(index)))


def _expert_popularity(num_experts: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """A Zipf-like popularity distribution over experts (skew=0 → uniform)."""
    ranks = np.arange(1, num_experts + 1, dtype=float)
    weights = 1.0 / np.power(ranks, max(0.0, skew))
    rng.shuffle(weights)
    return weights / weights.sum()


def generate_routing_trace(model: ModelConfig, batch_size: int, num_iterations: int = 16,
                           seed: int = 0, skew: Optional[float] = None) -> RoutingTrace:
    """Generate top-k routing decisions for ``num_iterations`` decode steps.

    Each token's experts are the draw ``rng.choice(num_experts,
    experts_per_token, replace=False, p=popularity)`` would make, computed by
    :func:`_choice_without_replacement` without a numpy call per token.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    rng = np.random.default_rng(seed)
    skew = model.routing_skew if skew is None else skew
    popularity = _expert_popularity(model.num_experts, skew, rng)
    tokens = _choice_without_replacement(rng, popularity.tolist(), model.experts_per_token,
                                         batch_size * num_iterations)
    iterations = tuple(tuple(tokens[i * batch_size:(i + 1) * batch_size])
                       for i in range(num_iterations))
    return RoutingTrace(model.num_experts, model.experts_per_token, iterations)


#: uniforms drawn from the generator per refill of the draw buffer
_UNIFORM_BLOCK = 4096


def _choice_without_replacement(rng: np.random.Generator, p: List[float], k: int,
                                draws: int) -> List[Tuple[int, ...]]:
    """``draws`` successive ``rng.choice(len(p), k, replace=False, p=p)``
    results, each sorted, as pure Python.

    A copy of numpy's algorithm: draw ``k - found`` uniforms, map each through
    the normalized cumulative weights (``bisect_right`` is ``searchsorted(...,
    side="right")``), keep the first occurrence of every new index, zero the
    found indices' weights and redraw for the rest.  The same float operations
    in the same order give bit-identical picks.  Uniforms are read from
    blocks of ``rng.random``: a generator's doubles form one stream however
    it is split, and ``rng`` is private to the caller, so reading ahead is
    unobservable.
    """
    n = len(p)
    if k > n:
        raise ValueError("Cannot take a larger sample than population when replace is False")
    if sum(1 for w in p if w > 0) < k:
        raise ValueError("Fewer non-zero entries in p than size")
    #: found indices (sorted) -> normalized cumulative weights without them
    cdfs: Dict[Tuple[int, ...], List[float]] = {}

    def cdf_without(found: Tuple[int, ...]) -> List[float]:
        weights = list(p)
        for index in found:
            weights[index] = 0.0
        sums = list(accumulate(weights))
        total = sums[-1]
        return [c / total for c in sums]

    base = cdf_without(())
    uniforms: List[float] = []
    pos = 0
    picks: List[Tuple[int, ...]] = []
    for _ in range(draws):
        chosen: List[int] = []
        cdf = base
        while True:
            need = k - len(chosen)
            if pos + need > len(uniforms):
                uniforms = uniforms[pos:] + rng.random(max(need, _UNIFORM_BLOCK)).tolist()
                pos = 0
            for x in uniforms[pos:pos + need]:
                index = bisect_right(cdf, x)
                if index not in chosen:
                    chosen.append(index)
            pos += need
            if len(chosen) == k:
                break
            found = tuple(sorted(chosen))
            cdf = cdfs.get(found)
            if cdf is None:
                cdf = cdfs[found] = cdf_without(found)
        chosen.sort()
        picks.append(tuple(chosen))
    return picks


def expert_bin_counts(assignments: Sequence[Sequence[int]], num_experts: int) -> np.ndarray:
    """Tokens routed to each expert in one iteration."""
    counts = np.zeros(num_experts, dtype=int)
    for token_experts in assignments:
        for expert in token_experts:
            counts[expert] += 1
    return counts


def representative_iteration(trace: RoutingTrace) -> Tuple[Tuple[int, ...], ...]:
    """The iteration whose expert-bin-count deviation is closest to the average.

    This mirrors the paper's methodology for selecting a representative case
    from the collected routing data (Appendix B.3).
    """
    stds = [trace.bin_count_std(i) for i in range(trace.num_iterations)]
    target = float(np.mean(stds))
    best = int(np.argmin([abs(s - target) for s in stds]))
    return trace.iteration(best)


def tokens_per_expert(assignments: Sequence[Sequence[int]], num_experts: int) -> List[int]:
    """Convenience: bin counts as a plain list."""
    return expert_bin_counts(assignments, num_experts).tolist()


def active_experts(assignments: Sequence[Sequence[int]], num_experts: int) -> List[int]:
    """Indices of experts that receive at least one token."""
    counts = expert_bin_counts(assignments, num_experts)
    return [int(i) for i in np.nonzero(counts)[0]]
