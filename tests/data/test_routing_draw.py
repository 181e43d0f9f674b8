"""The routing draw is numpy's ``Generator.choice`` without the per-token calls.

``generate_routing_trace`` picks each token's experts with a pure-Python copy
of numpy's weighted sampling without replacement, reading its uniforms from
blocks of ``rng.random``.  The reference below is the numpy call the copy
replaced, kept here verbatim: every trace must match it pick for pick.  If a
numpy release changes the algorithm behind ``choice(..., replace=False,
p=...)`` (or how a ``Generator`` turns its bits into doubles), the two drift
apart and this property fails first — update the copy, not this reference.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.expert_routing import (_choice_without_replacement, _expert_popularity,
                                       generate_routing_trace)
from repro.workloads.configs import QWEN3_30B_A3B


def numpy_routing_trace(model, batch_size, num_iterations, seed):
    """The reference: one ``rng.choice`` per token."""
    rng = np.random.default_rng(seed)
    popularity = _expert_popularity(model.num_experts, model.routing_skew, rng)
    iterations = []
    for _ in range(num_iterations):
        tokens = []
        for _ in range(batch_size):
            chosen = rng.choice(model.num_experts, size=model.experts_per_token,
                                replace=False, p=popularity)
            tokens.append(tuple(int(e) for e in sorted(chosen)))
        iterations.append(tuple(tokens))
    return tuple(iterations)


def _model(num_experts, experts_per_token, skew):
    return replace(QWEN3_30B_A3B, num_experts=num_experts,
                   experts_per_token=experts_per_token, routing_skew=skew)


@settings(max_examples=150, deadline=None)
@given(num_experts=st.sampled_from([1, 8, 16, 128]),
       experts_per_token=st.integers(1, 8),
       skew=st.sampled_from([0.0, 0.6, 1.2]),
       batch_size=st.integers(1, 300),
       num_iterations=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_draw_matches_numpy_choice(num_experts, experts_per_token, skew, batch_size,
                                   num_iterations, seed):
    # a model never routes a token to more experts than it has
    model = _model(num_experts, min(experts_per_token, num_experts), skew)
    trace = generate_routing_trace(model, batch_size, num_iterations, seed)
    assert trace.assignments == numpy_routing_trace(model, batch_size, num_iterations, seed)


def test_impossible_draws_raise_like_numpy():
    rng = np.random.default_rng(0)
    for weights, k in (([1.0], 2), ([0.5, 0.5, 0.0], 3)):
        with pytest.raises(ValueError):
            rng.choice(len(weights), size=k, replace=False, p=weights)
        with pytest.raises(ValueError):
            _choice_without_replacement(rng, weights, k, 1)


def test_draws_longer_than_one_uniform_block_match():
    # 16 experts, 8 picks each and a steep skew: thousands of redraws cross
    # several refills of the uniform buffer
    model = _model(16, 8, 1.2)
    trace = generate_routing_trace(model, batch_size=1500, num_iterations=2, seed=5)
    assert trace.assignments == numpy_routing_trace(model, 1500, 2, 5)
