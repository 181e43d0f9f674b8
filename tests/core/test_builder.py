"""The builder's token streams, emitted directly, against the generic encoder.

``matrix_to_row_tokens`` and ``selectors_to_tokens`` emit their ``Data`` /
``Stop`` / ``Done`` lists without going through ``tokens_from_nested``; the
streams must equal the generic encoder's element for element.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.builder import matrix_to_row_tokens, selectors_to_tokens
from repro.core.dtypes import Selector, Tile
from repro.core.stream import Data, Done, Stop, tokens_from_nested, validate_tokens


def _same_token(ours, reference) -> bool:
    if type(ours) is not type(reference):
        return False
    if isinstance(ours, Stop):
        return ours.level == reference.level
    if isinstance(ours, Done):
        return True
    value, expected = ours.value, reference.value
    if isinstance(expected, Tile):
        return (type(value) is Tile and value.shape == expected.shape
                and value.dtype == expected.dtype
                and (value.data is None) == (expected.data is None)
                and (value.data is None or np.array_equal(value.data, expected.data)))
    return value == expected


def _assert_same_stream(ours, reference):
    assert len(ours) == len(reference)
    assert all(_same_token(a, b) for a, b in zip(ours, reference))


@settings(max_examples=40, deadline=None)
@given(num_rows=st.integers(0, 24), row_width=st.integers(1, 16),
       dtype=st.sampled_from(["bf16", "f32", "i8"]))
@example(num_rows=0, row_width=4, dtype="bf16")
def test_metadata_row_tokens(num_rows, row_width, dtype):
    tokens = matrix_to_row_tokens(None, num_rows=num_rows, row_width=row_width,
                                  dtype=dtype)
    reference = tokens_from_nested([[Tile.meta(1, row_width, dtype)]
                                    for _ in range(num_rows)], rank=1)
    _assert_same_stream(tokens, reference)
    validate_tokens(tokens, rank=1)
    # every row is its own tile, as the generic path builds them
    tiles = [token.value for token in tokens if isinstance(token, Data)]
    assert len({id(tile) for tile in tiles}) == num_rows


@settings(max_examples=25, deadline=None)
@given(num_rows=st.integers(0, 12), row_width=st.integers(1, 8),
       with_data=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(num_rows=0, row_width=3, with_data=True, seed=0)
def test_matrix_row_tokens(num_rows, row_width, with_data, seed):
    matrix = np.random.default_rng(seed).standard_normal((num_rows, row_width))
    tokens = matrix_to_row_tokens(matrix, with_data=with_data)
    reference = tokens_from_nested(
        [[Tile.from_array(matrix[i:i + 1, :]) if with_data else Tile.meta(1, row_width)]
         for i in range(num_rows)], rank=1)
    _assert_same_stream(tokens, reference)


@settings(max_examples=40, deadline=None)
@given(num_targets=st.integers(1, 8), data=st.data())
@example(num_targets=3, data=None)
def test_selector_tokens(num_targets, data):
    if data is None:
        choices = []
    else:
        choice = st.one_of(st.integers(0, num_targets - 1),
                           st.lists(st.integers(0, num_targets - 1), min_size=1,
                                    max_size=num_targets))
        choices = data.draw(st.lists(choice, max_size=20))
    tokens = selectors_to_tokens(choices, num_targets)
    reference = tokens_from_nested([Selector(c, num_targets) for c in choices], rank=0)
    _assert_same_stream(tokens, reference)
    validate_tokens(tokens, rank=0)
