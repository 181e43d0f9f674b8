"""The STeP stream token model (paper Section 3.1, "Stop Tokens").

A STeP stream is logically zero or more tensors.  The logical structure is
embedded in the data stream through *stop tokens*: the end of each dimension
is annotated with a stop token ``S_N`` where ``N`` is the rank of that
dimension (``S_1`` ends a vector).  At the end of multiple dimensions only the
highest-level stop token is emitted, and the ``Done`` token terminates the
stream.

Example (paper equation (1)) — shape ``[2, 2, D0]``::

    1, 2, S1, 3, S2, 4, S1, 5, 6, 7, S2, D

This module provides

* the token classes :class:`Data`, :class:`Stop` and :class:`Done`,
* conversion between nested Python structures (lists of lists of values) and
  token streams, in both directions,
* concrete-shape inference from a token stream,
* a protocol validator, and
* :class:`StopAbsorbingEmitter`, the helper operators use to emit well-formed
  output streams (merging adjacent stop tokens into the highest level).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import StreamProtocolError


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

class Token:
    """Base class for stream tokens."""

    __slots__ = ()


class Data(Token):
    """A data token carrying a value (tile, selector, buffer handle, tuple...)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, Data) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("data", id(self.value)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Data({self.value!r})"


class Stop(Token):
    """A stop token ``S_level`` marking the end of a dimension (level >= 1)."""

    __slots__ = ("level",)

    def __init__(self, level: int):
        level = int(level)
        if level < 1:
            raise StreamProtocolError(f"stop token level must be >= 1, got {level}")
        self.level = level

    def __eq__(self, other) -> bool:
        return isinstance(other, Stop) and self.level == other.level

    def __hash__(self) -> int:
        return hash(("stop", self.level))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"S{self.level}"


class Done(Token):
    """The stream-termination token ``D``."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return isinstance(other, Done)

    def __hash__(self) -> int:
        return hash("done")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "D"


DONE = Done()

#: interned stop tokens for the common levels — Stop instances are immutable
#: (the level is set once), so hot paths share them instead of allocating
_STOP_CACHE: Tuple["Stop", ...] = tuple(Stop(level) for level in range(1, 17))


def stop_token(level: int) -> Stop:
    """A stop token of ``level``, shared from the cache for small levels."""
    if 1 <= level <= 16:
        return _STOP_CACHE[level - 1]
    return Stop(level)


TokenStream = List[Token]


def is_data(token: Token) -> bool:
    return isinstance(token, Data)


def is_stop(token: Token, level: Optional[int] = None) -> bool:
    if not isinstance(token, Stop):
        return False
    return level is None or token.level == level


def is_done(token: Token) -> bool:
    return isinstance(token, Done)


# ---------------------------------------------------------------------------
# Nested structure <-> token stream
# ---------------------------------------------------------------------------

def tokens_from_nested(nested: Sequence, rank: int, wrap: Callable[[Any], Any] = lambda v: v,
                       append_done: bool = True) -> TokenStream:
    """Serialize a nested Python structure into a token stream.

    ``nested`` must be nested ``rank + 1`` levels deep: the outermost list is
    the stream of tensors, and each tensor is nested ``rank`` levels with leaf
    entries being the data values.  ``wrap`` is applied to every leaf value
    (e.g. to turn numbers into tiles).

    The emitted stream follows the paper's convention: every tensor/sub-tensor
    end is marked with a stop token, adjacent stops are merged into the highest
    level, and the stream is terminated by ``Done``.
    """
    if rank < 0:
        raise StreamProtocolError(f"stream rank must be >= 0, got {rank}")

    tokens: TokenStream = []
    _emit_group(tokens, nested, rank, rank, wrap)
    if append_done:
        tokens.append(DONE)
    return tokens


# Module-level rather than closures: a recursive closure references itself
# through its cell, and that cycle would hold the emitted tokens until the
# collector runs.
def _is_empty(group, level: int) -> bool:
    if level == 0:
        return len(group) == 0
    return all(isinstance(entry, (list, tuple)) and _is_empty(entry, level - 1)
               for entry in group) if group else True


def _emit_group(tokens: TokenStream, group: Sequence, level: int, rank: int,
                wrap: Callable[[Any], Any]) -> None:
    # ``level`` is the stop-token level that closes one entry of ``group``.
    if level == 0:
        for value in group:
            tokens.append(Data(wrap(value)))
        return
    for entry in group:
        if not isinstance(entry, (list, tuple)):
            raise StreamProtocolError(
                f"expected nesting of depth {rank + 1}, found leaf {entry!r} at level {level}")
        if _is_empty(entry, level - 1):
            # Empty tensors carry no data and are elided from the token
            # stream (the encoding cannot mark them without emitting bare
            # stop tokens; Promote's 0-sized outermost dimension is the
            # paper's mechanism for representing emptiness explicitly).
            continue
        _emit_group(tokens, entry, level - 1, rank, wrap)
        _append_stop(tokens, level)


def _append_stop(tokens: TokenStream, level: int) -> None:
    """Append a stop token, merging with a directly preceding stop (absorption)."""
    if tokens and isinstance(tokens[-1], Stop):
        tokens[-1] = stop_token(max(tokens[-1].level, level))
    else:
        tokens.append(stop_token(level))


def nested_from_tokens(tokens: Sequence[Token], rank: int,
                       unwrap: Callable[[Any], Any] = lambda v: v) -> list:
    """Parse a token stream back into a nested Python structure.

    The inverse of :func:`tokens_from_nested` (up to the ``wrap``/``unwrap``
    functions).  The stream must be well formed (see :func:`validate_tokens`).
    """
    validate_tokens(tokens, rank)

    def new_stack() -> List[list]:
        # stack[0] is the outermost (stream) level, stack[rank] the innermost.
        return [[] for _ in range(rank + 1)]

    stack = new_stack()
    for token in tokens:
        if isinstance(token, Data):
            stack[rank].append(unwrap(token.value))
        elif isinstance(token, Stop):
            level = min(token.level, rank)
            # Close dimensions innermost-first up to ``level``.
            for depth in range(rank, rank - level, -1):
                stack[depth - 1].append(stack[depth])
                stack[depth] = []
        elif isinstance(token, Done):
            break
    # Flush an unterminated trailing tensor (streams that end with bare Done).
    for depth in range(rank, 0, -1):
        if stack[depth]:
            stack[depth - 1].append(stack[depth])
            stack[depth] = []
    return stack[0]


def data_values(tokens: Iterable[Token]) -> list:
    """All data payloads of a token stream, in order."""
    return [t.value for t in tokens if isinstance(t, Data)]


def count_data(tokens: Iterable[Token]) -> int:
    return sum(1 for t in tokens if isinstance(t, Data))


def validate_tokens(tokens: Sequence[Token], rank: Optional[int] = None) -> None:
    """Check the stop-token protocol.

    Raises :class:`StreamProtocolError` when

    * a token appears after ``Done`` or ``Done`` is missing/duplicated,
    * a stop token exceeds the stream rank (when ``rank`` is given),
    * two stop tokens are adjacent (absorption requires merging them),
    * the stream starts with a stop token (empty dimensions are expressed by
      omitting data, not by leading stops).
    """
    if not tokens:
        raise StreamProtocolError("empty token stream (missing Done)")
    if not isinstance(tokens[-1], Done):
        raise StreamProtocolError("token stream does not end with Done")
    seen_done = False
    previous: Optional[Token] = None
    for index, token in enumerate(tokens):
        if seen_done:
            raise StreamProtocolError(f"token {token!r} appears after Done (index {index})")
        if isinstance(token, Done):
            seen_done = True
        elif isinstance(token, Stop):
            if rank is not None and token.level > rank:
                raise StreamProtocolError(
                    f"stop token S{token.level} exceeds stream rank {rank}")
            if previous is None:
                raise StreamProtocolError("stream starts with a stop token")
            if isinstance(previous, Stop):
                raise StreamProtocolError(
                    f"adjacent stop tokens S{previous.level}, S{token.level} "
                    f"violate the absorption rule")
        elif not isinstance(token, Data):
            raise StreamProtocolError(f"unknown token {token!r}")
        previous = token


def infer_concrete_shape(tokens: Sequence[Token], rank: int) -> List[Optional[int]]:
    """Infer the concrete stream shape from a token stream.

    Returns ``rank + 1`` entries (outermost first).  An entry is an ``int``
    when every occurrence of that dimension has the same size and ``None``
    when the dimension is ragged in this particular stream.
    """
    nested = nested_from_tokens(tokens, rank)
    sizes: List[set] = [set() for _ in range(rank + 1)]

    def walk(group, depth: int) -> None:
        sizes[depth].add(len(group))
        if depth < rank:
            for entry in group:
                walk(entry, depth + 1)

    walk(nested, 0)
    result: List[Optional[int]] = []
    for observed in sizes:
        observed.discard(0) if len(observed) > 1 else None
        if len(observed) == 1:
            result.append(next(iter(observed)))
        elif len(observed) == 0:
            result.append(0)
        else:
            result.append(None)
    return result


# ---------------------------------------------------------------------------
# Stop-absorbing emitter
# ---------------------------------------------------------------------------

class StopAbsorbingEmitter:
    """Helper for operators that construct output streams.

    Holds at most one pending stop token; emitting data flushes it, emitting
    another stop merges into the highest level (the paper's absorption rule),
    and finishing the stream flushes the pending stop before ``Done``.

    ``sink`` is a callable receiving each output token (typically a channel
    push or ``list.append``).
    """

    __slots__ = ("_sink", "_pending")

    def __init__(self, sink: Callable[[Token], Any]):
        self._sink = sink
        self._pending: Optional[int] = None

    def data(self, value: Any):
        """Emit a data token (flushing any pending stop first)."""
        flush = self.flush()
        result = self._sink(Data(value))
        return (flush, result)

    def stop(self, level: int) -> None:
        """Emit (or merge) a stop token of the given level."""
        if level < 1:
            return
        if self._pending is None:
            self._pending = level
        else:
            self._pending = max(self._pending, level)

    def raise_pending(self, level: int) -> None:
        """Raise the pending stop to at least ``level`` (used by Reassemble)."""
        self.stop(level)

    def flush(self):
        """Flush the pending stop token, if any."""
        if self._pending is not None:
            level, self._pending = self._pending, None
            return self._sink(stop_token(level))
        return None

    def done(self):
        """Flush and emit ``Done``."""
        self.flush()
        return self._sink(DONE)

    @property
    def pending(self) -> Optional[int]:
        return self._pending


class ListEmitter(StopAbsorbingEmitter):
    """A :class:`StopAbsorbingEmitter` that collects tokens into a list."""

    def __init__(self):
        self.tokens: TokenStream = []
        super().__init__(self.tokens.append)
