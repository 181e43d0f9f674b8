"""The simulation engine: a timed Kahn-process-network executor.

Every STeP operator becomes a :class:`Process` wrapping a Python generator
(its *executor*).  Executors interact with the world only by yielding effect
tuples, which the engine services synchronously:

====================  =====================================================
``("pop", ch)``        pop one token from ``ch`` (blocks while empty); the
                       process clock advances to the token's ready time.
``("pop_any", chs)``   pop from whichever channel has the earliest-ready
                       head token (blocks while all are empty); returns
                       ``(index, token)``.
``("pop_each", chs)``  pop one token from every channel, in order (blocks
                       on each empty channel); returns the token list.
``("pop_run", ch, n)`` pop up to ``n`` immediately available tokens
                       (blocks while empty); returns a non-empty list.
``("peek", ch)``       like pop but leaves the token in place.
``("push", ch, tok)``  append a token (blocks while the channel is full).
``("push_all", chs, tok)``      broadcast one token to every channel.
``("push_many", chs, toks)``    broadcast a token run to every channel
                                (tokens outer, channels inner).
``("push_many_at", chs, toks, t)``  like push_many with an explicit
                                visibility timestamp (cf. ``push_at``).
``("tick", cycles)``   advance the process clock by ``cycles``.
``("hbm", nbytes, is_write, addr)``  issue an off-chip memory request; the
                       process clock advances to its completion time.
``("time",)``          returns the current process clock.
====================  =====================================================

Some effects may also complete *inline*, inside the executor, through the
engine's ``pop_now`` / ``pop_any_now`` / ``push_now`` / ``tick_now`` /
``tick_push_now`` helpers (the executors reach the engine through their
``OpContext``):

====================  =====================================================
inline helper          completes inline unless
====================  =====================================================
``pop_now``            the queue is empty
``pop_any_now``        every queue is empty
``push_now``           a target lacks room for the whole run, or a
                       backpressure bump is pending
``tick_now``           (always completes)
``tick_push_now``      as ``push_now``, checked before the tick
====================  =====================================================

and every helper declines once the process clock is past the horizon
(:attr:`Engine.horizon`) of the process being advanced, because the scalar
loop would have rescheduled the process before that effect.  A declined
effect changes nothing and the executor yields it as usual.  An inline
effect counts one event, like the effect it replaces.  When inline work moves
the clock past the horizon, the executor's next effect declines and
``_advance`` parks it right after the ``send`` that yielded it, exactly
where a round-trip would have rescheduled.  Sink processes must not end on an
inline effect that can overrun the horizon (none of the inlining executors
is a sink).

Processes run until they block; pushes and pops wake the relevant waiters, so
scheduling work is proportional to the number of tokens moved.  The batched
effects (``push_many`` / ``pop_each`` / ``pop_run``) move whole token runs per
engine round-trip while preserving the exact per-token semantics of their
scalar counterparts: the handlers apply the same clock updates, backpressure
bookkeeping and ``time_slack`` horizon checks at the same points a sequence of
scalar effects would, so simulated timing is bit-identical.  With
``timed=False`` all latencies collapse to zero and the engine doubles as a
functional reference interpreter.

This mirrors the execution model of the Dataflow Abstract Machine framework
underlying the paper's Rust simulator: asynchronous blocks with local clocks
communicating over time-stamped FIFOs.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from typing import Generator, List, Optional, Sequence, Tuple

from ..core.errors import DeadlockError, SimulationError
from .channel import Channel
from .hbm import BankedHBM, HBMModel
from .metrics import SimMetrics

_INF = float("inf")

#: sentinel returned by effect handlers when the process cannot continue now:
#: either it blocked (the effect was stored for retry and the process was
#: registered as a waiter) or a batched effect overran the horizon (the
#: remainder was stored and the process re-enqueued).  Any other return value
#: is the effect's result, sent into the generator on the next resume.
_SUSPEND = object()

#: returned by :meth:`Engine.pop_now` when the pop cannot complete inline
MISS = object()


def _room(process: "Process", channels: Sequence[Channel], tokens: Sequence) -> bool:
    """Whether a push run completes without blocking or a backpressure bump."""
    if process.was_backpressured:
        return False
    for channel in channels:
        capacity = channel.capacity
        if capacity is not None and len(channel.queue) + len(tokens) > capacity:
            return False
    return True


class ProcessState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


class Process:
    """A simulated asynchronous dataflow block."""

    __slots__ = ("name", "generator", "state", "local_time", "pending_effect",
                 "pending_send", "blocked_on", "was_backpressured", "is_sink")

    def __init__(self, name: str, generator: Generator, is_sink: bool = False):
        self.name = name
        self.generator = generator
        self.state = ProcessState.RUNNABLE
        self.local_time: float = 0.0
        #: effect to retry when the process is woken up
        self.pending_effect: Optional[tuple] = None
        #: value to send into the generator on the next resume
        self.pending_send = None
        #: channels this process is currently blocked on (for diagnostics/wakeup)
        self.blocked_on: List[Channel] = []
        self.was_backpressured = False
        self.is_sink = is_sink

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Process({self.name}, {self.state.value}, t={self.local_time:.1f})"


class Engine:
    """Schedules processes, services effects and tracks global metrics.

    Scheduling is *time ordered*: runnable processes are kept in a priority
    queue keyed by their local clock, and a process only runs until its clock
    exceeds the earliest other runnable process by ``time_slack`` cycles before
    being rescheduled.  This keeps the shared-resource models (the HBM
    bandwidth ledger, EagerMerge arrival order, the dynamic-parallelization
    availability loop) seeing events approximately in timestamp order even
    though each process is a run-until-blocked coroutine.
    """

    def __init__(self, timed: bool = True, hbm: Optional[HBMModel] = None,
                 metrics: Optional[SimMetrics] = None, max_events: int = 200_000_000,
                 time_slack: float = 200.0):
        self.timed = timed
        self.hbm = hbm if hbm is not None else HBMModel()
        self.metrics = metrics if metrics is not None else SimMetrics()
        self.metrics.offchip_bandwidth = getattr(self.hbm, "bandwidth",
                                                 getattr(self.hbm, "bus_bandwidth", 0.0))
        self.processes: List[Process] = []
        self.channels: List[Channel] = []
        #: priority queue of (local_time, sequence, process)
        self._runnable: List[Tuple[float, int, Process]] = []
        self._queue_seq = 0
        self.max_events = max_events
        self.time_slack = float(time_slack)
        self._events = 0
        self._sinks_pending = 0
        #: the process being advanced and its horizon, for the inline effects
        self.current: Optional[Process] = None
        self.horizon = _INF

    # -- construction --------------------------------------------------------------
    def add_channel(self, name: str = "", capacity: Optional[int] = None,
                    latency: float = 1.0) -> Channel:
        channel = Channel(name=name, capacity=capacity,
                          latency=latency if self.timed else 0.0)
        self.channels.append(channel)
        return channel

    def add_process(self, name: str, generator: Generator, is_sink: bool = False) -> Process:
        process = Process(name, generator, is_sink=is_sink)
        self.processes.append(process)
        self._enqueue(process)
        return process

    def _enqueue(self, process: Process) -> None:
        self._queue_seq += 1
        heappush(self._runnable, (process.local_time, self._queue_seq, process))

    # -- main loop -------------------------------------------------------------------
    def run(self) -> SimMetrics:
        """Run until every sink process finishes (or every process finishes)."""
        sinks = [p for p in self.processes if p.is_sink]
        self._sinks_pending = sum(1 for p in sinks if p.state is not ProcessState.DONE)
        runnable = self._runnable
        timed = self.timed
        slack = self.time_slack
        track_sinks = bool(sinks)
        try:
            while runnable:
                if track_sinks and not self._sinks_pending:
                    break
                process = heappop(runnable)[2]
                if process.state is ProcessState.DONE:
                    continue
                process.state = ProcessState.RUNNABLE
                if timed and runnable:
                    horizon = runnable[0][0] + slack
                else:
                    horizon = _INF
                self._advance(process, horizon)

            if sinks and not all(p.state is ProcessState.DONE for p in sinks):
                blocked = [f"{p.name} blocked on {[c.name for c in p.blocked_on]}"
                           for p in self.processes if p.state is ProcessState.BLOCKED]
                raise DeadlockError(
                    "simulation deadlocked before all sinks completed", blocked=blocked)
        finally:
            self._release()

        self.metrics.cycles = self.total_cycles()
        self.metrics.events = self._events
        return self.metrics

    def _release(self) -> None:
        """Break the reference cycles a run leaves behind.

        A suspended executor's frame holds its channels, whose waiter lists
        hold the suspended processes back: without this, every engine would
        be cyclic garbage left for the collector.
        """
        self.current = None
        for process in self.processes:
            if process.state is not ProcessState.DONE:
                process.generator.close()
        for channel in self.channels:
            channel.data_waiters.clear()
            channel.space_waiters.clear()

    def total_cycles(self) -> float:
        """Total execution time: the latest local clock across all processes."""
        if not self.processes:
            return 0.0
        return max(p.local_time for p in self.processes)

    # -- process advancement ------------------------------------------------------------
    def _advance(self, process: Process, horizon: float = _INF) -> None:
        """Run ``process`` until it blocks, finishes or overruns ``horizon``."""
        self.current = process
        self.horizon = horizon
        generator = process.generator
        send = generator.send
        handlers = self._HANDLERS
        timed = self.timed
        max_events = self.max_events
        runnable_state = ProcessState.RUNNABLE
        while True:
            if process.local_time > horizon and process.state is runnable_state:
                # yield the CPU back to earlier-in-time processes
                self._enqueue(process)
                return
            # the counter lives on the engine: inline effects count themselves
            self._events += 1
            if self._events > max_events:
                raise SimulationError(
                    f"exceeded the event budget ({self.max_events}); "
                    f"likely a livelock in the program graph")
            effect = process.pending_effect
            if effect is None:
                try:
                    effect = send(process.pending_send)
                except StopIteration:
                    process.state = ProcessState.DONE
                    process.pending_send = None
                    if process.is_sink:
                        self._sinks_pending -= 1
                    return
                process.pending_send = None
                if process.local_time > horizon:
                    # inline effects moved the clock past the horizon: the
                    # scalar loop would have rescheduled before this effect,
                    # so park it; its retry on resume counts its event
                    process.pending_effect = effect
                    self._events -= 1
                    self._enqueue(process)
                    return
            else:
                process.pending_effect = None

            kind = effect[0]
            if kind == "tick":
                if timed:
                    process.local_time += float(effect[1])
                continue
            try:
                handler = handlers[kind]
            except KeyError:
                raise SimulationError(
                    f"unknown effect {effect!r} from process {process.name}") from None
            result = handler(self, process, effect, horizon)
            if result is _SUSPEND:
                return
            process.pending_send = result

    # -- inline effects ------------------------------------------------------------------
    # Called by executors *during* a send, on behalf of ``self.current``.  Each
    # completes an effect exactly as its handler would and counts its event, or
    # declines (changing nothing) when the effect could not complete right now
    # without a scheduler decision; the executor then yields the effect.

    def pop_now(self, channel: Channel):
        """Inline ``("pop", channel)``; :data:`MISS` when the queue is empty or
        the clock is past the horizon."""
        process = self.current
        queue = channel.queue
        local = process.local_time
        if not queue or local > self.horizon:
            return MISS
        ready, token = queue.popleft()
        channel.total_popped += 1
        if ready > local:
            channel.last_pop_time = ready
            if self.timed:
                process.local_time = ready
        else:
            channel.last_pop_time = local
        if channel.space_waiters:
            self._wake_waiters(channel.space_waiters)
        self._events += 1
        return token

    def pop_any_now(self, channels: Sequence[Channel]):
        """Inline ``("pop_any", channels)``: ``(index, token)``, or :data:`MISS`
        when every queue is empty or the clock is past the horizon."""
        process = self.current
        local = process.local_time
        if local > self.horizon:
            return MISS
        best_index = -1
        best_ready = _INF
        for index, channel in enumerate(channels):
            queue = channel.queue
            if queue and (best_index < 0 or queue[0][0] < best_ready):
                best_ready = queue[0][0]
                best_index = index
        if best_index < 0:
            return MISS
        channel = channels[best_index]
        ready, token = channel.pop(local)
        if self.timed and ready > local:
            process.local_time = ready
        if channel.space_waiters:
            self._wake_waiters(channel.space_waiters)
        self._events += 1
        return (best_index, token)

    def push_now(self, channels: Sequence[Channel], tokens: Sequence):
        """Inline ``("push_many", channels, tokens)``: None once done, else the
        effect to yield (clock past the horizon, a pending backpressure bump,
        or a channel without room for the whole run)."""
        process = self.current
        local = process.local_time
        if local > self.horizon or process.was_backpressured:
            return ("push_many", channels, tokens)
        if len(channels) != 1:
            if not _room(process, channels, tokens):
                return ("push_many", channels, tokens)
            self._events += 1
            if tokens:
                self._append(local, channels, tokens)
            return None
        # one consumer, the common case: _room and _append, inlined
        channel = channels[0]
        queue = channel.queue
        capacity = channel.capacity
        if capacity is not None and len(queue) + len(tokens) > capacity:
            return ("push_many", channels, tokens)
        self._events += 1
        if tokens:
            ready = local + channel.latency
            for token in tokens:
                queue.append((ready, token))
            channel.total_pushed += len(tokens)
            if len(queue) > channel.max_occupancy:
                channel.max_occupancy = len(queue)
            if channel.data_waiters:
                self._wake_waiters(channel.data_waiters)
        return None

    def tick_now(self, cycles: float):
        """Inline ``("tick", cycles)``: None once done, else the effect to yield."""
        process = self.current
        if process.local_time > self.horizon:
            return ("tick", cycles)
        if self.timed:
            process.local_time += float(cycles)
        self._events += 1
        return None

    def tick_push_now(self, cycles: float, channels: Sequence[Channel], tokens: Sequence):
        """Inline ``("tick_push_many", cycles, channels, tokens)``: None once done,
        else the effect to yield.

        The push is checked before the tick so a declined effect changes
        nothing; a tick that overruns the horizon returns the push alone, which
        :meth:`_advance` parks exactly where the handler would.
        """
        process = self.current
        if process.local_time > self.horizon or not _room(process, channels, tokens):
            return ("tick_push_many", cycles, channels, tokens)
        self._events += 1
        if self.timed:
            process.local_time += float(cycles)
            if process.local_time > self.horizon:
                return ("push_many", channels, tokens)
        if tokens:
            self._append(process.local_time, channels, tokens)
        return None

    def _append(self, local: float, channels: Sequence[Channel], tokens: Sequence) -> None:
        """Push a non-empty run :func:`_room` admitted, as the handler would."""
        n = len(tokens)
        for channel in channels:
            queue = channel.queue
            ready = local + channel.latency
            if n == 1:
                queue.append((ready, tokens[0]))
            else:
                queue.extend([(ready, token) for token in tokens])
            channel.total_pushed += n
            if len(queue) > channel.max_occupancy:
                channel.max_occupancy = len(queue)
            if channel.data_waiters:
                self._wake_waiters(channel.data_waiters)

    # -- scalar effect implementations --------------------------------------------------
    def _do_push(self, process: Process, effect: tuple, horizon: float):
        channel = effect[1]
        if channel.capacity is not None and len(channel.queue) >= channel.capacity:
            self._block(process, effect, (channel,), space=True)
            return _SUSPEND
        if process.was_backpressured:
            if channel.last_pop_time > process.local_time:
                process.local_time = channel.last_pop_time
            process.was_backpressured = False
        queue = channel.queue
        queue.append((process.local_time + channel.latency, effect[2]))
        channel.total_pushed += 1
        if len(queue) > channel.max_occupancy:
            channel.max_occupancy = len(queue)
        if channel.data_waiters:
            self._wake_waiters(channel.data_waiters)
        return None

    def _do_push_at(self, process: Process, effect: tuple, horizon: float):
        channel = effect[1]
        if channel.full:
            self._block(process, effect, (channel,), space=True)
            return _SUSPEND
        if process.was_backpressured:
            if channel.last_pop_time > process.local_time:
                process.local_time = channel.last_pop_time
            process.was_backpressured = False
        push_time = process.local_time
        if self.timed:
            at_time = float(effect[3])
            if at_time > push_time:
                push_time = at_time
        queue = channel.queue
        queue.append((push_time + channel.latency, effect[2]))
        channel.total_pushed += 1
        if len(queue) > channel.max_occupancy:
            channel.max_occupancy = len(queue)
        if channel.data_waiters:
            self._wake_waiters(channel.data_waiters)
        return None

    def _do_pop(self, process: Process, effect: tuple, horizon: float):
        channel = effect[1]
        queue = channel.queue
        if not queue:
            self._block(process, effect, (channel,), space=False)
            return _SUSPEND
        ready, token = queue.popleft()
        channel.total_popped += 1
        local = process.local_time
        if ready > local:
            channel.last_pop_time = ready
            if self.timed:
                process.local_time = ready
        else:
            channel.last_pop_time = local
        if channel.space_waiters:
            self._wake_waiters(channel.space_waiters)
        return token

    def _do_peek(self, process: Process, effect: tuple, horizon: float):
        channel = effect[1]
        if not channel.queue:
            self._block(process, effect, (channel,), space=False)
            return _SUSPEND
        ready, token = channel.queue[0]
        if self.timed and ready > process.local_time:
            process.local_time = ready
        return token

    def _do_pop_any(self, process: Process, effect: tuple, horizon: float):
        channels = effect[1]
        best_index = -1
        best_ready = None
        for index, channel in enumerate(channels):
            queue = channel.queue
            if not queue:
                continue
            head = queue[0][0]
            if best_ready is None or head < best_ready:
                best_ready = head
                best_index = index
        if best_index < 0:
            self._block(process, ("pop_any", list(channels)), list(channels), space=False)
            return _SUSPEND
        channel = channels[best_index]
        ready, token = channel.pop(process.local_time)
        if self.timed and ready > process.local_time:
            process.local_time = ready
        if channel.space_waiters:
            self._wake_waiters(channel.space_waiters)
        return (best_index, token)

    def _do_hbm(self, process: Process, effect: tuple, horizon: float):
        """Issue an off-chip request.

        The issuing process's clock advances only to the bandwidth-scheduled
        finish time (requests pipeline through the access latency); the full
        completion time is returned so load executors can stamp the fetched
        data with it (via the ``push_at`` effect).
        """
        nbytes = effect[1]
        is_write = effect[2] if len(effect) > 2 else False
        address = effect[3] if len(effect) > 3 else 0
        return self._hbm_access(process, nbytes, is_write, address)

    def _hbm_access(self, process: Process, nbytes: int, is_write: bool,
                    address: int) -> float:
        """Issue one off-chip request and advance the issuer's clock."""
        request_time = process.local_time
        if isinstance(self.hbm, BankedHBM):
            completion = self.hbm.access(request_time, nbytes, address=address,
                                         is_write=is_write)
        else:
            completion = self.hbm.access(request_time, nbytes, is_write=is_write)
        if self.timed:
            issue_done = self.hbm.issue_done(completion)
            if issue_done > process.local_time:
                process.local_time = issue_done
        else:
            completion = request_time
        self.metrics.record_offchip(process.name, nbytes, request_time, is_write=is_write)
        return completion

    def _do_time(self, process: Process, effect: tuple, horizon: float):
        return process.local_time

    # -- batched effect implementations --------------------------------------------------
    # Each batched handler services a run of scalar-equivalent operations in one
    # engine round-trip.  Equivalence with the scalar effects requires replaying
    # the scalar scheduler behaviour exactly: block at the same element a scalar
    # sequence would block at (storing the remainder for retry), and re-check the
    # time_slack horizon at every point the scalar loop would (i.e. after any
    # operation that advanced the process clock), suspending the remainder when
    # it is overrun.

    def _do_push_all(self, process: Process, effect: tuple, horizon: float):
        # ("push_all", channels, token): broadcast one token
        return self._push_run(process, effect[1], (effect[2],), 0, None, horizon, None)

    def _do_push_many(self, process: Process, effect: tuple, horizon: float):
        # ("push_many", channels, tokens): broadcast a run (tokens outer)
        return self._push_run(process, effect[1], effect[2], 0, None, horizon, None)

    def _do_push_many_at(self, process: Process, effect: tuple, horizon: float):
        # ("push_many_at", channels, tokens, at_time)
        return self._push_run(process, effect[1], effect[2], 0, effect[3], horizon, None)

    def _do_push_run(self, process: Process, effect: tuple, horizon: float):
        # internal resume: ("push_run", channels, tokens, k, at_time, final)
        return self._push_run(process, effect[1], effect[2], effect[3], effect[4],
                              horizon, effect[5])

    def _do_tick_push_all(self, process: Process, effect: tuple, horizon: float):
        # ("tick_push_all", cycles, channels, token): advance the clock, then
        # broadcast — one round-trip for the scalar tick-then-push pair.
        if self.timed:
            process.local_time += float(effect[1])
            if process.local_time > horizon:
                # the scalar sequence would be rescheduled between the tick and
                # the push: park the push for the next turn
                process.pending_effect = ("push_run", effect[2], (effect[3],), 0, None, None)
                self._enqueue(process)
                return _SUSPEND
        return self._push_run(process, effect[2], (effect[3],), 0, None, horizon, None)

    def _do_tick_push_many(self, process: Process, effect: tuple, horizon: float):
        # ("tick_push_many", cycles, channels, tokens)
        if self.timed:
            process.local_time += float(effect[1])
            if process.local_time > horizon:
                process.pending_effect = ("push_run", effect[2], effect[3], 0, None, None)
                self._enqueue(process)
                return _SUSPEND
        return self._push_run(process, effect[2], effect[3], 0, None, horizon, None)

    def _do_hbm_push(self, process: Process, effect: tuple, horizon: float):
        # ("hbm_push", nbytes, is_write, address, channels, tokens): issue the
        # off-chip request, then push the tokens stamped with its completion
        # time (the scalar hbm-then-push_many_at pair); returns the completion.
        completion = self._hbm_access(process, effect[1], effect[2], effect[3])
        if self.timed and process.local_time > horizon:
            process.pending_effect = ("push_run", effect[4], effect[5], 0,
                                      completion, completion)
            self._enqueue(process)
            return _SUSPEND
        return self._push_run(process, effect[4], effect[5], 0, completion,
                              horizon, completion)

    def _push_run(self, process: Process, channels: Sequence[Channel],
                  tokens: Sequence, k: int, at_time: Optional[float], horizon: float,
                  final):
        """Service a run of pushes; ``final`` is the result once the run completes."""
        nchan = len(channels)
        if nchan == 1:
            # fast path: nearly every push run targets a single channel, whose
            # attributes are loop-invariant (no pops can interleave mid-run)
            channel = channels[0]
            queue = channel.queue
            capacity = channel.capacity
            latency = channel.latency
            timed = self.timed
            ntok = len(tokens)
            while k < ntok:
                if capacity is not None and len(queue) >= capacity:
                    if len(queue) > channel.max_occupancy:
                        channel.max_occupancy = len(queue)
                    self._block(process, ("push_run", channels, tokens, k, at_time, final),
                                (channel,), space=True)
                    return _SUSPEND
                bumped = process.was_backpressured
                if bumped:
                    if channel.last_pop_time > process.local_time:
                        process.local_time = channel.last_pop_time
                    process.was_backpressured = False
                push_time = process.local_time
                if at_time is not None and timed and at_time > push_time:
                    push_time = at_time
                queue.append((push_time + latency, tokens[k]))
                channel.total_pushed += 1
                k += 1
                if channel.data_waiters:
                    self._wake_waiters(channel.data_waiters)
                # only a backpressure bump can move the clock inside a push run,
                # so this is the only point the scalar loop's horizon check fires
                if bumped and k < ntok and process.local_time > horizon:
                    if len(queue) > channel.max_occupancy:
                        channel.max_occupancy = len(queue)
                    process.pending_effect = ("push_run", channels, tokens, k,
                                              at_time, final)
                    self._enqueue(process)
                    return _SUSPEND
            if len(queue) > channel.max_occupancy:
                channel.max_occupancy = len(queue)
            return final

        total = len(tokens) * nchan
        timed = self.timed
        while k < total:
            channel = channels[k % nchan]
            if channel.capacity is not None and len(channel.queue) >= channel.capacity:
                self._block(process, ("push_run", channels, tokens, k, at_time, final),
                            (channel,), space=True)
                return _SUSPEND
            bumped = process.was_backpressured
            if bumped:
                if channel.last_pop_time > process.local_time:
                    process.local_time = channel.last_pop_time
                process.was_backpressured = False
            push_time = process.local_time
            if at_time is not None and timed and at_time > push_time:
                push_time = at_time
            queue = channel.queue
            queue.append((push_time + channel.latency, tokens[k // nchan]))
            channel.total_pushed += 1
            if len(queue) > channel.max_occupancy:
                channel.max_occupancy = len(queue)
            if channel.data_waiters:
                self._wake_waiters(channel.data_waiters)
            k += 1
            # only a backpressure bump can move the clock inside a push run, so
            # this is the only point the scalar loop's horizon check could fire
            if bumped and k < total and process.local_time > horizon:
                process.pending_effect = ("push_run", channels, tokens, k, at_time, final)
                self._enqueue(process)
                return _SUSPEND
        return final

    def _do_pop_each(self, process: Process, effect: tuple, horizon: float):
        # ("pop_each", channels): one token from every channel, in order
        return self._pop_each(process, effect[1], 0, [], horizon)

    def _do_pop_each_run(self, process: Process, effect: tuple, horizon: float):
        # internal resume: ("pop_each_run", channels, index, collected)
        return self._pop_each(process, effect[1], effect[2], effect[3], horizon)

    def _pop_each(self, process: Process, channels: Sequence[Channel], index: int,
                  collected: list, horizon: float):
        timed = self.timed
        n = len(channels)
        while index < n:
            channel = channels[index]
            if not channel.queue:
                self._block(process, ("pop_each_run", channels, index, collected),
                            (channel,), space=False)
                return _SUSPEND
            ready, token = channel.queue.popleft()
            channel.total_popped += 1
            local = process.local_time
            if ready > local:
                channel.last_pop_time = ready
                if timed:
                    process.local_time = ready
            else:
                channel.last_pop_time = local
            if channel.space_waiters:
                self._wake_waiters(channel.space_waiters)
            collected.append(token)
            index += 1
            if index < n and process.local_time > horizon:
                process.pending_effect = ("pop_each_run", channels, index, collected)
                self._enqueue(process)
                return _SUSPEND
        return collected

    def _do_pop_run(self, process: Process, effect: tuple, horizon: float):
        # ("pop_run", channel, limit): up to `limit` immediately available tokens.
        # Returns a partial run at the horizon — the consumer re-yields and the
        # top-of-loop check reschedules, exactly like a scalar pop sequence.
        channel = effect[1]
        queue = channel.queue
        if not queue:
            self._block(process, effect, (channel,), space=False)
            return _SUSPEND
        limit = effect[2]
        timed = self.timed
        tokens = []
        while queue and len(tokens) < limit:
            ready, token = queue.popleft()
            channel.total_popped += 1
            local = process.local_time
            if ready > local:
                channel.last_pop_time = ready
                if timed:
                    process.local_time = ready
            else:
                channel.last_pop_time = local
            if channel.space_waiters:
                self._wake_waiters(channel.space_waiters)
            tokens.append(token)
            if process.local_time > horizon:
                break
        return tokens

    # -- blocking / wake-up ------------------------------------------------------------------
    def _block(self, process: Process, effect: tuple, channels: Sequence[Channel],
               space: bool) -> None:
        process.pending_effect = effect
        process.state = ProcessState.BLOCKED
        process.blocked_on = list(channels)
        if space:
            process.was_backpressured = True
            for channel in channels:
                waiters = channel.space_waiters
                if process not in waiters:
                    waiters.append(process)
        else:
            for channel in channels:
                waiters = channel.data_waiters
                if process not in waiters:
                    waiters.append(process)

    def _wake_waiters(self, waiters: List[Process]) -> None:
        """Wake every process registered on ``waiters`` (a channel's list)."""
        pending = waiters[:]
        waiters.clear()
        blocked_state = ProcessState.BLOCKED
        for process in pending:
            if process.state is blocked_state:
                process.state = ProcessState.RUNNABLE
                process.blocked_on = []
                self._enqueue(process)

    #: effect kind -> handler(engine, process, effect, horizon), returning the
    #: effect result or _SUSPEND when the process parked.  Plain functions, not
    #: bound methods, so an engine holds no reference to itself.
    _HANDLERS = {
        "push": _do_push,
        "push_at": _do_push_at,
        "push_all": _do_push_all,
        "push_many": _do_push_many,
        "push_many_at": _do_push_many_at,
        "push_run": _do_push_run,       # internal resume of batched pushes
        "tick_push_all": _do_tick_push_all,
        "tick_push_many": _do_tick_push_many,
        "hbm_push": _do_hbm_push,
        "pop": _do_pop,
        "pop_any": _do_pop_any,
        "pop_each": _do_pop_each,
        "pop_each_run": _do_pop_each_run,  # internal resume of pop_each
        "pop_run": _do_pop_run,
        "peek": _do_peek,
        "hbm": _do_hbm,
        "time": _do_time,
    }
