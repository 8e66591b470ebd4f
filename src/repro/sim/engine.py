"""The discrete-event engine driving SPMD generator programs.

Design
------
Each rank's program is a Python generator.  The engine keeps a global event
heap ordered by ``(time, sequence)``; sequence numbers make ties — and
therefore FIFO resource reservation and the whole simulation — fully
deterministic.  When a task is runnable the engine steps its generator,
interpreting the yielded :mod:`~repro.sim.ops` objects, until the task
blocks (on handles, an elapse, a barrier, or sub-tasks) or finishes.

A *task* is either a rank's main program (task id = the rank number) or a
sub-generator spawned with ``ctx.parallel`` (task id = ``(rank, k)``).
Sub-tasks share their rank's node, so their transfers contend for the same
ports and links: on a one-port machine "parallel" communication phases
serialize automatically; on a multi-port machine they genuinely overlap.

Message transport is store-and-forward over the e-cube route.  Every hop of
an ``m``-word message takes ``t_s + t_w·m`` and holds, for its duration, the
hop's directional channel plus (one-port model) the endpoints' send/recv
engagements — see :class:`~repro.sim.ports.ContentionTracker`.  A blocking
send returns when the *first* hop completes (the sender's port is free);
delivery happens when the last hop completes.  Receives are eagerly
buffered: a message may arrive before its receive is posted.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from itertools import starmap
from types import GeneratorType
from typing import Any, Callable, Generator

import numpy as np

from repro.errors import (
    DeadlockError,
    LinkFailedError,
    LivelockError,
    SimulationError,
)
from repro.sim.faults import FaultState, LinkTimeline
from repro.sim.machine import MachineConfig, RoutingMode
from repro.sim.message import (
    CORRUPT_VERDICT,
    PING_TAG,
    Message,
    copy_payload,
    message_crc,
    payload_words,
)
from repro.sim.ops import (
    FALLBACK,
    TIMED_OUT,
    BarrierOp,
    CollectivePhaseOp,
    ElapseOp,
    ExchangeOp,
    Handle,
    ParallelOp,
    RecvOp,
    SendOp,
    ShiftPhaseOp,
    WaitOp,
)
from repro.sim.ports import ContentionTracker
from repro.sim.superstep import (
    superstep_ineligibility_reason,
    try_advance_collective,
    try_advance_superstep,
)
from repro.sim.process import ANY_SOURCE, ANY_TAG, ProcessContext
from repro.sim.tracing import NetworkStats, RankStats, RunResult, TraceRecord
from repro.topology.routing import RouteCache

__all__ = ["Engine", "run_spmd"]

ProgramFactory = Callable[[ProcessContext], Generator]

Task = Any  # int (main program of a rank) or tuple (rank, k) for sub-tasks

# Event kinds, interned as small ints: events are (time, seq, kind, payload)
# tuples and the sequence number already breaks every tie, so the kind is
# never compared — integers keep the tuples small and the dispatch cheap.
_RESUME = 0
_HOP_READY = 1
_HOP_DONE = 2
_RECV_TIMEOUT = 3
_NODE_FAIL = 4
# The three steps of a resident shift phase's engine-run round, one event
# each exactly where the generator loop would be resumed: multiply, exchange
# (once the multiply's compute time has elapsed), park again (once the four
# handles are done).
_SHIFT_MULTIPLY = 5
_SHIFT_EXCHANGE = 6
_SHIFT_REPARK = 7
#: an event of a traced hop table's tail (see _resolve): sent to its replay
_TABLE = 8

#: how a tracing window's release is counted (see _drain_events)
_BESIDE = "per-hop tracing: traffic beside a parked phase"

#: the send handle of every ack and NACK a destination node injects: born
#: complete, so no hop ever completes or notifies it, and no task waits on it
_NODE_SEND = Handle("send", -1)
_NODE_SEND.complete(0.0)


def task_rank(task: Task) -> int:
    return task[0] if task.__class__ is tuple else task


class _Waiter:
    """A blocked task: which handles it needs and how to build the resume value."""

    __slots__ = ("handles", "mode", "op")

    def __init__(
        self, handles: list[Handle], mode: str, op: ShiftPhaseOp | None = None
    ):
        self.handles = handles
        self.mode = mode  # "wait" | "recv" | "send" | "shift" | "exchange"
        #: "shift" only: the resident phase whose engine-run round these
        #: handles ([send A, recv A, send B, recv B]) belong to
        self.op = op

    def describe(self) -> str:
        kinds = ", ".join(
            f"{h.detail or h.kind}#{h.handle_id}"
            for h in self.handles
            if not h.done
        )
        return f"waiting on {kinds or 'nothing?'}"


def _resume_value(mode: str, handles: list[Handle]) -> list:
    """What a task waiting on ``handles`` resumes with: a wait every value,
    an exchange its payloads in ``recvs`` order.  (A blocking send or recv
    resumes with its one handle's value: a send's is ``None``.)"""
    if mode == "wait":
        return [h.value for h in handles]
    return [h.value for h in handles if h.kind == "recv"]


class _ParallelWait:
    """A parent task waiting for its spawned sub-tasks."""

    __slots__ = ("remaining", "values", "latest")

    def __init__(self, children: list[Task]):
        self.remaining = set(children)
        #: the children's return values, by slot
        self.values: list[Any] = [None] * len(children)
        self.latest = 0.0


class Engine:
    """One simulation run over a fixed machine configuration.

    Parameters
    ----------
    config:
        The machine (topology, costs, port model, optional fault plan).
    trace:
        Record per-interval :class:`TraceRecord` activity.
    max_events:
        Watchdog: abort with :class:`~repro.errors.LivelockError` after
        this many engine events (``None`` = unbounded).  Converts infinite
        retransmission/ping-pong loops into a diagnosable error.  A receive
        timer whose receive completed first is no event: it is dropped
        uncounted.
    max_virtual_time:
        Watchdog: abort once an event's time passes this virtual time.  A
        dropped stale timer never does, so a finished run is not reported
        as a livelock for the timers it left behind.
    superstep:
        Let the engine run declared phases itself, bit-identically (see
        :mod:`repro.sim.superstep`).  On by default: in closed form unless
        faults, scenarios, tracing or a ``max_virtual_time`` watchdog need
        every hop as an event (tracing: but an aligned shift phase's and a
        lifted pair's, which the hop table emits in event order), and then
        (faults excepted) round by round without the program's generator
        loop (a grouped or broadcast shift phase: with it).  ``False``
        forces that loop for every phase (the conformance suite's reference
        runs).
    timing_only:
        Skip local matrix products: ``ctx.local_matmuls`` charges the same
        flops/time but returns a zero-cost read-only view instead of the
        real product, one per block shape (``zero_views``).  Simulated
        times, stats and digests are unchanged (they depend only on shapes
        and sizes); per-rank results are meaningless.  This is what lets
        simulation-backed region maps reach p = 2^15 and beyond.
    """

    def __init__(
        self,
        config: MachineConfig,
        *,
        trace: bool = False,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
        superstep: bool = True,
        timing_only: bool = False,
    ):
        self.config = config
        self.tracker = ContentionTracker(config)
        self.routes = RouteCache(config.cube)
        self.trace_enabled = trace
        # Hot-path caches: plain floats/bools beat attribute chains in the
        # per-hop inner loops (see _start_hop/_finish_hop).
        self._t_s = config.params.t_s
        self._t_w = config.params.t_w
        self._cut_through = config.routing is RoutingMode.CUT_THROUGH
        self._store_forward = config.routing is RoutingMode.STORE_AND_FORWARD
        self.trace: list[TraceRecord] = []
        self.faults: FaultState | None = (
            FaultState(config.faults) if config.faults is not None else None
        )
        # A uniform (or absent) scenario is normalized to None so every
        # scenario check below reduces to one `is None` test and the
        # healthy fast paths — and their golden traces — stay untouched.
        scen = config.scenario
        self.scenario = (
            None if scen is None or scen.is_uniform else scen
        )
        self._adaptive = (
            self.scenario is not None and self.scenario.adaptive_routing
        )
        #: one-word hop cost of a nominal link (a route search's default)
        self._nominal_hop = self._t_s + self._t_w
        #: the run's link state, read by every hop (None: a healthy
        #: machine, every link nominal and alive forever)
        self.timeline: LinkTimeline | None = (
            None if self.faults is None and self.scenario is None
            else LinkTimeline(config)
        )
        if max_events is not None and max_events <= 0:
            raise SimulationError(f"max_events must be positive, got {max_events}")
        if max_virtual_time is not None and max_virtual_time <= 0:
            raise SimulationError(
                f"max_virtual_time must be positive, got {max_virtual_time}"
            )
        self.max_events = max_events
        self.max_virtual_time = max_virtual_time
        self.superstep_enabled = superstep
        self.timing_only = timing_only
        #: ``ctx.local_matmuls``'s timing-only products: one read-only zero
        #: view per block shape
        self.zero_views: dict[tuple[int, int], np.ndarray] = {}
        # Declared phases parked for a closed form: task -> (op, park time),
        # the op a ShiftPhaseOp at a round boundary or a CollectivePhaseOp.
        # (A shift phase in the middle of an engine-run round sits in
        # _blocked instead, as a "shift" waiter.)  Resolved once the event
        # queues drain, or released onto the event path; see _resolve.
        # The hazard map names the resources (one-port: ports, else
        # channels) a parked phase will reserve, with the virtual time of
        # its first reservation there — the lowest of several, but one at
        # or below now may replace any: every later hop starts after it.  A
        # foreign hop reserving one *after* that threshold would invert the
        # event path's FIFO reservation order, so _start_hop releases the
        # parked set (at their earlier park times) before reserving; one at
        # or before it folds into the closed form's seeds.
        self._parked: dict[Task, tuple[Any, float]] = {}
        self._hazards: dict = {}
        #: a parked lift was released: later lifts run on the event path
        self._lifts_released = False
        self._one_port = config.port_model.name == "ONE_PORT"
        #: why no phase of this run may park (None: phases park)
        self._ineligible = superstep_ineligibility_reason(self)
        #: a traced run whose aligned shift phases and lifted pairs still
        #: park for the hop table, each in a *tracing window*: the time its
        #: ranks parked at, until whatever is observable next (an event
        #: later than that or not a resume, a schedule, a message id, a
        #: compute record) releases them at it first — exactly where the
        #: event path issues them
        self._traced_parks = self._ineligible == "per-hop tracing" and not self._cut_through
        self._window: float | None = None
        #: the traced hop table whose tail is on the event queue (_TABLE)
        self._table: Generator | None = None
        #: whether the engine may run a main program's declared rounds itself
        self._resident = superstep and self.faults is None

        n = config.num_nodes
        self.stats: dict[int, RankStats] = {r: RankStats(r) for r in range(n)}
        self.results: dict[int, Any] = {}
        self.done: set[int] = set()
        self.failed: set[int] = set()
        self._messages_dropped = 0
        self._hops_rerouted = 0
        self._retransmissions = 0
        self._corruption_events = 0
        self._integrity_rejects = 0
        self._events_processed = 0
        # Rank-rounds of shift phases by the path that ran them (see
        # RunResult): diagnostics like _events_processed, in no digest.
        self._shift_rounds_event = 0
        self._shift_rounds_closed_form = 0
        # Declared collective phases (one per rank per CollectivePhaseOp)
        # by how they were answered, and why the refused ones were.
        self._coll_closed_form = 0
        self._coll_event = 0
        self._refusals: defaultdict[str, int] = defaultdict(int)
        # Read-only tables the collective planner builds the first time a
        # phase needs them: (kind, subcube, ..., block layout) -> a
        # schedule's step table and stacked-data-plane indices.
        self._coll_tables: dict[tuple, tuple] = {}
        # Ids and the event sequence number (_seq) are plain integers bumped
        # in place: the next value can be read without being consumed.
        self._msg_seq = 0
        # Handle ids are per engine (like message ids): the "#k" in a
        # DeadlockError must not depend on what ran earlier in the process.
        self._handle_seq = 0

        self._task_time: dict[Task, float] = {r: 0.0 for r in range(n)}
        self._gens: dict[Task, Generator] = {}
        self._blocked: dict[Task, _Waiter] = {}
        self._parallel: dict[Task, _ParallelWait] = {}
        self._parent_of: dict[Task, tuple[Task, int]] = {}  # child -> (parent, slot)
        self._child_seq = 1
        self._active_task: Task | None = None

        self._mailbox: dict[int, list[tuple[float, Message]]] = {r: [] for r in range(n)}
        self._pending_recvs: dict[int, list[tuple[int, int, Handle]]] = {
            r: [] for r in range(n)
        }
        self._barrier_waiting: dict[int, float] = {}
        self._phase_marks: dict[int, list[tuple[str, float]]] = {r: [] for r in range(n)}

        self._events: list[tuple[float, int, int, tuple]] = []
        # Same-time fast lane: events scheduled *at* the clock's current
        # time bypass the heap (see _schedule for the ordering argument).
        self._ready: deque[tuple[float, int, int, tuple]] = deque()
        self._now = 0.0
        self._seq = 0
        self._ran = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, program: ProgramFactory) -> RunResult:
        """Execute ``program`` on every rank and return the result."""
        if self._ran:
            raise SimulationError("an Engine can only run once; build a new one")
        self._ran = True
        # Fail-stop events go on the heap first so a failure at time t wins
        # the tie against any same-time resume of that rank.
        if self.faults is not None:
            for nf in self.faults.plan.node_failures:
                self._schedule(nf.time, _NODE_FAIL, (nf.node,))
        for rank in range(self.config.num_nodes):
            ctx = ProcessContext(rank, self)
            gen = program(ctx)
            if not hasattr(gen, "send"):
                raise SimulationError(
                    "program must be a generator function (did you forget yield?)"
                )
            self._gens[rank] = gen
            self._schedule(0.0, _RESUME, (rank, None))

        while True:
            self._drain_events()
            if not self._parked:
                break
            self._resolve()
        self._table = None  # (its frame holds this engine)

        unfinished = [
            r for r in range(self.config.num_nodes)
            if r not in self.done and r not in self.failed
        ]
        if unfinished:
            blocked: dict[int, list[str]] = {}
            for task, waiter in self._blocked.items():
                blocked.setdefault(task_rank(task), []).append(
                    f"task {task}: {waiter.describe()}"
                )
            for task, pw in self._parallel.items():
                blocked.setdefault(task_rank(task), []).append(
                    f"task {task}: waiting on sub-tasks "
                    f"{sorted(map(str, pw.remaining))}"
                )
            for rank, t in self._barrier_waiting.items():
                blocked.setdefault(rank, []).append(
                    f"waiting at barrier since t={t}"
                )
            for rank in unfinished:
                if rank not in blocked:
                    blocked[rank] = ["not scheduled (engine bug?)"]
            raise DeadlockError(blocked, failed_ranks=tuple(sorted(self.failed)))

        total = max(
            (self.stats[r].finish_time for r in range(self.config.num_nodes)),
            default=0.0,
        )
        return RunResult(
            total_time=total,
            results=dict(self.results),
            stats=dict(self.stats),
            phase_times=self._aggregate_phases(),
            trace=list(self.trace),
            network=NetworkStats(
                channels_used=self.tracker.channels_used(),
                total_channel_busy=self.tracker.total_channel_busy(),
                max_channel_busy=self.tracker.max_channel_busy(),
                messages_dropped=self._messages_dropped,
                hops_rerouted=self._hops_rerouted,
                retransmissions=self._retransmissions,
                corruption_events=self._corruption_events,
                integrity_rejects=self._integrity_rejects,
            ),
            failed_ranks=tuple(sorted(self.failed)),
            events_processed=self._events_processed,
            shift_rounds_event=self._shift_rounds_event,
            shift_rounds_closed_form=self._shift_rounds_closed_form,
            collective_phases_closed_form=self._coll_closed_form,
            collective_phases_event=self._coll_event,
            closed_form_refusals=dict(self._refusals),
            route_searches=self.routes.searches,
            route_nodes_settled=self.routes.nodes_settled,
            adaptive_detours=self.routes.detours,
        )

    def _drain_events(self) -> None:
        """Process events until both queues are empty (the classic loop)."""
        ready = self._ready
        max_events = self.max_events
        max_virtual_time = self.max_virtual_time
        events = self._events
        heappop = heapq.heappop
        while True:
            # The fast lane holds same-time events in FIFO (= sequence)
            # order; the full (time, seq) comparison picks exactly the
            # event heappop would have.
            if not (events or ready):
                return
            if ready and (not events or ready[0] < events[0]):
                time, seq, kind, payload = ready.popleft()
            else:
                time, seq, kind, payload = heappop(events)
            if self._window is not None and (
                time > self._window
                or kind != _RESUME and (kind != _TABLE or payload[0] != _RESUME)
            ):
                # A tracing window closes: put the event back (the parked
                # ranks' events sort before it) and release them.  (A table
                # event that resumes a task is a resume: the table releases
                # the window before a message id, see superstep._replay.)
                heapq.heappush(events, (time, seq, kind, payload))
                self._release(_BESIDE)
                continue
            if kind == _RECV_TIMEOUT and payload[1].done:
                # A stale timer: its receive completed first.  Nothing
                # happens at its time, so it is no event: it neither moves
                # the clock nor counts against the watchdogs.
                continue
            self._now = time
            self._events_processed += 1
            if max_events is not None and self._events_processed > max_events:
                raise LivelockError(
                    "max_events", self._events_processed, time,
                    self._progress_snapshot(),
                )
            if max_virtual_time is not None and time > max_virtual_time:
                raise LivelockError(
                    "max_virtual_time", self._events_processed, time,
                    self._progress_snapshot(),
                )
            if kind == _RESUME:
                task, value = payload
                self._step(task, time, value)
            elif kind == _HOP_READY:
                (msg, hop_index, handle) = payload
                self._start_hop(msg, hop_index, handle, time)
            elif kind == _HOP_DONE:
                (msg, hop_index, handle) = payload
                self._finish_hop(msg, hop_index, handle, time)
            elif kind == _SHIFT_MULTIPLY:
                (task, op) = payload
                if not self._shift_multiply(task, op, time):
                    self._step(task, time, FALLBACK)
            elif kind == _SHIFT_EXCHANGE:
                (task, op) = payload
                self._shift_exchange(task, op, time)
            elif kind == _SHIFT_REPARK:
                (task, waiter) = payload
                self._shift_repark(task, waiter, time)
            elif kind == _TABLE:
                self._table.send(payload)
            elif kind == _RECV_TIMEOUT:
                (rank, handle) = payload
                self._expire_recv(rank, handle, time)
            elif kind == _NODE_FAIL:
                (node,) = payload
                self._fail_node(node, time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

    def _resolve(self) -> None:
        """Advance the parked phases in closed form, or release them.

        Called only with drained event queues.  On success every task of
        the phase (a shift phase's mid-round waiters too) resumes at its
        phase-exit time with the phase's value.  Shift and collective
        phases parked side by side have no combined closed form: they,
        like a refused phase, are released onto the event path.  A traced
        hop table has planned up to the first rank leaving its phase: the
        rest of it goes on the event queue, and each rank resumes inline as
        it leaves (see ``superstep._replay``).
        """
        parked = self._parked
        self._window = None  # (it held: the queues drained)
        kinds = {op.__class__ for op, _at in parked.values()}
        if len(kinds) > 1:
            self._release("shift phase parked beside a collective")
            return
        if ShiftPhaseOp in kinds:
            outcome = try_advance_superstep(self, parked)
        else:
            outcome = try_advance_collective(self, parked)
        if outcome.__class__ is str:  # the planner's refusal
            self._release(outcome)
            return
        self._parked = {}
        self._hazards.clear()
        if outcome.__class__ is tuple:  # (a traced hop table, its values)
            self._table, outcome = outcome
            self._table.send(outcome)
            return
        for task, (finish, value) in outcome.items():
            self._schedule(finish, _RESUME, (task, value))

    def _release(self, reason: str) -> None:
        """Release every parked task onto the event path at its park time:
        shift phases for one engine-run round (a grouped or broadcast one
        with FALLBACK, for all of its rounds), then collectives with
        FALLBACK, each kind in park order; what that sends to the event path
        is counted under ``reason``.  A tracing window's parks (nothing came
        between) are answered at once, in park order, as the event path
        answers them when they are declared."""
        parked = self._parked
        self._parked = {}
        self._hazards.clear()
        self._window = None
        fallback = []
        refused = 0  # collective phases and shift rank-rounds
        for task, (op, at) in parked.items():
            if op.__class__ is not ShiftPhaseOp:
                self._coll_event += 1
                refused += 1
                if op.lift is not None and not op.lift.ran:
                    self._lifts_released = True
                if self._ineligible is None:
                    fallback.append((task, at))
                else:  # traced: answered now, at the park time (the window held)
                    self._step(task, at, FALLBACK)
            elif op.dims is not None or op.row is not None:
                fallback.append((task, at))
                self._shift_rounds_event += op.steps
                refused += op.steps
            elif op.align is None:
                refused += 1
                self._schedule(at, _SHIFT_MULTIPLY, (task, op))
            else:  # issued now, at the park time (the hazards or the window held)
                if self._ineligible is None:
                    refused += 1
                    self._shift_rounds_event += 1
                else:  # traced: every round by events (_shift_multiply counts them)
                    refused += op.steps
                self._shift_exchange(task, op, at)
        self._refusals[reason] += refused
        for task, at in fallback:
            self._schedule(at, _RESUME, (task, FALLBACK))

    def note_retransmission(self) -> None:
        """Count one reliable-layer retransmission in the run's stats."""
        self._retransmissions += 1

    def mark_phase(self, rank: int, name: str) -> None:
        when = self.time_of(rank)
        self._phase_marks[rank].append((name, when))

    def time_of(self, rank: int) -> float:
        """Current virtual time as seen by the caller (active task aware)."""
        task = self._active_task
        if task.__class__ is tuple and task[0] == rank:
            return self._task_time[task]
        return self._task_time[rank]  # (an active main program is its rank)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _schedule(self, time: float, kind: int, payload: tuple) -> None:
        """Enqueue an event, batching same-time events past the heap.

        Events landing exactly at the clock's current time go to the FIFO
        fast lane instead of the heap.  This preserves the heap's order:
        every event already *in* the heap at the current time carries a
        smaller sequence number than any new same-time arrival (sequence
        numbers are globally increasing, and heap entries at this time
        were necessarily pushed earlier), and the fast lane itself is FIFO
        by construction — so same-time events still fire in sequence
        order, and the main loop's ``ready[0] < events[0]`` comparison
        restores the global (time, seq) order across the two queues.  The
        guard on ``ready[0][0]`` keeps the lane homogeneous in time even
        if the clock ever revisits an earlier instant (barrier releases
        can schedule into the past of the *event* clock).
        """
        if self._window is not None:
            self._release(_BESIDE)
        ready = self._ready
        seq = self._seq
        self._seq = seq + 1
        if time == self._now and (not ready or ready[0][0] == time):
            ready.append((time, seq, kind, payload))
        else:
            heapq.heappush(self._events, (time, seq, kind, payload))

    def _step(
        self, task: Task, time: float, value: Any, throw: BaseException | None = None
    ) -> None:
        """Advance a task's generator from ``time``, feeding ``value`` in.

        ``throw`` delivers a failed child's exception into the generator
        instead of a value (see :meth:`_fail_subtask`).
        """
        # task_rank, inlined and computed once: every send and recv this
        # step issues is handed the same rank.
        rank = task[0] if task.__class__ is tuple else task
        if rank in self.failed or task not in self._gens:
            return  # fail-stopped (or halted) rank: no further progress
        # (every task in _gens has a clock: ranks from the start, sub-tasks
        # from their spawn)
        if time > self._task_time[task]:
            self._task_time[task] = time
        gen = self._gens[task]
        prev_active = self._active_task
        self._active_task = task
        try:
            while True:
                try:
                    if throw is not None:
                        pending, throw = throw, None
                        op = gen.throw(pending)
                    else:
                        op = gen.send(value)
                except StopIteration as stop:
                    self._task_finished(task, stop.value)
                    return
                except Exception as exc:
                    if isinstance(task, tuple) and task in self._parent_of:
                        # A sub-task failed: cancel its siblings and throw
                        # the exception into the parent, where the program
                        # can catch it (e.g. CommTimeoutError handling).
                        self._fail_subtask(task, exc)
                        return
                    # Annotate program failures with the failing task so a
                    # bug on one of hundreds of ranks is findable.
                    exc.args = (
                        f"[rank {rank}, task {task}, t={self._task_time[task]:g}] "
                        + (str(exc.args[0]) if exc.args else ""),
                    ) + tuple(exc.args[1:])
                    raise
                value = None
                now = self._task_time[task]

                # Exact-class dispatch: ops are final (never subclassed), and
                # `__class__ is` beats isinstance() on this hottest of loops.
                cls = op.__class__
                if cls is SendOp:
                    handle = self._issue_send(
                        task, rank, op.dst, op.data, op.tag, op.nwords, now,
                        op.ack_tag, op.crc,
                    )
                    if op.blocking:
                        if handle.done:
                            value = None
                            continue
                        self._blocked[task] = _Waiter([handle], "send")
                        return
                    value = handle
                    continue

                if cls is RecvOp:
                    handle = self._issue_recv(
                        task, rank, op.src, op.tag, now, op.timeout
                    )
                    if op.blocking:
                        if handle.done:
                            value = handle.value
                            continue
                        self._blocked[task] = _Waiter([handle], "recv")
                        return
                    value = handle
                    continue

                if cls is WaitOp:
                    if self._await(task, op.handles, "wait"):
                        return
                    value = _resume_value("wait", op.handles)
                    continue

                if cls is ElapseOp:
                    self.stats[rank].flops += op.flops
                    self.stats[rank].compute_time += op.duration
                    if op.duration > 0:
                        if self.trace_enabled:
                            if self._window is not None:
                                self._release(_BESIDE)
                            self.trace.append(
                                TraceRecord(
                                    "compute", now, now + op.duration, rank,
                                    {"flops": op.flops},
                                )
                            )
                        self._schedule(now + op.duration, _RESUME, (task, None))
                        return
                    continue

                if cls is ParallelOp:
                    children = []
                    for slot, sub in enumerate(op.generators):
                        if sub.__class__ is not GeneratorType and not hasattr(sub, "send"):
                            raise SimulationError(
                                "ctx.parallel expects generators (call the "
                                "generator functions when passing them)"
                            )
                        child: Task = (rank, self._child_seq)
                        self._child_seq += 1
                        self._gens[child] = sub
                        self._task_time[child] = now
                        self._parent_of[child] = (task, slot)
                        children.append(child)
                    if not children:
                        value = []
                        continue
                    self._parallel[task] = _ParallelWait(children)
                    for child in children:
                        self._schedule(now, _RESUME, (child, None))
                    return

                if cls is ShiftPhaseOp:
                    if self._traced_parks and op.align is not None and task.__class__ is not tuple:
                        # traced: parked in a tracing window (see __init__)
                        self._parked[task] = (op, now)
                        self._window = now
                        return
                    refused = self._ineligible
                    if refused is None and task.__class__ is tuple:
                        refused = "ctx.parallel sub-task"
                    if refused is not None:
                        # every round of the phase runs as events
                        self._refusals[refused] += op.steps
                        if (
                            not self._resident or task.__class__ is tuple
                            or op.dims is not None or op.row is not None
                        ):
                            # The generator loop, the definition of a round:
                            # superstep=False asks for it, a fault plan can
                            # corrupt a multiply or halt a rank mid-round, a
                            # ctx.parallel sub-task shares its node's ports
                            # with siblings, and no engine-run round moves
                            # groups or broadcasts.  Answered once — zero
                            # extra events.
                            self._shift_rounds_event += op.steps
                            value = FALLBACK
                            continue
                    if op.align is not None and (
                        self._cut_through or refused is not None
                    ):
                        # No hop table will plan this alignment (it plans
                        # store-and-forward hops only): it starts now, and
                        # counts as a rank-round run by events.
                        if refused is None:
                            self._shift_rounds_event += 1
                            self._refusals["aligned shift: cut-through routing"] += 1
                        self._shift_exchange(task, op, now)
                    elif refused is None:
                        self._park_shift(task, op, now)
                    # No closed form will come (scenario, tracing, watchdog):
                    # nothing to park for, the first round starts now.
                    elif not self._shift_multiply(task, op, now):
                        value = FALLBACK
                        continue
                    return

                if cls is CollectivePhaseOp:
                    refused = self._ineligible
                    if refused is None and task.__class__ is tuple:
                        # (its fused parent already declared the pair)
                        refused = "ctx.parallel sub-task"
                    lift = op.lift
                    if lift is not None and not lift.ran:
                        if (
                            self._traced_parks and not self._lifts_released
                            and task.__class__ is not tuple
                        ):
                            # traced: parked in a tracing window (see __init__)
                            self._parked[task] = (op, now)
                            self._window = now
                            return
                        if (
                            refused is not None
                            or self._cut_through
                            or self._lifts_released
                        ):
                            # The program runs its lift (lift_loop) and
                            # declares the pair again, the lift done: that
                            # is the phase.  No hop table plans cut-through
                            # hops (one port: the second declaration is
                            # refused under this name); once a parked lift
                            # was released, ranks of its phase run on the
                            # event path, and a late one parked now could
                            # be released into their past.
                            if refused is None and self._cut_through and not self._one_port:
                                self._coll_event += 1
                                self._refusals["lifted pair: cut-through routing"] += 1
                            value = FALLBACK
                            continue
                    elif lift is not None and refused is None and self._one_port:
                        # A pair whose lift ran on the event path: the
                        # lift's forwarders may still hold its ports.
                        refused = (
                            "lifted pair: cut-through routing"
                            if self._cut_through
                            else "lifted pair: lift run by events"
                        )
                    if refused is not None:
                        self._coll_event += 1
                        self._refusals[refused] += 1
                        # Answer immediately — the schedule runs its
                        # ordinary rounds; zero extra events, identical
                        # trace.
                        value = FALLBACK
                        continue
                    self._parked[task] = (op, now)
                    # Unlike a shift phase (whose first reservation comes
                    # after the step-0 multiply), a collective's first
                    # sends can start at the park time itself, so the
                    # hazard threshold sits just *below* the park time:
                    # the strict `>` in _start_hop then forces a release
                    # even for a same-time foreign hop, whose reservation
                    # order against the phase's would otherwise be
                    # ambiguous.
                    thr = math.nextafter(now, -math.inf)
                    hazards = self._hazards
                    for spec in () if self._one_port else op.specs:
                        node = spec.members[spec.rank]
                        for dim in spec.free_dims:
                            hazards[(node, node ^ (1 << dim))] = thr
                    if self._one_port:
                        hazards[rank] = thr
                    for dst, _data, _tag in () if lift is None else lift.sends:
                        # the lift's hops: from the park time on, anywhere
                        for hop in () if dst == rank else self.routes.healthy(rank, dst):
                            hazards[hop[0] if self._one_port else hop] = thr
                    return

                if cls is ExchangeOp:
                    if not self._resident or task.__class__ is tuple:
                        # exchange_round runs it, as a shift phase's loop
                        # runs on the same runs: superstep=False, a fault
                        # plan, a ctx.parallel sub-task.
                        value = FALLBACK
                        continue
                    # exchange_round, run here: every send in order, then
                    # every receive, one wait.
                    handles = [
                        self._issue_send(
                            task, rank, dst, data, tag,
                            data.size if data.__class__ is np.ndarray else payload_words(data),
                            now,
                        )
                        for dst, data, tag in op.sends
                    ]
                    handles += [
                        self._issue_recv(task, rank, src, tag, now) for src, tag in op.recvs
                    ]
                    if self._await(task, handles, "exchange"):
                        return
                    value = _resume_value("exchange", handles)
                    continue

                if cls is BarrierOp:
                    if isinstance(task, tuple):
                        raise SimulationError(
                            "barrier may only be called from a rank's main program"
                        )
                    self._barrier_waiting[rank] = now
                    self._maybe_release_barrier()
                    return

                raise SimulationError(
                    f"task {task} yielded unsupported object {op!r}; programs "
                    "must yield via ProcessContext helpers"
                )
        finally:
            self._active_task = prev_active

    def _task_finished(self, task: Task, value: Any) -> None:
        finish = self._task_time[task]
        del self._gens[task]
        if task.__class__ is tuple:
            parent, slot = self._parent_of.pop(task)
            pw = self._parallel[parent]
            pw.remaining.discard(task)
            pw.values[slot] = value
            if finish > pw.latest:
                pw.latest = finish
            if not pw.remaining:
                del self._parallel[parent]
                resume_at = self._task_time[parent]
                if pw.latest > resume_at:
                    resume_at = pw.latest
                self._schedule(resume_at, _RESUME, (parent, pw.values))
            return
        self.results[task] = value
        self.done.add(task)
        self.stats[task].finish_time = finish
        # A rank finishing shrinks the barrier quorum; re-check waiters.
        self._maybe_release_barrier()

    def _maybe_release_barrier(self) -> None:
        """Release the barrier once every still-active rank has arrived.

        Finished and fail-stopped ranks are excluded from the quorum, so a
        node failure cannot hang everyone else at a barrier forever.
        """
        if not self._barrier_waiting:
            return
        n_active = self.config.num_nodes - len(self.done) - len(self.failed)
        if len(self._barrier_waiting) >= n_active:
            release = max(self._barrier_waiting.values())
            for r in self._barrier_waiting:
                self._schedule(release, _RESUME, (r, None))
            self._barrier_waiting = {}

    def _fail_subtask(self, child: Task, exc: BaseException) -> None:
        """A ``ctx.parallel`` child raised: cancel its siblings and rethrow
        the exception inside the parent generator."""
        parent, _slot = self._parent_of.pop(child)
        self._cancel_task(child)
        pw = self._parallel.pop(parent, None)
        if pw is not None:
            pw.remaining.discard(child)
            for sibling in list(pw.remaining):
                self._cancel_task(sibling)
        at = max(
            self._task_time.get(parent, 0.0), self._task_time.get(child, 0.0)
        )
        self._step(parent, at, None, throw=exc)

    def _cancel_task(self, task: Task) -> None:
        """Abandon a task (and, recursively, its children) without a result."""
        gen = self._gens.pop(task, None)
        if gen is not None:
            try:
                gen.close()
            except Exception:  # pragma: no cover - close() misbehaving
                pass
        self._blocked.pop(task, None)
        self._parent_of.pop(task, None)
        pw = self._parallel.pop(task, None)
        if pw is not None:
            for sub in list(pw.remaining):
                self._cancel_task(sub)
        rank = task_rank(task)
        self._pending_recvs[rank] = [
            entry for entry in self._pending_recvs[rank] if entry[2].task != task
        ]

    # -- resident shift phases ---------------------------------------------
    #
    # The engine's own definition of a shift round.  It issues the same
    # sends and receives at the same virtual times, and schedules one event
    # wherever the generator loop in ProcessContext.shift_phase is resumed,
    # so the two interleave identically with any foreign traffic; what it
    # saves is the generator frames, context wrappers and op objects.  Only
    # main programs hold resident phases, so ``task`` is the rank throughout.

    def _park_shift(self, task: Task, op: ShiftPhaseOp, now: float) -> None:
        """Park ``task`` at a round boundary or before its alignment, with
        hazards (see _start_hop) on the resources it will reserve."""
        self._parked[task] = (op, now)
        if op.dims is not None or op.row is not None:
            # Grouped or broadcast: any of its channels (one-port: its port)
            # from the park time on, as a collective's.
            thr = math.nextafter(now, -math.inf)
            self._hazard(
                [((task, task ^ (1 << k)), thr) for k in range(self.config.dimension)]
            )
        elif op.align is not None:
            # Any resource of the two routes from the park time on, and this
            # rank's round channels a multiply later: thresholds just below
            # those, as a collective's.
            thr = math.nextafter(now, -math.inf)
            hops = [(hop, thr) for dst in op.align[::2] if dst != task
                    for hop in self.routes.healthy(task, dst)]
            if op.steps > 1:
                late = math.nextafter(now + self._multiply_time(op), -math.inf)
                hops += [((task, op.a_to), late), ((task, op.b_to), late)]
            self._hazard(hops)
        elif op.steps > 1:  # the next round's, after its multiply
            self._arm(task, op, now + self._multiply_time(op))

    def _multiply_time(self, op: ShiftPhaseOp) -> float:
        ar, ac = op.a_block.shape
        return self.config.params.flops_time(2.0 * ar * ac * op.b_block.shape[1])

    def _hazard(self, hops) -> bool:
        """Put each ``(hop, threshold)`` pair's threshold on the hop's
        resource (see __init__), the lower kept; whether one was lowered."""
        hazards, lowered = self._hazards, False
        for hop, thr in hops:
            key = hop[0] if self._one_port else hop
            if key not in hazards or hazards[key] > thr:
                hazards[key] = thr
                lowered = True
        return lowered

    def _arm(self, task: Task, op: ShiftPhaseOp, thr: float) -> None:
        """Hazards on ``task``'s next round, sending from ``thr`` on; if that
        lowers them, on the next rounds of the neighbours it sends to that
        are blocked mid-round, too (see _arm_blocked)."""
        if self._hazard((((task, op.a_to), thr), ((task, op.b_to), thr))):
            for dst in (op.a_to, op.b_to):
                waiter = self._blocked.get(dst)
                if waiter is not None and waiter.mode == "shift":
                    self._arm_blocked(dst, waiter)

    def _arm_blocked(self, task: Task, waiter: _Waiter) -> None:
        """Hazards on ``task``'s next round, blocked mid-round on a parked or
        armed sender (whose block a closed form may deliver): a hop and a
        multiply after the sender's, a multiply after its clock at least."""
        op = waiter.op
        if op.align is not None or op.steps <= 2:  # (no closed form mid-alignment)
            return
        hazards, clock = self._hazards, self._task_time[task]
        for i, frm, m in (
            (1, op.a_from, op.a_block.size), (3, op.b_from, op.b_block.size)
        ):
            thr = hazards.get(frm if self._one_port else (frm, task))
            if thr is not None and not waiter.handles[i].done:
                thr = max(clock, thr + self._t_s + self._t_w * m)
                self._arm(task, op, thr + self._multiply_time(op))

    def _shift_multiply(self, task: Task, op: ShiftPhaseOp, time: float) -> bool:
        """Round step 1: ``C (+)= A @ B``, then the exchange once the
        multiply's compute time has elapsed.  ``False``, nothing done, when
        blocks of different shapes met on this rank: the caller hands the
        phase back, and local_matmul reports it exactly as the loop would."""
        a, b, c = op.a_block, op.b_block, op.c_block
        m, k = a.shape
        n = b.shape[1]
        if k != b.shape[0] or (c is not None and c.shape != (m, n)):
            return False
        self._task_time[task] = time
        self._shift_rounds_event += 1
        flops = 2.0 * m * k * n
        duration = self.config.params.flops_time(flops)
        if not self.timing_only:
            if c is None:
                op.c_block = a @ b
            else:
                c += a @ b
        elif c is None:
            op.c_block = np.broadcast_to(0.0, (m, n))
        st = self.stats[task]
        st.flops += flops
        st.compute_time += duration
        if duration > 0:
            if self.trace_enabled:
                if self._window is not None:
                    self._release(_BESIDE)
                self.trace.append(
                    TraceRecord(
                        "compute", time, time + duration, task, {"flops": flops}
                    )
                )
            self._schedule(time + duration, _SHIFT_EXCHANGE, (task, op))
        else:
            self._shift_exchange(task, op, time)
        return True

    def _shift_exchange(self, task: Task, op: ShiftPhaseOp, time: float) -> None:
        """Round step 2: inject A then B and post both receives (to and from
        the alignment's peers while it is pending) — or, after the last
        multiply, resume the program with the final blocks."""
        peers = op.align
        if peers is None:
            if op.steps == 1:
                self._step(task, time, (op.a_block, op.b_block, op.c_block))
                return
            peers = (op.a_to, op.a_from, op.b_to, op.b_from)
        self._task_time[task] = time
        a, b = op.a_block, op.b_block
        handles = [
            self._issue_send(task, task, peers[0], a, op.tag_a, a.size, time),
            self._issue_recv(task, task, peers[1], op.tag_a, time),
            self._issue_send(task, task, peers[2], b, op.tag_b, b.size, time),
            self._issue_recv(task, task, peers[3], op.tag_b, time),
        ]
        if not self._await(task, handles, "shift", op):
            # self-shifts complete on the spot
            self._shift_repark(task, _Waiter(handles, "shift", op), time)
        elif self._ineligible is None:
            self._arm_blocked(task, self._blocked[task])

    def _shift_repark(self, task: Task, waiter: _Waiter, time: float) -> None:
        """Round step 3: take the received blocks and park at the next round
        boundary — on a run that never parks, go on to the next multiply."""
        self._task_time[task] = time
        op, handles = waiter.op, waiter.handles
        op.a_block, op.b_block = handles[1].value, handles[3].value
        if op.align is None:
            op.steps -= 1
        op.align = None
        if self._ineligible is None:
            self._park_shift(task, op, time)
        elif not self._shift_multiply(task, op, time):
            self._step(task, time, FALLBACK)

    def _await(
        self, task: Task, handles: list[Handle], mode: str, op: Any = None
    ) -> bool:
        """Block ``task`` until ``handles`` complete (``_notify`` resumes it
        as ``mode`` says); ``False``, nothing blocked, when they all have."""
        for h in handles:
            if not h.done:
                self._blocked[task] = _Waiter(handles, mode, op)
                return True
        return False

    # -- faults ----------------------------------------------------------

    def _fail_node(self, node: int, time: float) -> None:
        """Fail-stop ``node``: halt all of its tasks, free its state."""
        if node in self.failed or node in self.done:
            return
        self.failed.add(node)
        self.stats[node].finish_time = time
        if self.trace_enabled:
            self.trace.append(
                TraceRecord("node_fail", time, time, node, {})
            )
        for task in [t for t in self._gens if task_rank(t) == node]:
            self._gens[task].close()
            del self._gens[task]
        for task in [t for t in self._blocked if task_rank(t) == node]:
            del self._blocked[task]
        for task in [t for t in self._parallel if task_rank(t) == node]:
            del self._parallel[task]
        for child in [c for c in self._parent_of if task_rank(c) == node]:
            del self._parent_of[child]
        self._pending_recvs[node] = []
        self._barrier_waiting.pop(node, None)
        self._maybe_release_barrier()

    def _lose_message(
        self, msg: Message, node: int, start: float, end: float, reason: str,
    ) -> None:
        """Mark ``msg`` lost; it will never be delivered or forwarded."""
        msg.dropped = True
        self._messages_dropped += 1
        if self.trace_enabled:
            self.trace.append(
                TraceRecord(
                    "drop", start, end, node,
                    {"msg": msg.msg_id, "src": msg.src, "dst": msg.dst,
                     "reason": reason},
                )
            )

    def _maybe_corrupt(
        self, msg: Message, win, u: int, v: int, start: float, end: float
    ) -> None:
        """Roll the plan's link corruptions for this hop and, when one
        fires, bit-flip a private copy of the payload (the sender's buffer
        and any shared references stay intact; downstream hops and the
        final delivery carry the perturbed copy)."""
        fs = self.faults
        events = fs.roll_corruptions(win, u, v)
        if not events:
            return
        data = copy_payload(msg.data)
        flipped = 0
        for lc in events:
            flipped += fs.corrupt_payload(data, lc.model, lc.flips)
        if not flipped:
            return  # no float64 words to perturb (control message)
        msg.data = data
        self._corruption_events += 1
        if self.trace_enabled:
            self.trace.append(
                TraceRecord(
                    "corrupt", start, end, u,
                    {"msg": msg.msg_id, "src": msg.src, "dst": msg.dst,
                     "words": flipped, "where": "link"},
                )
            )

    def apply_node_corruption(self, rank: int, out: np.ndarray) -> None:
        """Apply a due :class:`~repro.sim.faults.NodeCorruption` to a
        local-compute output block (called by ``ctx.local_matmul``)."""
        fs = self.faults
        if fs is None or not fs.plan.node_corruptions:
            return
        now = self.time_of(rank)
        nc = fs.take_node_corruption(rank, now)
        if nc is None:
            return
        flipped = fs.corrupt_payload(out, nc.model, nc.flips)
        if not flipped:
            return
        self._corruption_events += 1
        if self.trace_enabled:
            self.trace.append(
                TraceRecord(
                    "corrupt", now, now, rank,
                    {"words": flipped, "where": "compute"},
                )
            )

    def _progress_snapshot(self) -> dict[int, str]:
        """Per-rank progress descriptions for livelock diagnostics."""
        snap: dict[int, str] = {}
        for rank in range(self.config.num_nodes):
            if rank in self.done:
                continue
            if rank in self.failed:
                snap[rank] = (
                    f"fail-stopped at t={self.stats[rank].finish_time:g}"
                )
                continue
            parts = []
            for task, waiter in self._blocked.items():
                if task_rank(task) == rank:
                    parts.append(f"task {task}: {waiter.describe()}")
            for task, pw in self._parallel.items():
                if task_rank(task) == rank:
                    parts.append(
                        f"task {task}: waiting on sub-tasks "
                        f"{sorted(map(str, pw.remaining))}"
                    )
            if rank in self._barrier_waiting:
                parts.append(
                    f"at barrier since t={self._barrier_waiting[rank]:g}"
                )
            latest = max(
                (t for tk, t in self._task_time.items() if task_rank(tk) == rank),
                default=0.0,
            )
            state = "; ".join(parts) if parts else "runnable"
            snap[rank] = f"t={latest:g}, {state}"
        return snap

    # -- sends -----------------------------------------------------------

    def _issue_send(
        self, task: Task, rank: int, dst: int, data: Any, tag: int,
        nwords: int, now: float, ack_tag: int | None = None,
        crc: int | None = None,
    ) -> Handle:
        if self._window is not None:
            self._release(_BESIDE)
        handle = Handle("send", task, self._handle_seq, dst, tag)
        self._handle_seq += 1
        if self.config.copy_on_send:
            data = data.copy() if data.__class__ is np.ndarray else copy_payload(data)
        msg = Message(
            rank, dst, tag, data, nwords, now, self._msg_seq, ack_tag, crc,
        )
        self._msg_seq += 1
        st = self.stats[rank]
        st.messages_sent += 1
        st.words_sent += nwords

        if dst == rank:
            handle.complete(now)
            self._deliver(msg, now)
            return handle

        self._inject(msg, handle, now)
        return handle

    def _inject(self, msg: Message, handle: Handle, now: float) -> None:
        """Route ``msg`` and schedule its first hop (fault-aware)."""
        fs = self.faults
        if fs is None and not self._adaptive:
            # Healthy machine (or oblivious routing): routes never change,
            # so every transfer on the same (src, dst) pair shares one
            # immutable cached hop tuple.
            msg.hops = self.routes.healthy(msg.src, msg.dst)
            self._schedule(now, _HOP_READY, (msg, 0, handle))
            return
        tl = self.timeline
        win = tl.window
        if not win.lo <= now < win.hi:
            win = tl.at(now)
        if fs is not None and msg.dst in win.dead_nodes:
            # Destination already fail-stopped: the message is lost in
            # the void but the send itself costs the sender nothing extra.
            if not handle.done:
                handle.complete(now)
            self._lose_message(msg, msg.src, now, now, "dest-failed")
            return
        if self._adaptive and (fs is None or fs.plan.reroute):
            # Heterogeneous costs: route around expensive (and dead)
            # links.  A route holds for the window's whole route index,
            # so the cheapest one is memoized per (src, dst, route).
            hops: list | tuple = self.routes.cheapest(
                msg.src, msg.dst, win.weights, self._nominal_hop, win.route,
                None if fs is None else win.alive,
            )
        else:
            hops = self.routes.healthy(msg.src, msg.dst)
            # Strict mode keeps the native route; _start_hop raises
            # LinkFailedError when the message reaches the dead link.
            # A window that kills nothing has nothing to check.
            if win.dead and fs.plan.reroute and not all(
                starmap(win.alive, hops)
            ):
                hops = self.routes.detour(msg.src, msg.dst, win.alive, win.route)
                self._hops_rerouted += 1
                if self.trace_enabled:
                    self.trace.append(
                        TraceRecord(
                            "reroute", now, now, msg.src,
                            {"msg": msg.msg_id, "dead": None,
                             "via": hops[0][1] if hops else msg.dst,
                             "src": msg.src, "dst": msg.dst},
                        )
                    )
        if fs is not None:
            # Fault mode may splice a detour tail in-place mid-flight
            # (_start_hop), so each message needs its own mutable copy.
            hops = list(hops)
        msg.hops = hops
        self._schedule(now, _HOP_READY, (msg, 0, handle))

    def _start_hop(
        self, msg: Message, hop_index: int, handle: Handle, time: float
    ) -> None:
        if msg.dropped:  # pragma: no cover - defensive (CT pipelining)
            return
        hops = msg.hops
        u, v = hops[hop_index]
        if self._parked:
            thr = self._hazards.get(u if self._one_port else (u, v))
            if thr is not None and time > thr:
                # A foreign hop (e.g. a straggler's multi-hop skew
                # traffic) is about to reserve a resource a parked phase
                # would already be using by now.  The event path would
                # have ordered the parked ranks' reservations first, so
                # reserving here would invert the FIFO order: release the
                # parked ranks onto the event path at their park times,
                # then retry this hop after their reservations have gone
                # in first.
                self._release("foreign hop at a parked rank's resources")
                self._schedule(time, _HOP_READY, (msg, hop_index, handle))
                return
        fs = self.faults
        tl = self.timeline
        if tl is None:
            header_ts = self._t_s
            duration = self._t_s + self._t_w * msg.nwords
            ts_f = tw_f = 1.0
        else:
            win = tl.window
            if not win.lo <= time < win.hi:
                win = tl.at(time)
            if win.dead:
                dead_nodes = win.dead_nodes
                if u in dead_nodes or msg.dst in dead_nodes:
                    # The node holding the message died (the message dies
                    # too), or nobody is left to receive it.
                    self._lose_message(
                        msg, u, time, time,
                        "node-failed" if u in dead_nodes else "dest-failed",
                    )
                    if hop_index == 0 and not handle.done:
                        handle.complete(time)
                        self._notify(handle.task)
                    return
                if (u, v) in win.dead_channels or v in dead_nodes:
                    if not fs.plan.reroute:
                        raise LinkFailedError(u, v, time)
                    # Detour: recompute the surviving route from here
                    # (cached per route index — the dead-link set is
                    # constant within one).  Raises UnreachableError when
                    # the surviving graph disconnects.
                    if self._adaptive:
                        tail = self.routes.cheapest(
                            u, msg.dst, win.weights, self._nominal_hop,
                            win.route, win.alive,
                        )
                    else:
                        tail = self.routes.detour(
                            u, msg.dst, win.alive, win.route
                        )
                    dead = (u, v)
                    hops[hop_index:] = tail
                    u, v = hops[hop_index]
                    self._hops_rerouted += 1
                    if self.trace_enabled:
                        self.trace.append(
                            TraceRecord(
                                "reroute", time, time, dead[0],
                                {"msg": msg.msg_id, "dead": dead, "via": v,
                                 "src": msg.src, "dst": msg.dst},
                            )
                        )
            factors = win.factors
            ts_f, tw_f = factors[u, v] if (u, v) in factors else (1.0, 1.0)
            header_ts = ts_f * self._t_s
            duration = header_ts + self._t_w * tw_f * msg.nwords
        start = self.tracker.reserve_hop(u, v, time, duration)
        if self.trace_enabled:
            info = {"to": v, "msg": msg.msg_id, "words": msg.nwords,
                    "src": msg.src, "dst": msg.dst}
            if ts_f != 1.0 or tw_f != 1.0:
                info["slow"] = (ts_f, tw_f)
            self.trace.append(
                TraceRecord("hop", start, start + duration, u, info)
            )
        if fs is not None:
            # The hop may have queued past a window edge: losses are rolled
            # where it transmits (start), not where it became ready (time).
            if not win.lo <= start < win.hi:
                win = tl.at(start)
            if (win.drop_p or win.base_drop_p) and fs.roll_drop(win, u, v):
                self._lose_message(msg, v, start, start + duration, "drop")
            elif win.corruptions:
                self._maybe_corrupt(msg, win, u, v, start, start + duration)
        if (
            self._cut_through
            and hop_index < len(hops) - 1
            and not msg.dropped
        ):
            # Virtual cut-through: the next link sees the header one
            # (possibly degraded) start-up time after this hop starts
            # transmitting; the payload streams behind it.
            self._schedule(
                start + header_ts, _HOP_READY, (msg, hop_index + 1, handle)
            )
        self._schedule(start + duration, _HOP_DONE, (msg, hop_index, handle))

    def _finish_hop(
        self, msg: Message, hop_index: int, handle: Handle, time: float
    ) -> None:
        last = hop_index == len(msg.hops) - 1
        if (
            last
            and not msg.dropped
            and msg.dst in self._parked
            and ((op := self._parked[msg.dst][0]).__class__ is CollectivePhaseOp
                 or op.align is not None or op.dims is not None
                 or op.row is not None)
        ):
            # A message that was already in flight when its destination
            # parked on a collective is about to land in the parked rank's
            # mailbox.  The collective resolver refuses on any queued
            # delivery, and the ensuing release would resume the rank at
            # its (earlier) park time, where its next recv would find this
            # *future* delivery already queued and continue on a stale
            # clock.  Same remedy as the reservation hazards in
            # _start_hop: release every parked rank onto the event path
            # first (their resumes sort before this time), then redo the
            # delivery.  An alignment yet to be issued and a grouped or
            # broadcast shift phase are held alike; round boundaries are
            # exempt: blocks queued at a parked rank are part of the
            # frontier the shift closed form advances.
            self._release("delivery to a parked rank")
            self._schedule(time, _HOP_DONE, (msg, hop_index, handle))
            return
        if hop_index == 0 and not handle.done:
            handle.done = True  # (a send's value stays None)
            handle.completion_time = time
            self._notify(handle.task)
        if msg.dropped:
            return
        if last:
            self._deliver(msg, time)
        elif self._store_forward:
            self._schedule(time, _HOP_READY, (msg, hop_index + 1, handle))

    # -- receives ----------------------------------------------------------

    def _issue_recv(
        self, task: Task, rank: int, src_f: int, tag_f: int, now: float,
        timeout: float | None = None,
    ) -> Handle:
        handle = Handle("recv", task, self._handle_seq, src_f, tag_f)
        self._handle_seq += 1
        box = self._mailbox[rank]
        for i, (arrival, msg) in enumerate(box):
            # A receive matches the oldest queued message whose source and
            # tag it names (or accepts as ANY_SOURCE / ANY_TAG).
            if (src_f == ANY_SOURCE or src_f == msg.src) and (
                tag_f == ANY_TAG or tag_f == msg.tag
            ):
                box.pop(i)
                st = self.stats[rank]
                st.messages_received += 1
                st.words_received += msg.nwords
                handle.done = True
                handle.completion_time = arrival if arrival > now else now
                handle.value = msg.data
                return handle
        self._pending_recvs[rank].append((src_f, tag_f, handle))
        if timeout is not None:
            self._schedule(now + timeout, _RECV_TIMEOUT, (rank, handle))
        return handle

    def _expire_recv(self, rank: int, handle: Handle, time: float) -> None:
        # (a receive that completed first never gets here: _drain_events
        # drops its timer)
        pending = self._pending_recvs.get(rank, [])
        for i, (_src, _tag, h) in enumerate(pending):
            if h is handle:
                pending.pop(i)
                break
        handle.complete(time, TIMED_OUT)
        self._notify(handle.task)

    def _deliver(self, msg: Message, time: float) -> None:
        gone = msg.dst in self.failed
        if self.faults is not None and not gone:
            tl = self.timeline
            win = tl.window
            if not win.lo <= time < win.hi:
                win = tl.at(time)
            gone = msg.dst in win.dead_nodes
        if gone:
            # The destination fail-stopped while the message was on its
            # final hop: nobody is home to consume or acknowledge it.  The
            # sender's timeout/retransmission path observes the silence.
            self._lose_message(msg, msg.dst, time, time, "dest-failed")
            return
        if msg.crc is not None and msg.src != msg.dst:
            # End-to-end integrity: the destination node re-computes the
            # canonical checksum the sender attached.  A mismatch means the
            # payload was perturbed in flight — the copy is discarded
            # (never delivered to the application) and a NACK rides back
            # on the ack channel so the sender retransmits immediately
            # instead of waiting out its ack timeout.
            actual = message_crc(msg.src, msg.dst, msg.tag, msg.nwords, msg.data)
            if actual != msg.crc:
                self._integrity_rejects += 1
                if self.trace_enabled:
                    self.trace.append(
                        TraceRecord(
                            "nack", time, time, msg.dst,
                            {"msg": msg.msg_id, "src": msg.src, "tag": msg.tag},
                        )
                    )
                if msg.ack_tag is not None:
                    nack = Message(
                        src=msg.dst, dst=msg.src, tag=msg.ack_tag,
                        data=CORRUPT_VERDICT, nwords=0, send_time=time,
                        msg_id=self._msg_seq,
                    )
                    self._msg_seq += 1
                    self.stats[msg.dst].messages_sent += 1
                    self._inject(nack, _NODE_SEND, time)
                return
        if msg.ack_tag is not None and msg.src != msg.dst:
            # Delivery acknowledgement: the receiving *node* confirms
            # arrival immediately (hardware-style reliable delivery), so a
            # retransmitted duplicate re-triggers an ack even when the
            # application never posts another matching receive.  The ack
            # itself rides the network — it contends, can be dropped, and
            # then the sender's retransmission tries again.
            ack = Message(
                src=msg.dst, dst=msg.src, tag=msg.ack_tag, data=None,
                nwords=0, send_time=time, msg_id=self._msg_seq,
            )
            self._msg_seq += 1
            self.stats[msg.dst].messages_sent += 1
            self._inject(ack, _NODE_SEND, time)
            if msg.tag == PING_TAG:
                # A liveness probe ends with the node's acknowledgement:
                # no program receives it, so it must not wait in a mailbox
                # that every later receive at this rank would scan.
                return
        pending = self._pending_recvs[msg.dst]
        msg_src, msg_tag = msg.src, msg.tag
        for i, (src_f, tag_f, handle) in enumerate(pending):
            # A delivery completes the oldest posted receive whose source
            # and tag filters accept it (ANY_SOURCE / ANY_TAG accept all).
            if (src_f == ANY_SOURCE or src_f == msg_src) and (
                tag_f == ANY_TAG or tag_f == msg_tag
            ):
                pending.pop(i)
                st = self.stats[msg.dst]
                st.messages_received += 1
                st.words_received += msg.nwords
                handle.done = True
                handle.completion_time = time
                handle.value = msg.data
                self._notify(handle.task)
                return
        self._mailbox[msg.dst].append((time, msg))

    # -- wake-ups ----------------------------------------------------------

    def _notify(self, task: Task) -> None:
        """A handle owned by ``task`` completed; resume the task if unblocked."""
        waiter = self._blocked.get(task)
        if waiter is None:
            return
        resume_at = self._task_time[task]
        for h in waiter.handles:
            if not h.done:
                return
            if h.completion_time > resume_at:
                resume_at = h.completion_time
        del self._blocked[task]
        mode, handles = waiter.mode, waiter.handles
        if mode == "shift":
            self._schedule(resume_at, _SHIFT_REPARK, (task, waiter))
        elif mode == "recv" or mode == "send":
            self._schedule(resume_at, _RESUME, (task, handles[0].value))
        else:
            self._schedule(resume_at, _RESUME, (task, _resume_value(mode, handles)))

    # -- phases --------------------------------------------------------------

    def _aggregate_phases(self) -> dict[str, tuple[float, float]]:
        # A phase runs from its mark to the rank's next mark (its finish
        # after the last).  The comparisons are inline, picking what
        # min(lo, start) and max(hi, end) would: no call per mark.
        out: dict[str, tuple[float, float]] = {}
        stats = self.stats
        for rank, marks in self._phase_marks.items():
            if not marks:
                continue
            name, start = marks[0]
            for following in marks[1:] + [(None, stats[rank].finish_time)]:
                end = following[1]
                if name in out:
                    lo, hi = out[name]
                    out[name] = (start if start < lo else lo, end if end > hi else hi)
                else:
                    out[name] = (start, end)
                name, start = following
        return out


def run_spmd(
    config: MachineConfig,
    program: ProgramFactory,
    *,
    trace: bool = False,
    max_events: int | None = None,
    max_virtual_time: float | None = None,
    superstep: bool = True,
    timing_only: bool = False,
) -> RunResult:
    """Run the SPMD ``program`` (one generator per rank) on ``config``.

    ``max_events`` / ``max_virtual_time`` are watchdog caps: exceeding
    either raises :class:`~repro.errors.LivelockError` with a per-rank
    progress snapshot instead of spinning forever.  ``superstep`` and
    ``timing_only`` select the engine's fast paths — see :class:`Engine`
    for their (bit-identical) semantics.
    """
    return Engine(
        config, trace=trace, max_events=max_events,
        max_virtual_time=max_virtual_time, superstep=superstep,
        timing_only=timing_only,
    ).run(program)
