"""Operation objects yielded by SPMD programs to the engine.

User programs never build these directly — the :class:`~repro.sim.process.
ProcessContext` helpers do — but they are the complete vocabulary the engine
understands.  Every communication call in a program is ultimately a
``yield`` of one of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "Handle",
    "SendOp",
    "RecvOp",
    "WaitOp",
    "ElapseOp",
    "BarrierOp",
    "ParallelOp",
    "ShiftPhaseOp",
    "CollectiveSpec",
    "Lift",
    "CollectivePhaseOp",
    "ExchangeOp",
    "TIMED_OUT",
    "FALLBACK",
]


class _TimedOut:
    """Sentinel completing a timed receive whose window expired.

    ``ctx.recv(..., timeout=...)`` converts it into a
    :class:`~repro.errors.CommTimeoutError`; non-blocking receivers check
    ``handle.timed_out`` (or compare against :data:`TIMED_OUT`) instead.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TIMED_OUT>"


TIMED_OUT = _TimedOut()


class Handle:
    """Completion handle for a non-blocking operation.

    ``value`` is the received payload for receives and ``None`` for sends.
    ``completion_time`` is the virtual time at which the operation finished.
    ``task`` identifies the issuing coroutine: the plain rank number for a
    rank's main program, or a ``(rank, k)`` tuple for a sub-task spawned via
    ``ctx.parallel``; ``rank`` is the owning rank either way.
    ``handle_id`` is handed out per :class:`~repro.sim.engine.Engine`, so
    diagnostics naming it do not depend on what ran earlier in the process.
    ``peer``/``tag`` are the operation's destination (sends) or source
    filter (receives) and match tag; ``peer is None`` marks an engine
    internal handle (a node's ack) that no program ever waits on.
    """

    __slots__ = (
        "kind", "task", "rank", "handle_id", "peer", "tag",
        "done", "completion_time", "value",
    )

    def __init__(
        self,
        kind: str,
        task: Any,
        handle_id: int = 0,
        peer: int | None = None,
        tag: int | None = None,
    ):
        self.kind = kind
        self.task = task
        self.rank = task[0] if task.__class__ is tuple else task
        self.handle_id = handle_id
        self.peer = peer
        self.tag = tag
        self.done = False
        self.completion_time = 0.0
        self.value = None

    @property
    def detail(self) -> str:
        """Human-readable operation summary, e.g. "recv src=3 tag=7" —
        rendered only when a DeadlockError/LivelockError names the stuck
        operation ("" for engine-internal handles)."""
        if self.peer is None:
            return ""
        if self.kind == "send":
            return f"send dst={self.peer} tag={self.tag}"
        src = "ANY" if self.peer == -1 else self.peer
        tag = "ANY" if self.tag == -1 else self.tag
        return f"recv src={src} tag={tag}"

    def complete(self, time: float, value: Any = None) -> None:
        self.done = True
        self.completion_time = time
        self.value = value

    @property
    def timed_out(self) -> bool:
        """True iff this receive completed by its timeout expiring."""
        return self.done and self.value is TIMED_OUT

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        detail = self.detail
        extra = f" {detail}" if detail else ""
        return f"Handle(#{self.handle_id} {self.kind} task={self.task}{extra} {state})"


@dataclass(slots=True)
class SendOp:
    """Send ``data`` (``nwords`` words) to ``dst`` with ``tag``.

    ``ack_tag``, when set, requests a delivery acknowledgement: the
    destination *node* (not its program) sends a zero-word message back on
    that tag the moment the data is delivered — hardware-style reliable
    delivery, independent of when the application posts its receive.  The
    reliable-delivery layer builds its retransmission protocol on this.
    """

    dst: int
    data: Any
    tag: int
    nwords: int
    blocking: bool
    ack_tag: int | None = None
    #: canonical-bytes CRC32 verified by the destination node at delivery
    #: (end-to-end integrity; see :func:`repro.sim.message.message_crc`)
    crc: int | None = None


@dataclass(slots=True)
class RecvOp:
    """Receive a message from ``src`` (or ANY_SOURCE) with ``tag``.

    ``timeout``, when set, bounds the wait: if no matching message arrives
    within ``timeout`` time units of posting, the receive completes with
    :data:`TIMED_OUT` instead of a payload.
    """

    src: int
    tag: int
    blocking: bool
    timeout: float | None = None


@dataclass(slots=True)
class WaitOp:
    """Block until every handle in ``handles`` has completed."""

    handles: list[Handle]


@dataclass(slots=True)
class ElapseOp:
    """Advance this rank's clock by ``duration`` (local computation)."""

    duration: float
    flops: float = 0.0


@dataclass
class BarrierOp:
    """Zero-cost global synchronisation (harness convenience only).

    Algorithms under measurement never use this; it exists so test and
    benchmark harnesses can separate phases without perturbing timings.
    """


class _Fallback:
    """Sentinel the engine feeds back into a ``yield`` of a
    :class:`ShiftPhaseOp`, :class:`CollectivePhaseOp` or :class:`ExchangeOp`
    when it will not run the phase or round itself: the program runs its
    definition instead, message by message (``ProcessContext.shift_phase``'s
    loop from the op's remaining rounds, a collective's ordinary schedule,
    ``exchange_round``).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<FALLBACK>"


FALLBACK = _Fallback()


@dataclass(slots=True)
class ShiftPhaseOp:
    """A uniform shift-multiply superstep (Cannon-style inner loop).

    Semantically identical to::

        if align is not None:  # (a_dst, a_src, b_dst, b_src)
            waitall([isend(a_dst, A, tag_a), irecv(a_src, tag_a),
                     isend(b_dst, B, tag_b), irecv(b_src, tag_b)])
            A, B = received
        for left in range(steps, 0, -1):
            C = local_matmul(A, B, C)
            if left == 1: break
            waitall([isend(a_to, A, tag_a), irecv(a_from, tag_a),
                     isend(b_to, B, tag_b), irecv(b_from, tag_b)])
            A, B = received

    A *grouped* phase (``dims`` set; Ho-Johnsson-Edelman's) moves ``g``
    block pairs ``(Aˡ, Bˡ)`` by single-hop exchanges instead, and the
    peers and tags above are unused::

        for a_dim, b_dim in swaps:  # each None, or a cube dimension
            exchange A across a_dim on tag_a and B across b_dim on tag_b
        phase(phase)  # if set
        split A into g column groups and B into g row groups (chunk_slices)
        C = zeros
        for t in range(steps):
            for l in range(g): C = local_matmul(Aˡ, Bˡ, C)
            if t == steps - 1: break
            neighbor_exchange: block k of (A⁰, B⁰, A¹, B¹, ...) to and from
                rank ^ (1 << dims[t][k]) on tags[k]

    A *broadcast* phase (``row`` set: a ``repro.mpi.Comm``; Fox-Otto-Hey's)
    reaches each rank's A by a row broadcast instead of a shift, and rolls
    B on ``b_to`` / ``b_from``; ``a_to``, ``a_from``, ``align`` are unused::

        for k, root in enumerate(roots):  # one root per step
            A' = broadcast(row, A if row.rank == root else None, root, tag_a)
            C = local_matmul(A', B, C)
            if k == steps - 1: break
            (B,) = neighbor_exchange([(b_to, B, tag_b)], [(b_from, tag_b)])

    The op is *resident*: a program yields it once and the engine owns the
    phase from then on.  ``steps`` counts the rounds still to run and
    ``a_block`` / ``b_block`` / ``c_block`` are the rank's blocks at that
    round boundary (``c_block`` is ``None`` before the first multiply);
    ``align`` is the initial alignment still to run (``None`` once it has).
    The engine updates them as it completes rounds — one at a time through
    the event machinery while foreign traffic is still in flight, the rest in
    closed form from the first quiet frontier (:mod:`repro.sim.superstep`;
    an alignment with the rounds it overlaps through a hop table) — and
    resumes the generator exactly once, with the final ``(A, B, C)``.
    ``superstep=False`` runs, fault plans and ``ctx.parallel`` sub-tasks
    are answered :data:`FALLBACK` straight away, and the program runs
    the loop above from the op's state; so is a grouped or broadcast phase
    (no engine-run round moves groups or broadcasts) wherever no closed form
    will come, or a foreign hop releases it.  Either way the simulated
    times, statistics and blocks are bit-identical.
    """

    steps: int
    a_block: Any
    b_block: Any
    tag_a: int
    tag_b: int
    a_to: int | None = None
    a_from: int | None = None
    b_to: int | None = None
    b_from: int | None = None
    c_block: Any = None
    align: tuple | None = None
    # a grouped phase's (the second loop above)
    dims: tuple | None = None
    tags: tuple = ()
    swaps: tuple = ()
    phase: str | None = None
    # a broadcast phase's (the third loop above)
    row: Any = None
    roots: tuple = ()


@dataclass(frozen=True)
class CollectiveSpec:
    """One rank's view of a subcube collective it is about to run.

    ``members`` lists the participating node addresses in communicator-rank
    order and ``rank`` is this rank's position in it; ``free_dims`` are the
    hypercube dimensions the subcube spans (sorted ascending, matching
    ``Comm.free_dims``).  ``sched`` names the wire schedule the fallback
    would run ("sbt" or "rotated") — the closed form must reproduce exactly
    that schedule's hop pattern.  ``payload`` is the object the rank
    contributes (a single block, or the per-destination block list for
    alltoall/reduce-scatter); the engine only reads it, never mutates it.
    """

    # "allgather" | "alltoall" | "reduce_scatter" | "broadcast" | "reduce"
    kind: str
    sched: str  # "sbt" | "rotated"
    members: tuple
    rank: int
    free_dims: tuple
    tag: int
    payload: Any
    root: int | None = None
    op: Any = None


@dataclass(frozen=True)
class Lift:
    """A fused pair's phase 1: the blocking point-to-point moves a rank makes
    before the pair starts (3DD's and DNS's lifts off the input plane).

    ``sends`` lists ``(dst, data, tag)`` in program order and ``recvs``
    ``(src, tag, slot)``: each received block becomes the payload of the
    pair's collective in ``slot``.  ``phase`` names the phase the pair
    runs in, marked when the lift is done.  ``ran``: the lift has run on
    the event path (the pair's second declaration).  Semantically::

        for dst, data, tag in sends: send(dst, data, tag)
        for src, tag, slot in recvs: payload[slot] = recv(src, tag)
        phase(phase)
    """

    sends: tuple = ()
    recvs: tuple = ()
    phase: str | None = None
    ran: bool = False


@dataclass
class CollectivePhaseOp:
    """Declare a dimension-exchange collective phase (or a fused pair).

    Yielded by the dispatch functions in :mod:`repro.collectives` before
    they fall into their per-message rounds, and by the 3D family's fused
    "two collectives in parallel" phases (``specs`` then holds two entries,
    one per sub-collective, in ``ctx.parallel`` slot order).  A fused pair
    may carry its :class:`Lift`, which then runs first.  The engine answers
    either with the collective's return value(s) — the phase is done and
    the rank's clock already advanced, bit-identically to the event path —
    or with :data:`FALLBACK`, in which case the caller runs the lift (if
    any) and the ordinary schedule through the event path.
    """

    specs: tuple
    lift: Lift | None = None


@dataclass(slots=True)
class ExchangeOp:
    """One round of single-hop exchanges (``ProcessContext.neighbor_exchange``):
    ``sends`` lists ``(dst, data, tag)`` in program order, ``recvs`` lists
    ``(src, tag)``.  Semantically :func:`~repro.sim.process.exchange_round`:
    post every send, post every receive, wait for all of them.  The engine
    issues a main program's round itself (``superstep`` on, no fault plan)
    and answers with the received payloads in ``recvs`` order; anything
    else is answered :data:`FALLBACK`, and ``exchange_round`` runs the
    round.  It is never a declared phase.
    """

    sends: list
    recvs: list


@dataclass
class ParallelOp:
    """Run several sub-generators concurrently within this rank.

    The engine schedules each sub-generator as an independent task sharing
    the rank's node (and therefore its ports/links): on a multi-port
    machine their transfers genuinely overlap; on a one-port machine the
    port model serializes them — exactly the paper's "the two broadcasts
    can occur in parallel on a multi-port hypercube" accounting.

    The parent resumes, with the list of sub-generator return values, when
    the last sub-task finishes.
    """

    generators: list
