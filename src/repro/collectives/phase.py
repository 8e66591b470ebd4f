"""Collective phase declaration: the fast-path handshake with the engine.

Every collective dispatch function first *declares* the phase it is about
to run by yielding a :class:`~repro.sim.ops.CollectivePhaseOp`.  On a
fault-free uniform machine the engine may advance the whole phase in
closed form (see :mod:`repro.sim.superstep`) and answer with the
collective's return value; otherwise it answers
:data:`~repro.sim.ops.FALLBACK` and the schedule runs its
ordinary per-message rounds through the event path.  Both answers are
bit-identical in simulated time; the declaration itself costs nothing
(no events, no virtual time).

The 3D algorithm family additionally fuses its "two collectives in
parallel" phases through :func:`parallel_pair`, giving the engine a
single two-spec op to advance — on a multi-port machine the two subcube
collectives use disjoint channels and each admits its standalone closed
form; on a one-port machine both schedules are planned through one port
column per node.  3DD and DNS (and their Cannon hybrids) declare their
phase-1 lift with the pair (``lift=``): every rank parks before it, and
the hop table plans the multi-hop lift with the broadcasts it overlaps
(traced too: it emits their hop records in the event path's order).
On ``FALLBACK`` the program runs :func:`lift_loop`, the lift's definition,
and declares the pair again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.collectives.api import Schedule, resolve_schedule
from repro.mpi.communicator import Comm
from repro.sim.ops import FALLBACK, CollectivePhaseOp, CollectiveSpec, Lift
from repro.sim.process import ProcessContext

__all__ = [
    "make_spec",
    "attempt",
    "CollectiveCall",
    "allgather_call",
    "broadcast_call",
    "Lift",
    "lift_loop",
    "parallel_pair",
]


def make_spec(
    kind: str,
    comm: Comm,
    payload: Any,
    tag: int,
    schedule: Schedule | None,
    root: int | None = None,
    op: Any = None,
) -> CollectiveSpec | None:
    """Build this rank's phase spec, or None when declaring is pointless.

    Wrapped contexts (reliable delivery, CRC integrity, recovery) add
    protocol traffic the closed forms do not model, so only a plain
    :class:`ProcessContext` declares; everything else goes straight to the
    event path.
    """
    if type(comm.ctx) is not ProcessContext:
        return None
    sched = resolve_schedule(comm, schedule)
    return CollectiveSpec(
        kind=kind,
        sched=sched.value,
        members=comm.members,
        rank=comm.rank,
        free_dims=comm.free_dims,
        tag=tag,
        payload=payload,
        root=root,
        op=op,
    )


def attempt(spec: CollectiveSpec | None):
    """Yield the phase declaration; return the engine's verdict.

    Returns :data:`FALLBACK` when the caller must run the
    ordinary schedule (including when ``spec`` is None).
    """
    if spec is None:
        return FALLBACK
    return (yield CollectivePhaseOp((spec,)))


@dataclass
class CollectiveCall:
    """A collective invocation held un-started: its spec plus a generator
    thunk producing the equivalent event-path schedule; ``fed(payload)``
    builds the same call on another payload (a lift's received block)."""

    spec: CollectiveSpec | None
    gen: Callable[[], Any]
    fed: Callable[[Any], "CollectiveCall"] | None = None


def allgather_call(comm: Comm, block: Any, tag: int = 4) -> CollectiveCall:
    """Package an allgather over ``comm`` as a fusable :class:`CollectiveCall`."""
    from repro.collectives.allgather import allgather

    spec = None
    if comm.size > 1:
        spec = make_spec("allgather", comm, block, tag, None)
    return CollectiveCall(
        spec, lambda: allgather(comm, block, tag),
        lambda data: allgather_call(comm, data, tag),
    )


def broadcast_call(comm: Comm, data: Any, root: int = 0, tag: int = 1) -> CollectiveCall:
    """Package a broadcast over ``comm`` as a fusable :class:`CollectiveCall`."""
    from repro.collectives.broadcast import broadcast

    spec = None
    if comm.size > 1:
        spec = make_spec("broadcast", comm, data, tag, None, root=root)
    return CollectiveCall(
        spec, lambda: broadcast(comm, data, root, tag),
        lambda value: broadcast_call(comm, value, root, tag),
    )


def lift_loop(ctx: ProcessContext, lift: Lift):
    """The definition of a lift: its blocking sends in program order, then
    its blocking receives; returns the received blocks in ``recvs`` order."""
    for dst, data, tag in lift.sends:
        yield from ctx.send(dst, data, tag)
    got = []
    for src, tag, _slot in lift.recvs:
        got.append((yield from ctx.recv(src, tag)))
    return got


def parallel_pair(
    ctx: ProcessContext,
    call_a: CollectiveCall,
    call_b: CollectiveCall,
    lift: Lift | None = None,
):
    """Run two collectives concurrently, declaring them as one fused phase.

    Semantically identical to ``ctx.parallel(call_a.gen(),
    call_b.gen())``, after ``lift_loop(ctx, lift)`` has fed its received
    blocks to the calls its receives name and marked ``lift.phase``.  The
    fused declaration lets the engine advance both subcube collectives in
    closed form (the paper's "the two broadcasts can occur in parallel on a
    multi-port hypercube"; a one-port node serializes the two schedules'
    sends through its port, ``call_a``'s first — see "Fused pairs on a
    one-port machine" in :mod:`repro.sim.superstep`), and a declared lift
    with them (see "lifted pairs" there).  On ``FALLBACK`` the program runs
    the lift and declares the pair again, with ``Lift(ran=True)``: its hops
    may still be in flight.
    Returns the two collectives' results in slot order.
    """
    if call_a.spec is not None and call_b.spec is not None:
        verdict = yield CollectivePhaseOp((call_a.spec, call_b.spec), lift)
        if verdict is not FALLBACK:
            return verdict
    if lift is not None and not lift.ran:
        calls = [call_a, call_b]
        got = yield from lift_loop(ctx, lift)
        for (_src, _tag, slot), block in zip(lift.recvs, got):
            calls[slot] = calls[slot].fed(block)
        if lift.phase is not None:
            ctx.phase(lift.phase)
        return (yield from parallel_pair(ctx, *calls, lift=Lift(ran=True)))
    return (yield from ctx.parallel(call_a.gen(), call_b.gen()))
