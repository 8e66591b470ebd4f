"""Per-rank programming interface for SPMD simulator programs.

A program is a generator function taking a :class:`ProcessContext`.  All
communication helpers are themselves generators and must be delegated to
with ``yield from``::

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.ones(4))
        elif ctx.rank == 1:
            data = yield from ctx.recv(0)
            ...

Blocking semantics
------------------
``send`` returns once the message has been injected into the network (the
sender's port is free again); the payload is copied first, so the caller may
immediately reuse its buffer.  ``recv`` returns when the message has fully
arrived.  ``isend``/``irecv`` return :class:`~repro.sim.ops.Handle` objects
for :meth:`ProcessContext.waitall`, which is how full-duplex exchanges
(``sendrecv``) and multi-port concurrent transfers are expressed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.errors import CommTimeoutError, SimulationError
from repro.sim.message import payload_words
from repro.sim.ops import (
    FALLBACK,
    TIMED_OUT,
    BarrierOp,
    ElapseOp,
    ExchangeOp,
    Handle,
    ParallelOp,
    RecvOp,
    SendOp,
    ShiftPhaseOp,
    WaitOp,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["ProcessContext", "ANY_SOURCE", "ANY_TAG", "exchange_round", "shift_loop"]

ANY_SOURCE = -1
ANY_TAG = -1


def exchange_round(ctx, sends, recvs):
    """A neighbour-exchange round, message by message, over ``ctx``'s own
    ``isend`` / ``irecv`` / ``waitall``: post ``sends`` (``(dst, data,
    tag)``, in order), post ``recvs`` (``(src, tag)``), wait for all;
    returns the received payloads in ``recvs`` order.  This loop is the
    definition of the round (``ProcessContext.neighbor_exchange``), and the
    whole of it for a wrapped context (``repro.mpi.ContextProxy``)."""
    handles = []
    for dst, data, tag in sends:
        handles.append((yield from ctx.isend(dst, data, tag)))
    posted = len(handles)
    for src, tag in recvs:
        handles.append((yield from ctx.irecv(src, tag)))
    values = yield from ctx.waitall(handles)
    return values[posted:]


def shift_loop(ctx, op: ShiftPhaseOp):
    """The definition of a shift phase, run from ``op``'s state through
    ``ctx``'s own point-to-point calls: the alignment if pending, then each
    round's multiply and (but the last) exchange; returns ``(A, B, C)``
    (a grouped phase's ``A`` and ``B``: its lists of groups)."""
    if op.dims is not None:
        return (yield from _grouped_loop(ctx, op))
    if op.row is not None:
        return (yield from _broadcast_loop(ctx, op))
    a_block, b_block, c_block = op.a_block, op.b_block, op.c_block
    peers = op.align
    for _left in range(op.steps):
        if peers is not None:
            handles = [
                (yield from ctx.isend(peers[0], a_block, op.tag_a)),
                (yield from ctx.irecv(peers[1], op.tag_a)),
                (yield from ctx.isend(peers[2], b_block, op.tag_b)),
                (yield from ctx.irecv(peers[3], op.tag_b)),
            ]
            values = yield from ctx.waitall(handles)
            a_block, b_block = values[1], values[3]
        c_block = yield from ctx.local_matmul(a_block, b_block, c_block)
        peers = (op.a_to, op.a_from, op.b_to, op.b_from)
    return a_block, b_block, c_block


def _grouped_loop(ctx, op: ShiftPhaseOp):
    """:func:`shift_loop` for a grouped phase (see :class:`ShiftPhaseOp`)."""
    # (repro.collectives imports the engine: a module-level import is circular)
    from repro.collectives.chunking import chunk_slices

    rank = ctx.rank
    a_block, b_block = op.a_block, op.b_block
    for a_dim, b_dim in op.swaps:
        handles = []
        if a_dim is not None:
            peer = rank ^ (1 << a_dim)
            handles.append((yield from ctx.isend(peer, a_block, op.tag_a)))
            handles.append((yield from ctx.irecv(peer, op.tag_a)))
        if b_dim is not None:
            peer = rank ^ (1 << b_dim)
            handles.append((yield from ctx.isend(peer, b_block, op.tag_b)))
            handles.append((yield from ctx.irecv(peer, op.tag_b)))
        if handles:
            values = yield from ctx.waitall(handles)
            if a_dim is not None:
                a_block = values[1]
            if b_dim is not None:
                b_block = values[-1]
    if op.phase is not None:
        ctx.phase(op.phase)
    # Identical boundaries for A's columns and B's rows: each Aˡ·Bˡ is a
    # full-size partial product.
    blocks = []
    for g in chunk_slices(a_block.shape[1], len(op.tags) // 2):
        blocks += [np.ascontiguousarray(a_block[:, g]), np.ascontiguousarray(b_block[g, :])]
    c_block = np.zeros((a_block.shape[0], b_block.shape[1]))
    for t in range(op.steps):
        c_block = yield from ctx.local_matmuls(blocks[0::2], blocks[1::2], c_block)
        if t == op.steps - 1:
            break
        peers = [rank ^ (1 << dim) for dim in op.dims[t]]
        blocks = yield from ctx.neighbor_exchange(
            list(zip(peers, blocks, op.tags)), list(zip(peers, op.tags))
        )
    return blocks[0::2], blocks[1::2], c_block


def _broadcast_loop(ctx, op: ShiftPhaseOp):
    """:func:`shift_loop` for a broadcast phase (see :class:`ShiftPhaseOp`)."""
    from repro.collectives import broadcast  # (circular at module level)

    row, b_block, c_block = op.row, op.b_block, op.c_block
    for k, root in enumerate(op.roots):
        roaming = op.a_block if row.rank == root else None
        roaming = yield from broadcast(row, roaming, root=root, tag=op.tag_a)
        c_block = yield from ctx.local_matmul(roaming, b_block, c_block)
        if k < op.steps - 1:
            (b_block,) = yield from ctx.neighbor_exchange(
                [(op.b_to, b_block, op.tag_b)], [(op.b_from, op.tag_b)]
            )
    return op.a_block, b_block, c_block


class ProcessContext:
    """Handle through which a rank's program talks to the engine."""

    __slots__ = ("rank", "engine", "config", "num_ranks")

    def __init__(self, rank: int, engine: "Engine"):
        self.rank = rank
        self.engine = engine
        self.config = engine.config
        self.num_ranks = engine.config.num_nodes

    # -- introspection ---------------------------------------------------

    @property
    def now(self) -> float:
        """The current task's virtual time (sub-task aware)."""
        return self.engine.time_of(self.rank)

    @property
    def stats(self):
        return self.engine.stats[self.rank]

    def _check_peer(self, peer: int) -> int:
        """Range-check a peer rank and return it as a Python ``int``, so a
        numpy integer never reaches route-cache keys or trace records.

        The per-message helpers below test the common case, an in-range
        ``int``, inline and call this only for anything else."""
        if not 0 <= peer < self.num_ranks:
            raise SimulationError(
                f"rank {peer} out of range on a {self.num_ranks}-node machine"
            )
        return peer if peer.__class__ is int else int(peer)

    # -- point to point ----------------------------------------------------

    def send(
        self,
        dst: int,
        data: Any,
        tag: int = 0,
        nwords: int | None = None,
        *,
        ack_tag: int | None = None,
        crc: int | None = None,
    ):
        """Blocking send (generator; use ``yield from``).

        ``ack_tag`` requests a delivery acknowledgement from the
        destination node (see :class:`~repro.sim.ops.SendOp`); ``crc``
        additionally asks it to verify the payload's canonical checksum
        at delivery and NACK a corrupted copy.
        """
        # The common case (an in-range int peer and tag, an explicit count
        # or an array) takes no call; the checks keep their order.
        if dst.__class__ is not int or not 0 <= dst < self.num_ranks:
            dst = self._check_peer(dst)
        if tag.__class__ is not int:
            tag = int(tag)
        if nwords.__class__ is not int or nwords < 0:
            nwords = (
                data.size if nwords is None and data.__class__ is np.ndarray
                else payload_words(data, nwords)
            )
        yield SendOp(dst, data, tag, nwords, blocking=True, ack_tag=ack_tag, crc=crc)

    def isend(
        self,
        dst: int,
        data: Any,
        tag: int = 0,
        nwords: int | None = None,
        *,
        ack_tag: int | None = None,
        crc: int | None = None,
    ):
        """Non-blocking send; returns a :class:`Handle`."""
        # (the checks of send, inline alike)
        if dst.__class__ is not int or not 0 <= dst < self.num_ranks:
            dst = self._check_peer(dst)
        if tag.__class__ is not int:
            tag = int(tag)
        if nwords.__class__ is not int or nwords < 0:
            nwords = (
                data.size if nwords is None and data.__class__ is np.ndarray
                else payload_words(data, nwords)
            )
        handle = yield SendOp(
            dst, data, tag, nwords, blocking=False, ack_tag=ack_tag, crc=crc
        )
        return handle

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        """Blocking receive; returns the payload.

        With ``timeout`` set, raises :class:`~repro.errors.CommTimeoutError`
        if no matching message arrives within ``timeout`` time units — a
        lost message becomes a typed, catchable failure instead of a
        whole-run :class:`~repro.errors.DeadlockError`.
        """
        if src != ANY_SOURCE and (
            src.__class__ is not int or not 0 <= src < self.num_ranks
        ):
            src = self._check_peer(src)
        if timeout is not None and timeout <= 0:
            raise SimulationError(f"recv timeout must be positive, got {timeout}")
        data = yield RecvOp(src, tag, blocking=True, timeout=timeout)
        if data is TIMED_OUT:
            raise CommTimeoutError(self.rank, src, tag, timeout)
        return data

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        """Non-blocking receive; returns a :class:`Handle`.

        With ``timeout`` set, the handle completes with
        :data:`~repro.sim.ops.TIMED_OUT` (``handle.timed_out`` is True) if
        the window expires first.
        """
        if src != ANY_SOURCE and (
            src.__class__ is not int or not 0 <= src < self.num_ranks
        ):
            src = self._check_peer(src)
        if timeout is not None and timeout <= 0:
            raise SimulationError(f"recv timeout must be positive, got {timeout}")
        handle = yield RecvOp(src, tag, blocking=False, timeout=timeout)
        return handle

    def waitall(self, handles: Iterable[Handle]):
        """Wait for every handle; returns their values in order."""
        handles = list(handles)
        rank = self.rank
        for h in handles:
            # Handle is final (never subclassed): exact-class test, and
            # ``rank`` is a stored slot — no call per handle.
            if h.__class__ is not Handle:
                raise SimulationError(f"waitall expects Handles, got {type(h).__name__}")
            if h.rank != rank:
                raise SimulationError(
                    f"rank {rank} cannot wait on rank {h.rank}'s handle"
                )
        values = yield WaitOp(handles)
        return values

    def wait(self, handle: Handle):
        """Wait for one handle; returns its value."""
        values = yield from self.waitall([handle])
        return values[0]

    def sendrecv(
        self,
        dst: int,
        data: Any,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
        nwords: int | None = None,
    ):
        """Concurrent send+receive (full duplex); returns the received payload."""
        hs = yield from self.isend(dst, data, send_tag, nwords)
        hr = yield from self.irecv(src, recv_tag)
        values = yield from self.waitall([hs, hr])
        return values[1]

    def exchange(self, peer: int, data: Any, tag: int = 0, nwords: int | None = None):
        """Pairwise exchange with ``peer``: send ``data``, return theirs."""
        return (
            yield from self.sendrecv(peer, data, src=peer, send_tag=tag, recv_tag=tag, nwords=nwords)
        )

    def neighbor_exchange(self, sends, recvs):
        """One round of single-hop exchanges (generator).

        ``sends`` lists ``(dst, data, tag)`` in program order — the order
        the injections reserve this node's port on a one-port machine —
        and ``recvs`` lists ``(src, tag)``; every peer should be a
        hypercube neighbour.  Posts every send, posts every receive, waits
        for all of them, and returns the received payloads in ``recvs``
        order.

        The round is one :class:`~repro.sim.ops.ExchangeOp`: on a run
        whose rounds the engine may run (``superstep`` on, no fault plan)
        it issues a main program's round itself, message by message, and
        answers with the received payloads.  Otherwise (``superstep=False``,
        a fault plan, a ``ctx.parallel`` sub-task) the answer is
        :data:`~repro.sim.ops.FALLBACK` and :func:`exchange_round`, which
        defines the round, runs it.  The events are the same either way.
        """
        sends = [
            (self._check_peer(dst), data, tag if tag.__class__ is int else int(tag))
            for dst, data, tag in sends
        ]
        recvs = [(int(src), int(tag)) for src, tag in recvs]
        # Before the first yield, so that it fails alike on every path: a
        # source out of range (not ANY_SOURCE), a payload without a word count.
        for src, _tag in recvs:
            if not ANY_SOURCE <= src < self.num_ranks:
                self._check_peer(src)
        for _dst, data, _tag in sends:
            if data.__class__ is not np.ndarray:
                payload_words(data)
        if not (sends or recvs):
            return []
        verdict = yield ExchangeOp(sends, recvs)
        if verdict is not FALLBACK:
            return verdict
        return (yield from exchange_round(self, sends, recvs))

    # -- computation -------------------------------------------------------

    def elapse(self, duration: float):
        """Advance this rank's clock by ``duration`` time units.

        A zero duration yields nothing: the engine would answer its
        ``ElapseOp`` at once, with no event, trace record or clock move."""
        if not duration >= 0:  # NaN too
            raise SimulationError(
                f"elapse duration must be >= 0, got {duration}"
            )
        if duration > 0:
            yield ElapseOp(duration)
        else:
            self.engine.stats[self.rank].compute_time += duration

    def compute(self, flops: float):
        """Charge ``flops`` floating-point operations (``t_c`` each).

        At ``t_c = 0`` the charge is booked on the rank's statistics in
        place and nothing is yielded (see :meth:`elapse`)."""
        duration = self.config.params.flops_time(flops)
        if duration > 0:
            yield ElapseOp(duration, flops)
        else:
            st = self.engine.stats[self.rank]
            st.flops += flops
            st.compute_time += duration

    def local_matmul(self, A: np.ndarray, B: np.ndarray, C: np.ndarray | None = None):
        """Local block multiply ``A @ B`` (optionally accumulated into ``C``),
        charging ``2·m·k·n`` flops; returns the product (or updated ``C``).
        The one-pair case of :meth:`local_matmuls`."""
        return self.local_matmuls((A,), (B,), C)

    def local_matmuls(self, As, Bs, C: np.ndarray | None = None):
        """``C (+)= Σ_k As[k] @ Bs[k]``, accumulated in ``k`` order: each
        product is added to ``C`` (the first one starts it when ``C`` is
        None) and charges its ``2·m·k·n`` flops; returns the sum (or the
        updated ``C``).  A compute phase states its local products in one
        call.

        Each product with a duration yields one ``ElapseOp``, and a pending
        :class:`~repro.sim.faults.NodeCorruption` then fires on ``C`` (the
        first product completing at/after its virtual time is silently
        perturbed).  A product of zero duration (``t_c = 0``) adds its
        flops and time to the rank's statistics in place and yields
        nothing: the engine answers a zero-length ``ElapseOp`` with those
        two additions and no event, trace record or clock move.
        """
        if len(As) != len(Bs):
            raise SimulationError(
                f"local_matmuls needs as many A blocks as B blocks, got "
                f"{len(As)} and {len(Bs)}"
            )
        engine = self.engine
        rank = self.rank
        t_c = self.config.params.t_c
        timing_only = engine.timing_only
        for A, B in zip(As, Bs):
            if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
                raise SimulationError(
                    f"local_matmul shape mismatch: {A.shape} @ {B.shape}"
                )
            m, k = A.shape
            n = B.shape[1]
            if C is not None and C.shape != (m, n):
                raise SimulationError(
                    f"accumulator shape {C.shape} != product shape {(m, n)}"
                )
            flops = 2.0 * m * k * n
            if timing_only:
                # Timing-only mode: charge the same flops/time, skip the
                # real product (and corruption, which would write into the
                # view).  The run's read-only zero view of the product's
                # shape keeps later sends and products sized correctly.
                if C is None:
                    zeros = engine.zero_views
                    if (m, n) not in zeros:
                        zeros[m, n] = np.broadcast_to(0.0, (m, n))
                    C = zeros[m, n]
            elif C is None:
                C = A @ B
            else:
                C += A @ B
            duration = t_c * flops  # (MachineParams.flops_time, inline)
            if duration > 0:
                yield ElapseOp(duration, flops)
            else:
                st = engine.stats[rank]
                st.flops += flops
                st.compute_time += duration
            if not timing_only:
                engine.apply_node_corruption(rank, C)
        return C

    def shift_phase(
        self,
        *,
        steps: int,
        a_block: np.ndarray,
        b_block: np.ndarray,
        tag_a: int,
        tag_b: int,
        a_to: int | None = None,
        a_from: int | None = None,
        b_to: int | None = None,
        b_from: int | None = None,
        align: tuple | None = None,
        dims: tuple | None = None,
        tags: tuple = (),
        swaps: tuple = (),
        phase: str | None = None,
        row: Any = None,
        roots: tuple = (),
    ):
        """Run a uniform shift-multiply superstep (generator).

        Equivalent to ``steps`` rounds of ``C (+)= A @ B`` each followed
        (except the last) by a concurrent unit shift of ``A`` to ``a_to``
        / from ``a_from`` and ``B`` to ``b_to`` / from ``b_from``; ``align =
        (a_dst, a_src, b_dst, b_src)`` puts one such exchange of any
        distance first (Cannon's skew).
        Returns the final ``(a_block, b_block, c_block)``.

        A *grouped* phase (Ho-Johnsson-Edelman's) gives ``dims``, ``tags``,
        ``swaps`` and ``phase`` instead of the four peers (see
        :class:`~repro.sim.ops.ShiftPhaseOp`) and returns the final group
        lists and ``C``.  A *broadcast* phase (Fox-Otto-Hey's) gives the
        row communicator ``row``, one broadcast root per step in ``roots``
        and B's peers, and returns its own ``A``, the final ``B`` and ``C``.

        The phase is declared once, as a resident
        :class:`~repro.sim.ops.ShiftPhaseOp`: the engine runs its rounds
        itself — through the event machinery while foreign traffic is in
        flight, in closed form from the first quiet frontier (see
        :mod:`repro.sim.superstep`; never under a scenario or a watchdog,
        and traced only an aligned phase, through the hop table) — and
        resumes this generator once, with the final blocks.
        A fault plan, ``superstep=False`` and a ``ctx.parallel`` sub-task
        are answered :data:`~repro.sim.ops.FALLBACK` instead (a grouped or
        broadcast phase also wherever no closed form comes), and
        :func:`shift_loop`, which defines the phase, runs what is left of
        it message by message: the engine's own rounds, the hop table and
        the closed form are held bit-identical to it by
        ``tests/conformance``.
        """
        if steps < 1:
            raise SimulationError(f"shift_phase needs steps >= 1, got {steps}")
        # Checked once, before the first yield, so a malformed phase fails
        # the same way whichever path would have run it.
        if not (isinstance(a_block, np.ndarray) and isinstance(b_block, np.ndarray)):
            raise SimulationError(
                "shift_phase blocks must be numpy arrays, got "
                f"{type(a_block).__name__} and {type(b_block).__name__}"
            )
        if (
            a_block.ndim != 2
            or b_block.ndim != 2
            or a_block.shape[1] != b_block.shape[0]
        ):
            raise SimulationError(
                f"local_matmul shape mismatch: {a_block.shape} @ {b_block.shape}"
            )
        peers = (a_to, a_from, b_to, b_from)
        if row is not None:
            if len(roots) != steps or dims is not None or align is not None:
                raise SimulationError(
                    "a broadcast shift_phase needs a root per step, no dims and no align"
                )
            checked = (b_to, b_from)
            peers = (None, None, *checked)
        elif dims is None:
            checked = peers if align is None else (*peers, *align)
        elif not tags or len(tags) % 2 or len(dims) != steps - 1 or align is not None:
            raise SimulationError(
                "a grouped shift_phase needs 2g tags, steps - 1 rounds of dims and no align"
            )
        else:
            checked = ()
        # In-range int peers, the common case, take no call (as in send);
        # anything else goes through _check_peer, peers before align.
        num_ranks = self.num_ranks
        for peer in checked:
            if peer.__class__ is not int or not 0 <= peer < num_ranks:
                check = self._check_peer
                if row is not None:
                    peers = (None, None, check(b_to), check(b_from))
                else:
                    peers = tuple(map(check, peers))
                if align is not None:
                    align = tuple(map(check, align))
                break
        else:
            if align is not None:
                align = tuple(align)
        op = ShiftPhaseOp(
            steps, a_block, b_block, int(tag_a), int(tag_b), *peers,
            align=align, dims=dims, tags=tags, swaps=swaps, phase=phase,
            row=row, roots=tuple(roots),
        )
        verdict = yield op
        if verdict is not FALLBACK:
            return verdict
        return (yield from shift_loop(self, op))

    # -- intra-rank concurrency ----------------------------------------------

    def parallel(self, *generators):
        """Run sub-generators concurrently on this node; returns their values.

        Each argument is an already-constructed generator (e.g. a collective
        call).  Their communication overlaps subject to the port model: a
        multi-port node drives them simultaneously, a one-port node
        serializes their transfers through its single engagement — which is
        exactly how the paper accounts for "phases occurring in parallel".

        ::

            a_list, b_val = yield from ctx.parallel(
                allgather(row_comm, a_block, tag=1),
                broadcast(col_comm, b_block, root=0, tag=2),
            )
        """
        values = yield ParallelOp(list(generators))
        return values

    # -- synchronisation and bookkeeping ------------------------------------

    def barrier(self):
        """Zero-cost global barrier (harness use only; see :class:`BarrierOp`)."""
        yield BarrierOp()

    def phase(self, name: str) -> None:
        """Mark the start of a named phase at this rank's current time."""
        self.engine.mark_phase(self.rank, name)

    def note_memory(self, resident_words: int) -> None:
        """Record this rank's current resident words for peak-memory stats."""
        self.engine.stats[self.rank].note_memory(resident_words)

    def note_retransmission(self) -> None:
        """Count one retransmission in the run's network statistics
        (used by the reliable-delivery layer)."""
        self.engine.note_retransmission()
