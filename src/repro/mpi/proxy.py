"""The one forwarding surface every context layer is built on.

A resilience layer (:class:`~repro.mpi.reliable.ReliableContext`,
:class:`~repro.mpi.detector.FailureDetectorContext`,
:class:`~repro.mpi.recovery.RecoveryContext`) presents the
:class:`~repro.sim.process.ProcessContext` surface to the program above
it and talks to another context below it.  :class:`ContextProxy` writes
that surface down once, forwarding every member to ``self._ctx``; a layer
subclasses it and overrides only the members its concern changes.

Forwarders are plain functions that *return* the inner generator, so a
forwarded operation adds no ``yield from`` frame of its own: the program's
``yield from layer.compute(f)`` drives the inner generator directly.
"""

from __future__ import annotations

from typing import Any

from repro.sim.process import ANY_SOURCE, ANY_TAG, exchange_round

__all__ = ["ContextProxy"]

#: the point-to-point primitives an armed layer reimplements
_PRIMITIVES = ("send", "isend", "recv", "irecv", "waitall")


class ContextProxy:
    """Forward the whole context surface to the wrapped ``ctx``.

    Writing a layer: subclass, call ``super().__init__(ctx)`` and override
    the members your concern changes — everything else already forwards.
    If the machine gives the layer nothing to do, call
    :meth:`_stand_down` from the constructor instead of testing a flag in
    every method.
    """

    def __init__(self, ctx):
        self._ctx = ctx

    def _stand_down(self) -> None:
        """Make this instance forward its point-to-point primitives verbatim.

        The one place a layer decides idle-vs-armed: the subclass's
        protocol methods are shadowed, on this instance only, by the
        forwarders below, so an idle layer costs one plain call per
        operation and cannot drift from the bare context.
        """
        for name in _PRIMITIVES:
            setattr(self, name, getattr(ContextProxy, name).__get__(self))

    # -- identity ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._ctx.rank

    @property
    def engine(self):
        return self._ctx.engine

    @property
    def config(self):
        return self._ctx.config

    @property
    def num_ranks(self) -> int:
        return self._ctx.num_ranks

    @property
    def now(self) -> float:
        return self._ctx.now

    @property
    def stats(self):
        return self._ctx.stats

    # -- local operations ----------------------------------------------------

    def elapse(self, duration: float):
        return self._ctx.elapse(duration)

    def compute(self, flops: float):
        return self._ctx.compute(flops)

    def local_matmul(self, A, B, C=None):
        return self._ctx.local_matmul(A, B, C)

    def parallel(self, *generators):
        return self._ctx.parallel(*generators)

    def barrier(self):
        return self._ctx.barrier()

    def phase(self, name: str) -> None:
        self._ctx.phase(name)

    def note_memory(self, resident_words: int) -> None:
        self._ctx.note_memory(resident_words)

    def note_retransmission(self) -> None:
        self._ctx.note_retransmission()

    # -- point-to-point primitives, verbatim ---------------------------------

    def send(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        return self._ctx.send(dst, data, tag, nwords)

    def isend(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        return self._ctx.isend(dst, data, tag, nwords)

    def recv(self, src=ANY_SOURCE, tag=ANY_TAG, timeout=None):
        return self._ctx.recv(src, tag, timeout=timeout)

    def irecv(self, src=ANY_SOURCE, tag=ANY_TAG, timeout=None):
        return self._ctx.irecv(src, tag, timeout=timeout)

    def waitall(self, handles):
        return self._ctx.waitall(handles)

    # -- composites over this layer's own primitives -------------------------

    def wait(self, handle):
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
        timeout: float | None = None,
    ):
        """Concurrent send + receive; returns the received payload.

        ``timeout`` bounds the receive half (e.g. against a fail-stopped
        peer).  The bare context has no such knob, so a bounded exchange
        runs this layer's ``send`` and ``recv`` as parallel sub-tasks.
        """
        if timeout is None:
            return self._ctx.sendrecv(dst, data, src, send_tag, recv_tag, nwords)
        return self._paired(
            self.send(dst, data, send_tag, nwords),
            self.recv(src, recv_tag, timeout=timeout),
        )

    def neighbor_exchange(self, sends, recvs):
        """One round of single-hop exchanges over this layer's own
        primitives (:func:`~repro.sim.process.exchange_round`).  Only the
        bare context hands the round to the engine: through a layer, every
        message of it is the layer's own ``isend``."""
        return exchange_round(self, sends, recvs)

    def _paired(self, send_gen, recv_gen):
        """Run a send and a receive conversation as parallel sub-tasks, so
        ring exchanges cannot deadlock on each other's acks."""
        values = yield from self._ctx.parallel(send_gen, recv_gen)
        return values[1]

    def exchange(
        self,
        peer: int,
        data: Any,
        tag: int = 0,
        nwords: int | None = None,
        timeout: float | None = None,
    ):
        """Pairwise exchange with ``peer``: send ``data``, return theirs."""
        return self.sendrecv(
            peer, data, src=peer, send_tag=tag, recv_tag=tag,
            nwords=nwords, timeout=timeout,
        )
