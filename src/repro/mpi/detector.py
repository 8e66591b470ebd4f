"""Heartbeat/lease failure detection over reliable delivery.

The reliable layer turns message *loss* into retransmission, but a node
fail-stop looks exactly like unbounded loss: every retry to the corpse
times out and the caller gets a generic
:class:`~repro.errors.CommTimeoutError`.  This module adds the missing
diagnosis.  A :class:`FailureDetectorContext` wraps a
:class:`~repro.mpi.reliable.ReliableContext` and converts silence into a
verdict:

* receives wait in bounded **leases** instead of forever; when a lease
  expires the detector **probes** the peer (a zero-word ping whose
  delivery acknowledgement is generated by the destination *node*, so a
  peer that finished its program still answers — only a fail-stopped one
  stays silent),
* a probe that stays silent through :data:`PROBE_RETRIES` attempts convicts
  the peer: the operation raises :class:`~repro.errors.RankFailedError`
  (``on_dead="raise"``) or degrades in-band (``on_dead="substitute"``,
  see below) and the verdict is cached so later operations against the
  corpse resolve immediately,
* a probe that answers renews the lease — a slow peer is never convicted,
  only a dead one (up to ``max_leases`` renewals, after which the generic
  timeout propagates: the peer is alive but the protocol has lost
  progress).

Substitution semantics (``on_dead="substitute"``)
-------------------------------------------------
Algorithm-level recovery (ABFT checksums, see
:mod:`repro.algorithms.abft`) needs the *surviving* ranks to finish with
their data contaminated rather than aborted, so the lost region of the
product is identifiable and reconstructable.  When a receive's peer is
dead the detector substitutes:

* a NaN-filled array of the *paired send's* shape, when the operation is
  an exchange/sendrecv or a ``waitall`` batch pairing the receive with a
  same-tag send (ring shifts and recursive-doubling exchanges move
  equal-shaped blocks both ways) — NaN then propagates in-band through
  concatenation, matmul, and reduction, poisoning exactly the derived
  data;
* the :data:`LOST_PAYLOAD` sentinel for non-array payloads (the keyed
  dictionaries moved by the collectives, which handle the sentinel
  themselves);
* no substitute exists for a bare receive — it raises
  :class:`~repro.errors.RankFailedError`.

Sends to a convicted peer succeed vacuously (fire-and-forget): delivery
to a corpse cannot matter to any surviving rank.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import CommTimeoutError, CommunicatorError, RankFailedError
from repro.mpi.proxy import ContextProxy
from repro.mpi.reliable import (
    ReliableContext,
    _nothing_to_wait_for,
    _ReliableHandle,
)
from repro.sim.message import PING_TAG
from repro.sim.process import ANY_SOURCE, ANY_TAG, ProcessContext

__all__ = [
    "FailureDetectorContext",
    "LOST_PAYLOAD",
    "lost_like",
    "PING_TAG",
    "PING_ACK_BASE",
    "PROBE_RETRIES",
]

#: base tag for probe delivery-acks; per-(rank, probe) unique above this
PING_ACK_BASE = 1 << 24
_PING_STRIDE = 1 << 16

#: silent pings (one zero-word round trip each) before a peer is convicted
PROBE_RETRIES = 3
#: receive lease before a liveness probe, in zero-word round trips
_LEASE_ROUND_TRIPS = 4.0
#: retry ladder of the reliable layer the detector builds for itself:
#: short, so silence from a corpse is convicted after a few round trips
#: instead of thousands.  A caller wanting another ladder passes its own
#: :class:`~repro.mpi.reliable.ReliableContext`.
_MAX_RETRIES = 3
_BACKOFF = 1.5


class _LostPayload:
    """Sentinel returned for a non-array payload lost to a fail-stop.

    Collectives check for it (``got is LOST_PAYLOAD``) and degrade their
    own bookkeeping — a dict of keyed blocks has no meaningful NaN
    substitute, but the collective knows which keys the dead peer owed.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<LOST_PAYLOAD>"


LOST_PAYLOAD = _LostPayload()


def lost_like(template) -> np.ndarray:
    """A NaN array shaped like ``template`` — the in-band mark for data
    lost to a fail-stop.  NaN propagates through concatenation, matmul and
    reduction, so downstream consumers identify exactly the derived
    entries they can no longer trust."""
    return np.full(np.asarray(template).shape, np.nan, dtype=float)


class _DetectorHandle(_ReliableHandle):
    """A reliable handle carrying pairing metadata for substitution."""

    __slots__ = ("tag", "payload", "cell")

    def __init__(self, kind: str, gen, tag: int, payload=None, cell=None):
        super().__init__(kind, gen)
        self.tag = tag
        self.payload = payload
        self.cell = cell


class FailureDetectorContext(ContextProxy):
    """A context proxy that converts peer silence into failure verdicts.

    Parameters
    ----------
    ctx:
        The rank's :class:`~repro.sim.process.ProcessContext`, or an
        already-constructed :class:`~repro.mpi.reliable.ReliableContext`
        to layer on (one is built otherwise, with a shorter retry ladder
        — ``max_retries=3``, ``backoff=1.5`` — so silence from a corpse
        is convicted after a few round trips instead of thousands).
    on_dead:
        ``"substitute"`` (default) degrades operations against a dead
        peer in-band (see module doc); ``"raise"`` raises
        :class:`~repro.errors.RankFailedError` instead — the mode used
        when a caller wants to abort-and-recover rather than degrade.
    max_leases:
        Lease renewals granted to an alive-but-silent peer before the
        generic :class:`~repro.errors.CommTimeoutError` propagates
        (bounds the cascade when a peer stopped early for its own
        reasons).  ``None`` waits forever (used by the recovery
        consensus, whose peers are guaranteed to arrive or die).

    A receive lease lasts four zero-word round trips of the reliable
    layer's estimate, a ping waits one, and :data:`PROBE_RETRIES` silent
    pings convict.

    Detection is only armed when the machine's fault plan actually
    contains node failures; otherwise every call delegates verbatim to
    the reliable layer (which itself fast-paths lossless plans), so the
    detector costs nothing on healthy machines.
    """

    def __init__(
        self,
        ctx: ProcessContext | ReliableContext,
        *,
        on_dead: str = "substitute",
        max_leases: int | None = 64,
    ):
        if on_dead not in ("substitute", "raise"):
            raise CommunicatorError(
                f"on_dead must be 'substitute' or 'raise', got {on_dead!r}"
            )
        if not isinstance(ctx, ReliableContext):
            ctx = ReliableContext(ctx, max_retries=_MAX_RETRIES, backoff=_BACKOFF)
        super().__init__(ctx)
        # The context under the reliable layer: pings carry their own ack
        # tags and must not be wrapped in its protocol.
        self._raw = ctx._ctx
        self.on_dead = on_dead
        self.max_leases = max_leases
        plan = getattr(ctx.config, "faults", None)
        self._active = plan is not None and bool(plan.node_failures)
        self._known_dead: set[int] = set()
        self._ping_seq = 0
        if not self._active:
            self._stand_down()

    @property
    def active(self) -> bool:
        """True iff the fault plan can fail-stop nodes (detection armed)."""
        return self._active

    @property
    def known_dead(self) -> frozenset[int]:
        """Peers this rank has convicted so far."""
        return frozenset(self._known_dead)

    # -- liveness probing --------------------------------------------------

    def probe(self, peer: int):
        """Actively check whether ``peer`` is alive (generator; returns bool).

        Sends zero-word pings whose delivery acks come from the peer's
        *node*, so any not-fail-stopped peer answers — even one whose
        program already returned.  A conviction is cached (fail-stop is
        permanent).
        """
        if peer == self.rank:
            return True
        if peer in self._known_dead:
            return False
        timeout = self._ctx._rtt_estimate(0)
        for _ in range(PROBE_RETRIES):
            ptag = PING_ACK_BASE + self.rank * _PING_STRIDE + self._ping_seq
            self._ping_seq += 1
            yield from self._raw.send(peer, None, PING_TAG, nwords=0, ack_tag=ptag)
            try:
                yield from self._raw.recv(peer, ptag, timeout=timeout)
                return True
            except CommTimeoutError:
                continue
        if peer not in self._known_dead:  # a concurrent sub-task may have won
            self._known_dead.add(peer)
            self._raw.phase(f"detect:{peer}")
        return False

    # -- dead-peer resolutions ---------------------------------------------

    def _dead_send(self, dst: int, on_dead: str) -> None:
        if on_dead == "raise":
            raise RankFailedError(self.rank, dst, self.now)
        # fire-and-forget: delivery to a corpse cannot matter to survivors

    def _dead_recv_value(self, src: int, cell, on_dead: str):
        if on_dead == "substitute" and cell:
            fallback = cell[0]
            if isinstance(fallback, np.ndarray):
                return lost_like(fallback)
            return LOST_PAYLOAD
        raise RankFailedError(
            self.rank, src, self.now,
            detail="no substitute available for the lost payload",
        )

    def _convict_on_silence(self, dst: int, gen, on_dead: str):
        """Run a send protocol ``gen`` towards ``dst``; when it exhausts
        its retries, probe: a live peer re-raises the timeout, a dead one
        resolves per ``on_dead``."""
        try:
            yield from gen
        except CommTimeoutError:
            alive = yield from self.probe(dst)
            if alive:
                raise
            self._dead_send(dst, on_dead)

    # -- point to point (armed; an idle detector stands down) --------------

    def _send(self, dst: int, data: Any, tag: int, nwords: int | None, on_dead: str):
        if dst in self._known_dead:
            self._dead_send(dst, on_dead)
            return
        yield from self._convict_on_silence(
            dst, self._ctx.send(dst, data, tag, nwords), on_dead
        )

    def send(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        return self._send(dst, data, tag, nwords, self.on_dead)

    def isend(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        if dst == self.rank:
            return (yield from self._ctx.isend(dst, data, tag, nwords))
        if dst in self._known_dead:
            self._dead_send(dst, self.on_dead)
            tail = _nothing_to_wait_for()
        else:
            inner = yield from self._ctx.isend(dst, data, tag, nwords)
            # deferred ack wait with a conviction check on exhaustion
            tail = self._convict_on_silence(dst, inner.gen, self.on_dead)
        return _DetectorHandle("send", tail, tag, payload=data)

    def _recv_gen(self, src: int, tag: int, cell, timeout, on_dead: str, max_leases):
        if src >= 0 and src in self._known_dead:
            return self._dead_recv_value(src, cell, on_dead)
        lease = timeout
        if lease is None:
            lease = _LEASE_ROUND_TRIPS * self._ctx._rtt_estimate(0)
        leases = 0
        while True:
            try:
                return (yield from self._ctx.recv(src, tag, timeout=lease))
            except CommTimeoutError:
                if src < 0:
                    raise
                alive = yield from self.probe(src)
                if not alive:
                    return self._dead_recv_value(src, cell, on_dead)
                leases += 1
                if max_leases is not None and leases >= max_leases:
                    raise CommTimeoutError(
                        self.rank, src, tag, lease * leases,
                        detail=f"peer {src} is alive but silent "
                               f"after {leases} leases",
                    ) from None

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        return self._recv_gen(
            src, tag, None, timeout, self.on_dead, self.max_leases
        )

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        cell: list = []
        return _DetectorHandle(
            "recv",
            self._recv_gen(src, tag, cell, timeout, self.on_dead, self.max_leases),
            tag, cell=cell,
        )
        yield  # pragma: no cover - generator protocol compatibility

    def waitall(self, handles: Iterable):
        handles = list(handles)
        # Pair each fallback-less receive with a same-tag send from the
        # same batch: ring shifts and dimension exchanges send and receive
        # equal-shaped blocks under one tag, so the outbound payload is
        # the right template for a NaN substitute.
        sends = [
            h for h in handles
            if isinstance(h, _DetectorHandle) and h.kind == "send"
        ]
        for h in handles:
            if isinstance(h, _DetectorHandle) and h.kind == "recv" and not h.cell:
                for s in sends:
                    if s.tag == h.tag and s.payload is not None:
                        h.cell.append(s.payload)
                        break
        return self._ctx.waitall(handles)

    def sendrecv(
        self,
        dst: int,
        data: Any,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
        nwords: int | None = None,
        timeout: float | None = None,
        *,
        on_dead: str | None = None,
        max_leases: int | None = -1,
    ):
        """Concurrent send + receive; a dead peer yields a NaN block /
        :data:`LOST_PAYLOAD` (or raises, per ``on_dead``).  ``on_dead`` and
        ``max_leases`` override the constructor's for this one call (the
        recovery consensus substitutes even under a detector built to
        raise)."""
        if not self._active:
            return super().sendrecv(
                dst, data, src, send_tag, recv_tag, nwords, timeout
            )
        od = on_dead if on_dead is not None else self.on_dead
        ml = self.max_leases if max_leases == -1 else max_leases
        return self._paired(
            self._send(dst, data, send_tag, nwords, od),
            self._recv_gen(src, recv_tag, [data], timeout, od, ml),
        )

    def __repr__(self) -> str:
        return (
            f"FailureDetectorContext(rank={self.rank}, on_dead={self.on_dead!r}, "
            f"active={self._active}, dead={sorted(self._known_dead)})"
        )
