"""Reliable delivery over a lossy simulated network.

The engine's transport is *unreliable* when a
:class:`~repro.sim.faults.FaultPlan` injects drop rates: a lost hop
silently swallows the message, exactly like a dropped packet.  This module
layers the classic positive-acknowledgement / retransmission protocol on
top, turning the lossy channel back into a reliable one:

* every data message carries a per-destination **sequence number** and is
  resent until a delivery acknowledgement arrives (exponential backoff,
  bounded retries),
* acknowledgements are generated by the destination *node* at delivery
  time (hardware-style, like InfiniBand reliable connections — see
  ``ack_tag`` on :class:`~repro.sim.ops.SendOp`); the ack itself rides
  the lossy network, and a lost ack simply means the next retransmission's
  duplicate re-triggers one,
* the receiver **deduplicates** by ``(sender, seq)``, so retransmitted
  duplicates are delivered to the application exactly once,
* acks ride on a dedicated tag namespace (``ACK_BASE + seq``), data on
  ``DATA_BASE + user_tag``, so the protocol never collides with
  application tags (which must stay below :data:`DATA_BASE`).

:class:`ReliableContext` presents the
:class:`~repro.sim.process.ProcessContext` surface (it is a
:class:`~repro.mpi.proxy.ContextProxy` that overrides point-to-point), so
the existing communicators, collectives, and algorithms run unmodified on
a lossy machine — pass ``context_factory=ReliableContext`` to an algorithm's
``run`` and every point-to-point transfer gains retransmission::

    result = CannonAlgorithm().run(n, config, context_factory=ReliableContext)

Because acks confirm *delivery to the node*, not consumption by the
program, a late-posted receive costs nothing: the data waits in the
mailbox already acknowledged.  Retransmissions happen only when the data
or its ack was actually lost, and every resend is counted in the run's
:class:`~repro.sim.tracing.NetworkStats` ``retransmissions`` field.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.errors import CommTimeoutError, CommunicatorError, CorruptionError
from repro.mpi.proxy import ContextProxy
from repro.sim.message import CORRUPT_VERDICT, payload_words
from repro.sim.ops import TIMED_OUT, Handle
from repro.sim.process import ANY_SOURCE, ANY_TAG, ProcessContext

__all__ = ["ReliableContext", "DATA_BASE", "ACK_BASE"]

#: tag offset for data envelopes; user tags must be < DATA_BASE
DATA_BASE = 1 << 20
#: tag offset for acknowledgements (one tag per sequence number)
ACK_BASE = 1 << 21


def _nothing_to_wait_for():
    """Trivial protocol tail for operations already finished at issue time."""
    return None
    yield  # pragma: no cover - generator protocol compatibility


class _ReliableHandle:
    """Deferred reliable operation, completed by :meth:`ReliableContext.waitall`.

    Collectives drive handles only through ``waitall`` + ``.value``, so this
    small shim (wrapping the full protocol generator) is all they need.
    """

    __slots__ = ("kind", "gen", "done", "value")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _RELIABLE_HANDLES.add(cls)

    def __init__(self, kind: str, gen):
        self.kind = kind
        self.gen = gen
        self.done = False
        self.value = None

    @property
    def timed_out(self) -> bool:
        return self.done and self.value is TIMED_OUT


#: this class and its subclasses, for ``waitall``'s exact-class test
_RELIABLE_HANDLES = {_ReliableHandle}


class ReliableContext(ContextProxy):
    """A :class:`~repro.sim.process.ProcessContext` proxy with reliable
    point-to-point delivery (ack / timeout / retransmit / dedup).

    Parameters
    ----------
    ctx:
        The rank's real process context.
    ack_timeout:
        Base wait for an ack before retransmitting.  Default: an estimate
        of the worst-case round trip (network diameter each way) times
        ``slack``, further scaled by the worst single-link slowdown the
        machine's :class:`~repro.sim.scenario.NetworkScenario` can
        inflict — a degraded-but-lossless link must wait longer, not
        retransmit.
    max_retries:
        Resends attempted before giving up with
        :class:`~repro.errors.CommTimeoutError`.  With backoff ``b`` the
        protocol tolerates receivers up to ``ack_timeout · (b^(r+1)-1)/(b-1)``
        late, so the default covers ~2000× the base round trip.
    backoff:
        Multiplier applied to the ack timeout after every resend.
    slack:
        Contention allowance multiplying the default round-trip estimate.
    force_protocol:
        Run the full ack/retransmit protocol even on a machine whose
        fault plan is lossless (useful for protocol tests).  By default a
        machine that cannot lose messages (no fault plan, or
        :attr:`~repro.sim.faults.FaultPlan.lossless`) is served by a
        **passthrough fast path**: every call delegates verbatim to the
        underlying context, so a fault-free run costs exactly 1.0×
        baseline instead of paying for acks that can never matter.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        ack_timeout: float | None = None,
        max_retries: int = 10,
        backoff: float = 2.0,
        slack: float = 4.0,
        force_protocol: bool = False,
    ):
        if max_retries < 0:
            raise CommunicatorError(f"max_retries must be >= 0, got {max_retries}")
        if backoff < 1.0:
            raise CommunicatorError(f"backoff must be >= 1, got {backoff}")
        if slack <= 0:
            raise CommunicatorError(f"slack must be positive, got {slack}")
        if ack_timeout is not None and ack_timeout <= 0:
            raise CommunicatorError(
                f"ack_timeout must be positive, got {ack_timeout}"
            )
        super().__init__(ctx)
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.slack = slack
        self._next_seq: dict[int, int] = {}
        self._seen: set[tuple[int, int]] = set()
        # Degradation must not masquerade as failure: the default ack
        # timeout assumes nominal hop times, so a slow-but-lossless link
        # would trip spurious retransmissions (or exhaust retries into a
        # CommTimeoutError) purely because of network weather.  Scale the
        # round-trip budget by the worst single-link slowdown the scenario
        # can inflict — conservative, and 1.0 on a nominal network so the
        # existing timeout behaviour is untouched.
        scenario = getattr(ctx.config, "scenario", None)
        self._timeout_scale = (
            1.0 if scenario is None else scenario.worst_case_factor()
        )
        self._rtt: dict[int, float] = {}
        plan = getattr(ctx.config, "faults", None)
        self._passthrough = not force_protocol and (
            plan is None or self._harmless(plan)
        )
        if self._passthrough:
            self._stand_down()

    @staticmethod
    def _harmless(plan) -> bool:
        """True iff no fault in ``plan`` needs this layer's protocol."""
        return plan.lossless

    @property
    def passthrough(self) -> bool:
        """True iff this context fast-paths to plain (ack-free) delivery."""
        return self._passthrough

    # -- the protocol ------------------------------------------------------

    def _check_tag(self, tag: int) -> None:
        """Reject a tag the protocol's namespaces cannot carry.  Callers
        test the common case, an in-range ``int``, inline and call this
        only for anything else."""
        if not 0 <= tag < DATA_BASE:
            raise CommunicatorError(
                f"reliable delivery needs a concrete user tag in [0, {DATA_BASE}), "
                f"got {tag}"
            )

    def _rtt_estimate(self, nwords: int) -> float:
        if self.ack_timeout is not None:
            return self.ack_timeout
        known = self._rtt
        if nwords not in known:  # once per message size, not per message
            cfg = self._ctx.config
            diam = cfg.dimension or max(1, cfg.num_nodes // 2)
            params = cfg.params
            rtt = self.slack * diam * (params.hop_time(nwords) + params.hop_time(0))
            known[nwords] = rtt * self._timeout_scale
        return known[nwords]

    def _checksum(self, dst: int, wire_tag: int, words: int, envelope) -> int | None:
        """Checksum attached to every copy of a message (hook: none here)."""
        return None

    def _transmit(self, post, dst: int, data: Any, tag: int, nwords: int | None):
        """First transmission, shared by :meth:`send` and :meth:`isend`.

        ``post`` is the inner context's blocking or nonblocking send.
        Returns ``(posting, tail)``: the generator that puts the first
        copy on the wire and the one that waits for its acknowledgement.
        """
        if tag.__class__ is not int or not 0 <= tag < DATA_BASE:
            self._check_tag(tag)
        if nwords.__class__ is int and nwords >= 0:
            words = nwords
        elif nwords is None and data.__class__ is np.ndarray:
            words = data.size
        else:
            words = payload_words(data, nwords)
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        me = self._ctx.rank
        envelope = ("D", seq, me, tag, data)
        if dst == me:
            # Self-sends bypass the network: nothing to lose, corrupt or ack.
            return (
                post(dst, envelope, DATA_BASE + tag, nwords=words),
                _nothing_to_wait_for(),
            )
        crc = self._checksum(dst, DATA_BASE + tag, words, envelope)
        return (
            post(dst, envelope, DATA_BASE + tag, nwords=words,
                 ack_tag=ACK_BASE + seq, crc=crc),
            self._await_ack(dst, tag, words, seq, envelope, crc),
        )

    def send(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        """Reliable blocking send: resend until acknowledged (generator).

        Raises :class:`~repro.errors.CommTimeoutError` after
        ``max_retries`` unacknowledged resends.
        """
        posting, tail = self._transmit(self._ctx.send, dst, data, tag, nwords)
        yield from posting
        yield from tail

    def _await_ack(self, dst: int, tag: int, words: int, seq: int, envelope, crc):
        """Protocol tail: wait for the destination node's verdict,
        retransmitting until it is a clean delivery.

        ``None`` on the ack channel is a plain delivery ack (done);
        :data:`~repro.sim.message.CORRUPT_VERDICT` is a NACK (the copy
        failed its checksum — resend at once); silence is a loss (resend
        after the backed-off timeout).  The engine only NACKs a message
        that carries a ``crc`` (``Engine._deliver``), so without
        a :meth:`_checksum` this tail never sees one and never reads
        ``max_nacks`` (which only the integrity layer defines).
        """
        timeout = self._rtt_estimate(words)
        attempt = nacks = 0
        while True:
            try:
                verdict = yield from self._ctx.recv(
                    dst, ACK_BASE + seq, timeout=timeout
                )
            except CommTimeoutError:
                attempt += 1
                if attempt > self.max_retries:
                    raise CommTimeoutError(
                        self.rank, dst, tag, timeout,
                        detail=f"no ack for seq {seq} after {attempt} attempts",
                    ) from None
                timeout *= self.backoff
            else:
                if verdict is None:
                    return  # clean delivery acknowledged
                if verdict != CORRUPT_VERDICT:
                    raise CommunicatorError(
                        f"unexpected verdict payload {verdict!r} "
                        f"on ack tag {ACK_BASE + seq}"
                    )
                nacks += 1
                if nacks >= self.max_nacks:
                    raise CorruptionError(
                        self.rank, dst, tag, attempts=nacks,
                        detail=f"seq {seq} rejected by every integrity check",
                    )
            self._ctx.note_retransmission()
            yield from self._ctx.send(
                dst, envelope, DATA_BASE + tag, nwords=words,
                ack_tag=ACK_BASE + seq, crc=crc,
            )

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        """Reliable blocking receive: ack and deduplicate (generator).

        Needs a concrete ``tag`` (the protocol's tag namespaces cannot
        express a wildcard); ``src`` may be :data:`ANY_SOURCE`.  With
        ``timeout`` set, raises :class:`~repro.errors.CommTimeoutError`
        when the window closes before a fresh message arrives.
        """
        if tag.__class__ is not int or not 0 <= tag < DATA_BASE:
            self._check_tag(tag)
        deadline = None if timeout is None else self._ctx.now + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - self._ctx.now
                if remaining <= 0:
                    raise CommTimeoutError(self.rank, src, tag, timeout)
            envelope = yield from self._ctx.recv(
                src, DATA_BASE + tag, timeout=remaining
            )
            _kind, seq, sender, _user_tag, payload = envelope
            key = (sender, seq)
            if key in self._seen:
                continue  # retransmitted duplicate: already delivered
            self._seen.add(key)
            return payload

    # -- nonblocking surface (deferred protocols) --------------------------

    def isend(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        """Nonblocking reliable send; complete it with :meth:`waitall`.

        The first transmission is injected into the network *now*, so a
        program that overlaps ``isend`` with compute before ``waitall``
        keeps that overlap under reliable delivery; only the ack wait
        (and any retransmissions) is deferred to ``waitall``.
        """
        posting, tail = self._transmit(self._ctx.isend, dst, data, tag, nwords)
        yield from posting
        return _ReliableHandle("send", tail)

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        """Nonblocking reliable receive; complete it with :meth:`waitall`.

        With ``timeout`` set the handle completes with
        :data:`~repro.sim.ops.TIMED_OUT` (``handle.timed_out``) instead of
        raising.
        """
        if tag.__class__ is not int or not 0 <= tag < DATA_BASE:
            self._check_tag(tag)
        return _ReliableHandle("recv", self._recv_or_timeout(src, tag, timeout))
        yield  # pragma: no cover - generator protocol compatibility

    def _recv_or_timeout(self, src: int, tag: int, timeout: float | None):
        try:
            return (yield from self.recv(src, tag, timeout=timeout))
        except CommTimeoutError:
            return TIMED_OUT

    def waitall(self, handles: Iterable[Handle | _ReliableHandle]):
        """Run every deferred protocol concurrently; returns values in order.

        A list of raw engine handles is delegated to the real context; a
        mix of raw and reliable handles is rejected (the engine's wake-up
        protocol cannot wait on another task's handle from a sub-task).
        """
        handles = list(handles)
        reliable = 0
        for h in handles:
            if h.__class__ in _RELIABLE_HANDLES:
                reliable += 1
        if not reliable:
            return (yield from self._ctx.waitall(handles))
        if reliable != len(handles):
            raise CommunicatorError(
                "cannot mix reliable and raw engine handles in one waitall"
            )
        gens = []
        for h in handles:
            if h.done:
                raise CommunicatorError("reliable handle already completed")
            gens.append(h.gen)
        values = yield from self._ctx.parallel(*gens)
        for h, v in zip(handles, values):
            h.done = True
            h.value = v
        return values

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
        """Concurrent reliable send + receive; returns the received payload.

        The two protocol conversations run as parallel sub-tasks, so the
        ring exchanges the algorithms build from ``sendrecv`` cannot
        deadlock on each other's acks.  ``timeout`` bounds the receive
        half (e.g. against a fail-stopped peer).
        """
        if self._passthrough:
            return super().sendrecv(
                dst, data, src, send_tag, recv_tag, nwords, timeout
            )
        for tag in (send_tag, recv_tag):
            if tag.__class__ is not int or not 0 <= tag < DATA_BASE:
                self._check_tag(tag)
        return self._paired(
            self.send(dst, data, send_tag, nwords),
            self.recv(src, recv_tag, timeout=timeout),
        )

    def __repr__(self) -> str:
        return (
            f"ReliableContext(rank={self.rank}, retries={self.max_retries}, "
            f"backoff={self.backoff})"
        )
