"""End-to-end message integrity over a corrupting simulated network.

:class:`~repro.mpi.reliable.ReliableContext` recovers from *lost*
messages, but a :class:`~repro.sim.faults.LinkCorruption` fault does not
lose anything — it silently flips payload bits in flight and the message
arrives looking perfectly healthy.  :class:`IntegrityContext` closes that
hole with the classic checksum-at-send / verify-at-delivery pattern:

* every data envelope carries a **CRC32 of the canonical header+payload
  bytes** (:func:`~repro.sim.message.message_crc`), computed at send time
  over the uncorrupted buffer,
* the destination *node* re-computes the checksum at delivery (the same
  hardware-style hook that generates delivery acks); a mismatch discards
  the corrupted copy — it never reaches the application — and sends a
  **NACK** (:data:`~repro.sim.message.CORRUPT_VERDICT` on the ack
  channel) so the sender retransmits immediately,
* lost messages and lost verdicts still fall through to the inherited
  timeout / exponential-backoff retransmission ladder, so the layer
  handles drops *and* corruption with one protocol,
* a transfer that keeps failing verification past ``max_nacks``
  retransmissions escalates to :class:`~repro.errors.CorruptionError` —
  corruption this persistent is a deterministic fault (e.g. a corrupting
  sender), not line noise, and retrying forever would livelock.

The checksum covers the full reliable-delivery envelope (sequence number,
sender, tag and payload), so corruption anywhere in the message is
detected.  Note the injected fault model only perturbs float64 payload
words — protocol integers ride in the envelope's header fields, which is
the simulated analogue of link-level CRCs already protecting headers on
real interconnects.

Like its base class, :class:`IntegrityContext` presents the
:class:`~repro.sim.process.ProcessContext` surface and fast-paths to
plain delivery when the machine's fault plan can neither lose nor corrupt
messages, so fault-free runs cost exactly 1.0x baseline::

    result = algorithm.run(A, B, config, context_factory=IntegrityContext)
"""

from __future__ import annotations

from repro.errors import CommunicatorError
from repro.mpi.reliable import ReliableContext
from repro.sim.message import message_crc
from repro.sim.process import ProcessContext

__all__ = ["IntegrityContext"]


class IntegrityContext(ReliableContext):
    """A :class:`~repro.mpi.reliable.ReliableContext` whose transfers are
    additionally protected by end-to-end checksums (CRC attach / verify /
    NACK / retransmit).

    Parameters are those of :class:`~repro.mpi.reliable.ReliableContext`
    plus ``max_nacks``: the number of integrity-rejected retransmissions
    tolerated per message before the send raises
    :class:`~repro.errors.CorruptionError`.

    The protocol itself is the base class's: this layer only attaches a
    checksum to every copy (:meth:`_checksum`), which is what makes the
    destination node verify it and the inherited ack tail see NACKs.
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
        max_nacks: int = 10,
    ):
        if max_nacks < 1:
            raise CommunicatorError(f"max_nacks must be >= 1, got {max_nacks}")
        self.max_nacks = max_nacks
        super().__init__(
            ctx,
            ack_timeout=ack_timeout,
            max_retries=max_retries,
            backoff=backoff,
            slack=slack,
            force_protocol=force_protocol,
        )

    @staticmethod
    def _harmless(plan) -> bool:
        # The base class fast-paths whenever the plan cannot *lose*
        # messages; integrity must also stay engaged when it can corrupt.
        return plan.lossless and not plan.can_corrupt

    def _checksum(self, dst: int, wire_tag: int, words: int, envelope) -> int:
        """CRC32 of the canonical header+payload bytes, computed at send
        time over the uncorrupted buffer."""
        return message_crc(self._ctx.rank, dst, wire_tag, words, envelope)

    def __repr__(self) -> str:
        return (
            f"IntegrityContext(rank={self.rank}, retries={self.max_retries}, "
            f"nacks={self.max_nacks})"
        )
