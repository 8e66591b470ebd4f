"""The chunk-lease ladder: what one chunk goes through, on either tier.

The worker pool (:mod:`repro.service.supervisor`) and the multi-host
pool (:mod:`repro.service.hostpool`) are two *transports* — processes
and pipes, heartbeats and mailbox files.  The state machine a chunk
climbs is the same under both, and it is written here once:

* a chunk waits in ``pending`` as ``(chunk, attempt, not_before)``; the
  tier leases :meth:`LeaseLadder.ready` entries in its own order;
* a lease ends in :meth:`LeaseLadder.done` (``on_chunk_done`` fires,
  exactly once per chunk) or in :meth:`LeaseLadder.failed`;
* a failed attempt below ``max_attempts`` waits out
  ``seeded_backoff(seed, chunk, failed attempt)`` and is pending again,
  one attempt higher — **the one backoff rule**, whichever tier retries
  and whatever the reason;
* a failed attempt at ``max_attempts`` **quarantines** the chunk: a
  ``None`` record in the report, never a hung sweep;
* a failure the chunk is innocent of (``consume_attempt=False``: its host
  died) keeps the attempt number and can never quarantine — but it still
  backs off, so a flapping host cannot hot-loop a chunk.

Like the tiers the ladder is journal-agnostic: ``retry`` / ``quarantine``
facts and completions go to the tier's callbacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.errors import ServiceError

__all__ = ["seeded_backoff", "ChunkOutcome", "LeaseLadder", "ChunkExecutor"]


def seeded_backoff(seed: int, chunk: int, attempt: int, base_s: float) -> float:
    """Re-lease delay: ``base * 2**(attempt-1) * u``, ``u`` uniform in
    [0.5, 1.5) from a generator seeded by ``(seed, chunk, attempt)``.

    Jittered so retry storms decorrelate, seeded so runs replay: a pure
    function of its arguments — the whole retry schedule is replayable
    from the journal, so a daemon that crashes mid-backoff resumes the
    *same* schedule (pinned by ``tests/service/test_daemon.py``).
    :meth:`LeaseLadder.failed` is its only caller, with the attempt that
    failed.
    """
    rng = random.Random(seed * 1_000_003 + chunk * 8191 + attempt)
    return base_s * (2 ** (attempt - 1)) * (0.5 + rng.random())


@dataclass
class ChunkOutcome:
    """Terminal state of one chunk: its records, or quarantine."""

    chunk: int
    records: list | None
    attempts: int
    quarantined: bool = False
    last_error: str | None = None


class PendingChunk(NamedTuple):
    """A chunk waiting for a lease: ``attempt`` is the number its next
    lease carries, ``not_before`` the clock value its backoff ends at."""

    chunk: int
    attempt: int
    not_before: float = 0.0


class LeaseLadder:
    """One ``run()``'s pending queue and outcome map.

    ``tier`` is the :class:`ChunkExecutor` running it: the ladder reads
    its ``max_attempts`` / backoff knobs, calls its ``on_event`` /
    ``on_chunk_done`` and bumps ``retries`` / ``quarantined`` /
    ``backoff_s`` on its ``counters``.  ``skip_chunks`` and
    ``initial_attempts`` are ``run()``'s (see ``Supervisor.run``).
    """

    def __init__(
        self, tier: "ChunkExecutor", n_chunks: int,
        skip_chunks: set[int] | None = None,
        initial_attempts: dict[int, int] | None = None,
    ):
        self._tier = tier
        attempts = initial_attempts or {}
        self.pending: list[PendingChunk] = [
            PendingChunk(i, attempts.get(i, 1))
            for i in range(n_chunks)
            if not skip_chunks or i not in skip_chunks
        ]
        self._todo = len(self.pending)
        self.outcomes: dict[int, ChunkOutcome] = {}

    @property
    def finished(self) -> bool:
        """Whether every chunk that was not skipped has an outcome."""
        return len(self.outcomes) == self._todo

    def ready(self, now: float, key: Callable) -> list[PendingChunk]:
        """Pending entries whose backoff is over, in the tier's lease
        order.  The tier removes what it leases from ``pending``."""
        return sorted([c for c in self.pending if c.not_before <= now], key=key)

    def done(self, chunk: int, attempt: int, records: list) -> None:
        """A lease completed.  An exception out of ``on_chunk_done``
        propagates (the ``crash-service`` injection rides on this)."""
        self.outcomes[chunk] = ChunkOutcome(chunk, records, attempts=attempt)
        self._tier.on_chunk_done(chunk, records)

    def failed(
        self, chunk: int, attempt: int, *, reason: str, detail: str,
        now: float, consume_attempt: bool = True,
    ) -> None:
        """A lease ended without records: retry after backoff, or
        quarantine."""
        tier = self._tier
        if consume_attempt and attempt >= tier.max_attempts:
            tier.counters.quarantined += 1
            self.outcomes[chunk] = ChunkOutcome(
                chunk=chunk, records=None, attempts=attempt,
                quarantined=True, last_error=f"{reason}: {detail}",
            )
            tier.on_event({
                "t": "quarantine", "chunk": chunk,
                "attempts": attempt, "reason": reason, "detail": detail,
            })
            return
        delay = seeded_backoff(
            tier.backoff_seed, chunk, attempt, tier.backoff_base_s
        )
        next_attempt = attempt + 1 if consume_attempt else attempt
        tier.counters.retries += 1
        tier.counters.backoff_s += delay
        tier.on_event({
            "t": "retry", "chunk": chunk, "attempt": next_attempt,
            "reason": reason, "detail": detail,
            "backoff_s": round(delay, 4),
        })
        self.pending.append(PendingChunk(chunk, next_attempt, now + delay))


class ChunkExecutor:
    """What the two tiers' constructors share: the ladder's knobs, the
    callbacks it reports through, the drain hook.  Each adds its
    transport and a ``run()`` of the same contract (``Supervisor.run``
    states it), so the service can swap tiers without caring which
    executes a job.
    """

    def __init__(
        self, counters, *, max_attempts: int, backoff_base_s: float,
        backoff_seed: int,
        on_event: Callable[[dict], None] | None,
        on_chunk_done: Callable[[int, list], None] | None,
        should_stop: Callable[[], bool] | None,
    ):
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_seed = int(backoff_seed)
        self.on_event = on_event or (lambda record: None)
        self.on_chunk_done = on_chunk_done or (lambda chunk, records: None)
        # Drain hook: when it turns true the run loop stops leasing,
        # abandons in-flight work (idempotent — it just re-runs later),
        # and returns the outcomes gathered so far.
        self._should_stop = should_stop or (lambda: False)
        self.drained = False
        self.counters = counters
