"""The chunk-lease ladder alone: no processes, no filesystem.

Both tiers run on this state machine, so what it decides is tested here
once, with plain lists behind the callbacks.  The pinned event and
outcome values were recorded from ``Supervisor`` (poison-chunk 0,
``max_attempts=3``, ``backoff_base_s=0.01``, seed 0) at the commit before
the ladder was factored out of it.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service.lease import (
    ChunkExecutor,
    ChunkOutcome,
    LeaseLadder,
    seeded_backoff,
)
from repro.service.supervisor import SupervisorCounters


class Tier(ChunkExecutor):
    """The shared base with lists behind its callbacks."""

    def __init__(self, **kw):
        self.events: list[dict] = []
        self.completions: list[tuple[int, list]] = []
        kw.setdefault("max_attempts", 3)
        kw.setdefault("backoff_base_s", 0.01)
        kw.setdefault("backoff_seed", 0)
        super().__init__(
            SupervisorCounters(), on_event=self.events.append,
            on_chunk_done=lambda c, r: self.completions.append((c, r)),
            should_stop=None, **kw,
        )


def _by_chunk(entry):
    return entry.chunk


def test_prologue_skips_done_chunks_and_resumes_attempts():
    ladder = LeaseLadder(Tier(), 5, {1, 3}, {2: 3, 3: 2})
    assert [(c.chunk, c.attempt, c.not_before) for c in ladder.pending] == [
        (0, 1, 0.0), (2, 3, 0.0), (4, 1, 0.0),
    ]
    assert ladder.outcomes == {} and not ladder.finished
    assert LeaseLadder(Tier(), 2, {0, 1}).finished  # nothing left to do
    assert LeaseLadder(Tier(), 0).finished


def test_ready_honours_not_before_and_the_callers_order():
    ladder = LeaseLadder(Tier(), 3)
    ladder.pending.remove(ladder.pending[0])
    ladder.failed(0, 1, reason="error", detail="boom", now=100.0)
    (retry,) = [c for c in ladder.pending if c.chunk == 0]
    assert [c.chunk for c in ladder.ready(100.0, _by_chunk)] == [1, 2]
    assert [c.chunk for c in ladder.ready(retry.not_before, _by_chunk)] == [
        0, 1, 2,
    ]
    # The worker tier's order: a matured retry waits behind nothing older.
    oldest_first = ladder.ready(200.0, lambda c: (c.not_before, c.chunk))
    assert [c.chunk for c in oldest_first] == [1, 2, 0]
    assert len(ladder.pending) == 3  # ready() leases nothing itself


def test_failed_below_the_cap_retries_after_the_failed_attempts_backoff():
    tier = Tier(backoff_seed=7, backoff_base_s=0.5)
    ladder = LeaseLadder(tier, 4, None, {3: 2})
    ladder.pending.clear()
    ladder.failed(3, 2, reason="lease-expired", detail="late", now=10.0)
    delay = seeded_backoff(7, 3, 2, 0.5)
    assert ladder.pending == [(3, 3, 10.0 + delay)]
    assert ladder.outcomes == {}
    assert tier.events == [{
        "t": "retry", "chunk": 3, "attempt": 3, "reason": "lease-expired",
        "detail": "late", "backoff_s": round(delay, 4),
    }]
    assert (tier.counters.retries, tier.counters.quarantined) == (1, 0)
    assert tier.counters.backoff_s == delay


def test_failed_at_the_cap_quarantines_with_last_error():
    tier = Tier(max_attempts=2)
    ladder = LeaseLadder(tier, 1)
    ladder.pending.clear()
    ladder.failed(0, 2, reason="error", detail="ValueError: bad cell", now=5.0)
    assert ladder.pending == []
    assert ladder.outcomes == {0: ChunkOutcome(
        chunk=0, records=None, attempts=2, quarantined=True,
        last_error="error: ValueError: bad cell",
    )}
    assert ladder.finished
    assert (tier.counters.retries, tier.counters.quarantined) == (0, 1)
    assert tier.completions == []  # a quarantine is not a completion


def test_innocent_failure_never_quarantines_and_never_advances():
    tier = Tier(max_attempts=1)
    ladder = LeaseLadder(tier, 1)
    ladder.pending.clear()
    now = 0.0
    for _ in range(5):  # five host deaths at the attempt cap
        ladder.failed(0, 1, reason="host-died", detail="h1 went stale",
                      now=now, consume_attempt=False)
        (entry,) = ladder.pending
        assert entry.attempt == 1
        assert entry.not_before == now + seeded_backoff(0, 0, 1, 0.01)
        ladder.pending.clear()
        now += 1.0
    assert ladder.outcomes == {} and tier.counters.quarantined == 0
    assert [e["attempt"] for e in tier.events] == [1] * 5
    assert tier.counters.retries == 5


def test_done_fires_on_chunk_done_once_and_finishes_the_run():
    tier = Tier()
    ladder = LeaseLadder(tier, 3, {1})
    ladder.pending.clear()
    ladder.done(2, 1, ["r2"])
    assert tier.completions == [(2, ["r2"])]
    assert not ladder.finished  # chunk 0 has no outcome yet
    ladder.done(0, 2, ["r0"])
    assert tier.completions == [(2, ["r2"]), (0, ["r0"])]
    assert ladder.finished
    assert ladder.outcomes[0] == ChunkOutcome(chunk=0, records=["r0"], attempts=2)
    assert tier.events == []  # completions are not events


def test_an_exception_out_of_on_chunk_done_propagates_after_the_outcome():
    tier = Tier()

    def crash(chunk, records):
        raise RuntimeError("crash-service")

    tier.on_chunk_done = crash
    ladder = LeaseLadder(tier, 1)
    with pytest.raises(RuntimeError):
        ladder.done(0, 1, [])
    assert 0 in ladder.outcomes


def test_events_and_outcome_equal_what_the_supervisor_journaled():
    tier = Tier()
    ladder = LeaseLadder(tier, 1)
    ladder.pending.clear()
    for attempt in (1, 2, 3):
        ladder.failed(0, attempt, reason="worker-died",
                      detail="exit code 137", now=0.0)
    assert tier.events == [
        {"t": "retry", "chunk": 0, "attempt": 2, "reason": "worker-died",
         "detail": "exit code 137", "backoff_s": 0.0063},
        {"t": "retry", "chunk": 0, "attempt": 3, "reason": "worker-died",
         "detail": "exit code 137", "backoff_s": 0.0291},
        {"t": "quarantine", "chunk": 0, "attempts": 3,
         "reason": "worker-died", "detail": "exit code 137"},
    ]
    assert ladder.outcomes[0] == ChunkOutcome(
        chunk=0, records=None, attempts=3, quarantined=True,
        last_error="worker-died: exit code 137",
    )
    assert round(tier.counters.backoff_s, 4) == 0.0355


def test_shared_base_checks_max_attempts_and_defaults_the_callbacks():
    with pytest.raises(ServiceError):
        Tier(max_attempts=0)
    bare = ChunkExecutor(
        SupervisorCounters(), max_attempts=1, backoff_base_s=0.05,
        backoff_seed=0, on_event=None, on_chunk_done=None, should_stop=None,
    )
    ladder = LeaseLadder(bare, 1)
    ladder.done(0, 1, [])            # default on_chunk_done
    LeaseLadder(bare, 1).failed(0, 1, reason="error", detail="x", now=0.0)
    assert bare.counters.quarantined == 1 and not bare.drained
