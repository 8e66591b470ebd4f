"""Multi-host pool: grants, heartbeats, epoch fencing, fallback.

Every test is single-threaded and clock-injected: the pool's ``sleep``
hook advances a virtual wall clock and (optionally) steps an in-process
:class:`HostAgent`, so host "concurrency" is fully deterministic — the
same discipline the supervisor tests use.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service import hostpool as hostpool_mod
from repro.service.chaos import ChaosPolicy
from repro.service.hostpool import (
    HostAgent,
    HostPool,
    _Lease,
    host_status,
)
from repro.service.jobs import build_cells, evaluate_chunk, make_spec
from repro.service.lease import LeaseLadder, seeded_backoff
from repro.service.supervisor import Supervisor
from repro.analysis.parallel import plan_chunks

SWEEP = {
    "algorithms": ["cannon"],
    "variable": "n",
    "values": [64, 128, 256, 512],
    "p": 64,
}


class WallClock:
    """Injectable wall clock shared by pool and agents."""

    def __init__(self, start=1_000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _job(chunk_size=1):
    spec = make_spec("sweep", dict(SWEEP))
    cells = build_cells(spec)
    plan = plan_chunks(len(cells), jobs=2, chunk_size=chunk_size)
    return spec, cells, plan


def _expected_records(spec, cells, plan):
    out = {}
    for i, (start, stop) in enumerate(plan):
        out[i] = evaluate_chunk(spec.kind, spec.params, cells[start:stop])
    return out


def _pool(tmp_path, clock, sleeper, **kw):
    kw.setdefault("stale_after_s", 5.0)
    kw.setdefault("backoff_base_s", 0.01)
    return HostPool(
        tmp_path / "hosts", clock=clock, sleep=sleeper, **kw
    )


def test_agent_executes_granted_chunks_end_to_end(tmp_path):
    clock = WallClock()
    agent = HostAgent(
        tmp_path / "hosts", "h1", clock=clock, sleep=lambda s: None,
    )
    agent.heartbeat()

    def sleeper(_):
        agent.step()
        clock.advance(0.1)

    events = []
    done = []
    pool = _pool(
        tmp_path, clock, sleeper,
        on_event=events.append,
        on_chunk_done=lambda c, r: done.append(c),
        local_fallback=False,
    )
    spec, cells, plan = _job()
    outcomes = pool.run(spec.kind, spec.params, cells, plan)

    expected = _expected_records(spec, cells, plan)
    assert sorted(outcomes) == sorted(expected)
    for i, outcome in outcomes.items():
        assert not outcome.quarantined
        assert outcome.records == expected[i]
    assert sorted(done) == sorted(expected)
    leases = [e for e in events if e["t"] == "hlease"]
    assert leases and all(e["host"] == "h1" for e in leases)
    # Spans are contiguous: every grant covers consecutive chunks.
    for e in leases:
        chunks = e["chunks"]
        assert chunks == list(range(chunks[0], chunks[-1] + 1))


def test_local_fallback_when_no_hosts(tmp_path):
    clock = WallClock()
    pool = _pool(tmp_path, clock, lambda s: clock.advance(0.1))
    spec, cells, plan = _job(chunk_size=2)
    outcomes = pool.run(spec.kind, spec.params, cells, plan)
    assert sorted(outcomes) == list(range(len(plan)))
    assert pool.counters.local_fallback == len(plan)
    assert pool.counters.grants == 0
    assert outcomes[0].records == _expected_records(spec, cells, plan)[0]


def test_stale_host_revoked_and_resharded(tmp_path):
    """A host that takes a lease and stops heartbeating is detected via
    heartbeat age; its chunks are re-leased (here: to local fallback)
    and its epoch is bumped on disk."""
    clock = WallClock()
    agent = HostAgent(
        tmp_path / "hosts", "flaky", clock=clock, sleep=lambda s: None,
    )
    agent.heartbeat()
    state = {"ticks": 0}

    def sleeper(_):
        # The agent never runs a task — it just goes silent while the
        # clock sails past the staleness horizon.
        state["ticks"] += 1
        clock.advance(2.0)

    events = []
    pool = _pool(tmp_path, clock, sleeper, on_event=events.append)
    spec, cells, plan = _job(chunk_size=2)
    outcomes = pool.run(spec.kind, spec.params, cells, plan)

    assert sorted(outcomes) == list(range(len(plan)))
    assert all(not o.quarantined for o in outcomes.values())
    assert pool.counters.revocations >= 1
    revokes = [e for e in events if e["t"] == "hrevoke"]
    assert revokes and revokes[0]["host"] == "flaky"
    lease = json.loads(
        (tmp_path / "hosts" / "flaky" / "LEASE").read_text()
    )
    assert lease["epoch"] >= 1
    # Ungranted tasks were cleared from the revoked host's inbox.
    assert not list((tmp_path / "hosts" / "flaky" / "inbox").glob("*.json"))


def test_stale_epoch_result_rejected(tmp_path):
    """The split-brain fence: a result echoing a pre-revocation epoch is
    discarded, even if the chunk id matches a live lease."""
    clock = WallClock()
    pool = _pool(tmp_path, clock, lambda s: None)
    hdir = tmp_path / "hosts" / "zombie"
    (hdir / "outbox").mkdir(parents=True)
    pool._host("zombie").epoch = 3
    inflight = {0: _Lease(host="zombie", attempt=1, epoch=3)}
    (hdir / "outbox" / "res-000001.json").write_text(json.dumps({
        "chunk": 0, "attempt": 1, "epoch": 2,  # stale epoch
        "status": "done", "records": "",
    }))
    ladder = LeaseLadder(pool, 0)
    pool._collect(ladder, inflight, clock())
    assert ladder.outcomes == {} and ladder.pending == []
    assert 0 in inflight  # the real lease is still awaited
    assert pool.counters.stale_results == 1


def test_token_bucket_paces_grants(tmp_path):
    """``rate=0, burst=1`` gives a host exactly one grant ever; the
    anti-deadlock fallback absorbs the rest instead of hanging."""
    clock = WallClock()
    agent = HostAgent(
        tmp_path / "hosts", "h1", clock=clock, sleep=lambda s: None,
        heartbeat_s=0.01,
    )
    agent.heartbeat()

    def sleeper(_):
        agent.step()
        clock.advance(0.05)

    pool = _pool(
        tmp_path, clock, sleeper, span=1, host_rate=0.0, host_burst=1.0,
    )
    spec, cells, plan = _job()
    outcomes = pool.run(spec.kind, spec.params, cells, plan)
    assert sorted(outcomes) == list(range(len(plan)))
    assert pool.counters.grants == 1
    assert pool.counters.local_fallback == len(plan) - 1


def test_agent_reports_errors_and_pool_quarantines(tmp_path):
    clock = WallClock()
    agent = HostAgent(
        tmp_path / "hosts", "h1", clock=clock, sleep=lambda s: None,
    )
    agent.heartbeat()
    (agent.dir / "inbox").mkdir(parents=True)
    (agent.dir / "inbox" / "task-000001.json").write_text(json.dumps({
        "chunk": 0, "attempt": 1, "epoch": 0,
        "kind": "no-such-kind", "params": "gA==", "cells": "gA==",
    }))
    agent.step()
    results = list((agent.dir / "outbox").glob("res-*.json"))
    assert len(results) == 1
    body = json.loads(results[0].read_text())
    assert body["status"] == "error" and body["chunk"] == 0

    # Pool side: an error report consumes the attempt budget and
    # eventually quarantines.
    events = []
    pool = _pool(
        tmp_path, clock, lambda s: None, max_attempts=1,
        on_event=events.append,
    )
    inflight = {0: _Lease(host="h1", attempt=1, epoch=0)}
    ladder = LeaseLadder(pool, 0)
    pool._collect(ladder, inflight, clock())
    assert ladder.outcomes[0].quarantined
    assert [e["t"] for e in events] == ["quarantine"]


def test_agent_stop_file_drains(tmp_path):
    clock = WallClock()
    agent = HostAgent(
        tmp_path / "hosts", "h1", clock=clock,
        sleep=lambda s: clock.advance(s),
    )
    (agent.dir).mkdir(parents=True)
    (agent.dir / "STOP").touch()
    assert agent.run() == 0
    assert not (agent.dir / "STOP").exists()


def test_host_status_reports_liveness(tmp_path):
    clock = WallClock()
    fresh = HostAgent(tmp_path / "hosts", "fresh", clock=clock)
    fresh.heartbeat()
    stale = HostAgent(tmp_path / "hosts", "stale", clock=clock)
    stale.heartbeat()
    clock.advance(60.0)
    fresh.heartbeat()
    rows = host_status(
        tmp_path / "hosts", stale_after_s=5.0, now=clock(),
    )
    assert {r["host"]: r["alive"] for r in rows} == {
        "fresh": True, "stale": False,
    }
    assert rows[1]["heartbeat_age_s"] == pytest.approx(60.0)


def test_bad_host_id_rejected(tmp_path):
    for bad in ("", "../evil", ".hidden"):
        with pytest.raises(ServiceError):
            HostAgent(tmp_path / "hosts", bad)


def test_drain_returns_partial_outcomes(tmp_path):
    clock = WallClock()
    calls = {"n": 0}

    def should_stop():
        calls["n"] += 1
        return calls["n"] > 2

    pool = _pool(
        tmp_path, clock, lambda s: clock.advance(0.1),
        should_stop=should_stop,
    )
    spec, cells, plan = _job()
    outcomes = pool.run(spec.kind, spec.params, cells, plan)
    assert pool.drained
    assert len(outcomes) < len(plan)


# -- one ladder: both tiers journal the same retry schedule ------------------


def _schedule(events):
    """What a journal would replay of chunk 0's climb."""
    return [
        (e["t"], e.get("attempt", e.get("attempts")), e.get("backoff_s"))
        for e in events
        if e["t"] in ("retry", "quarantine") and e["chunk"] == 0
    ]


def test_both_tiers_journal_the_same_retry_schedule(tmp_path, monkeypatch):
    """Chunk 0 fails on every attempt; ``max_attempts=3``.  Through the
    worker pool (poison-chunk chaos), through an agent reporting
    ``error`` and through the local fallback, the retry records carry the
    same attempt numbers and the same ``backoff_s`` — each the seeded
    backoff of the attempt that failed."""
    spec, cells, plan = _job()
    knobs = dict(max_attempts=3, backoff_base_s=0.01, backoff_seed=0)

    worker_events = []
    Supervisor(
        workers=1, chaos=ChaosPolicy(poison_chunks=frozenset({0})),
        on_event=worker_events.append, **knobs,
    ).run(spec.kind, spec.params, cells, plan)

    poisoned = cells[slice(*plan[0])]

    def poisoned_evaluate(kind, params, chunk_cells):
        if chunk_cells == poisoned:
            raise RuntimeError("poisoned cell")
        return evaluate_chunk(kind, params, chunk_cells)

    monkeypatch.setattr(hostpool_mod, "evaluate_chunk", poisoned_evaluate)

    clock = WallClock()
    agent = HostAgent(
        tmp_path / "a" / "hosts", "h1", clock=clock, sleep=lambda s: None,
    )
    agent.heartbeat()

    def sleeper(_):
        agent.step()
        clock.advance(0.1)

    agent_events = []
    agent_pool = HostPool(
        tmp_path / "a" / "hosts", clock=clock, sleep=sleeper,
        on_event=agent_events.append, local_fallback=False, **knobs,
    )
    outcomes = agent_pool.run(spec.kind, spec.params, cells, plan)
    assert outcomes[0].quarantined
    assert outcomes[0].last_error == "host-error: RuntimeError: poisoned cell"

    local_events = []
    local_pool = HostPool(
        tmp_path / "b" / "hosts", clock=clock,
        sleep=lambda s: clock.advance(0.1),
        on_event=local_events.append, **knobs,
    )
    outcomes = local_pool.run(spec.kind, spec.params, cells, plan)
    assert outcomes[0].quarantined and local_pool.counters.grants == 0

    expected = [
        ("retry", 2, round(seeded_backoff(0, 0, 1, 0.01), 4)),
        ("retry", 3, round(seeded_backoff(0, 0, 2, 0.01), 4)),
        ("quarantine", 3, None),
    ]
    assert _schedule(worker_events) == expected
    assert _schedule(agent_events) == expected
    assert _schedule(local_events) == expected
    assert agent_pool.counters.backoff_s == local_pool.counters.backoff_s > 0.0


def test_host_death_keeps_the_attempt_and_its_backoff(tmp_path):
    clock = WallClock()
    events = []
    pool = _pool(tmp_path, clock, lambda s: None, max_attempts=1,
                 on_event=events.append)
    (tmp_path / "hosts" / "gone").mkdir(parents=True)
    ladder = LeaseLadder(pool, 1)
    ladder.pending.clear()
    pool._police(ladder, {0: _Lease(host="gone", attempt=1, epoch=0)}, clock())
    (retry,) = [e for e in events if e["t"] == "retry"]
    assert (retry["attempt"], retry["reason"]) == (1, "host-died")
    assert retry["backoff_s"] == round(seeded_backoff(0, 0, 1, 0.01), 4)
    assert ladder.pending[0].attempt == 1 and ladder.outcomes == {}
