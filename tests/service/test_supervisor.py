"""Supervised worker pool: leases, deaths, hangs, quarantine.

These tests run real worker processes against a small sweep job; the
reference records come from evaluating the same chunks sequentially.

Lease deadlines are driven through the supervisor's injected clock
(the same injected-time discipline ``admission.py`` uses): the stall
test keeps a deadline that real time can never reach and advances a
virtual clock past it only once every healthy chunk has completed, so
a loaded CI host can be arbitrarily slow without expiring a healthy
lease or leaving the stalled one undetected.

The run loop blocks in one place, the injected ``wait`` seam (contract
of ``multiprocessing.connection.wait``); the event-loop tests observe
every block through it.
"""

from __future__ import annotations

import itertools
import time
from multiprocessing import connection

import pytest

from repro.analysis.parallel import plan_chunks
from repro.service.chaos import ChaosPolicy
from repro.service.jobs import build_cells, evaluate_chunk, make_spec
from repro.service import supervisor as supervisor_mod
from repro.service.lease import seeded_backoff
from repro.service.supervisor import Supervisor


class VirtualClock:
    """Monotonic clock plus a test-controlled offset.

    Real time keeps flowing (workers are real processes), but the test
    decides when whole virtual hours pass — deadline expiry becomes an
    explicit test action instead of a race against host load.
    """

    def __init__(self):
        self._offset = 0.0

    def __call__(self) -> float:
        return time.monotonic() + self._offset

    def advance(self, seconds: float) -> None:
        self._offset += seconds

PARAMS = {
    "algorithms": ["cannon", "berntsen"],
    "variable": "n",
    "values": [64.0, 128.0, 256.0, 512.0],
    "p": 64,
}


@pytest.fixture(scope="module")
def job():
    spec = make_spec("sweep", PARAMS)
    cells = build_cells(spec)
    plan = plan_chunks(len(cells), 2, 1)  # one cell per chunk
    reference = {
        i: evaluate_chunk(spec.kind, spec.params, cells[start:stop])
        for i, (start, stop) in enumerate(plan)
    }
    return spec, cells, plan, reference


def _run(job, *, chaos=None, events=None, **kw):
    spec, cells, plan, _ = job
    supervisor = Supervisor(
        workers=2,
        chaos=chaos,
        on_event=events.append if events is not None else None,
        **kw,
    )
    return supervisor.run(spec.kind, spec.params, cells, plan)


def test_clean_run_matches_sequential(job):
    _, _, plan, reference = job
    outcomes = _run(job)
    assert sorted(outcomes) == list(range(len(plan)))
    for i, outcome in outcomes.items():
        assert not outcome.quarantined
        assert outcome.attempts == 1
        assert outcome.records == reference[i]


def test_killed_worker_is_respawned_and_chunk_retried(job):
    _, _, plan, reference = job
    events = []
    outcomes = _run(
        job,
        chaos=ChaosPolicy(kill_at_chunks=frozenset({1})),
        events=events,
        backoff_base_s=0.01,
    )
    assert outcomes[1].attempts == 2
    retries = [e for e in events if e["t"] == "retry"]
    assert [e["chunk"] for e in retries] == [1]
    assert retries[0]["reason"] == "worker-died"
    # The retried chunk recomputes bit-identical records.
    for i in range(len(plan)):
        assert outcomes[i].records == reference[i]


def test_stalled_worker_lease_expires(job):
    _, _, plan, reference = job
    events = []
    clock = VirtualClock()
    done: set[int] = set()
    expired = False

    def wait(objects, timeout):
        # A real, short wait keeps the loop polite; the virtual jump
        # fires exactly once, after every healthy chunk has reported, so
        # the only lease it can expire is the stalled one.
        nonlocal expired
        ready = connection.wait(objects, min(timeout, 0.005))
        if not expired and len(done) == len(plan) - 1:
            clock.advance(7201.0)
            expired = True
        return ready

    outcomes = _run(
        job,
        chaos=ChaosPolicy(
            stall_at_chunks=frozenset({2}), stall_seconds=3600.0
        ),
        events=events,
        chunk_deadline_s=7200.0,
        backoff_base_s=0.01,
        clock=clock,
        wait=wait,
        on_chunk_done=lambda chunk, records: done.add(chunk),
    )
    assert outcomes[2].attempts == 2
    reasons = {e["chunk"]: e["reason"] for e in events if e["t"] == "retry"}
    assert reasons == {2: "lease-expired"}
    for i in range(len(plan)):
        assert outcomes[i].records == reference[i]


def test_poison_chunk_quarantined_never_hangs(job):
    _, _, plan, reference = job
    events = []
    outcomes = _run(
        job,
        chaos=ChaosPolicy(poison_chunks=frozenset({0})),
        events=events,
        max_attempts=2,
        backoff_base_s=0.01,
    )
    assert outcomes[0].quarantined
    assert outcomes[0].records is None
    assert outcomes[0].attempts == 2
    assert any(e["t"] == "quarantine" and e["chunk"] == 0 for e in events)
    # Healthy chunks still complete, correctly.
    for i in range(1, len(plan)):
        assert not outcomes[i].quarantined
        assert outcomes[i].records == reference[i]


def test_skip_chunks_not_executed(job):
    spec, cells, plan, reference = job
    supervisor = Supervisor(workers=2)
    outcomes = supervisor.run(
        spec.kind, spec.params, cells, plan, skip_chunks={0, 2}
    )
    assert sorted(outcomes) == [1, 3]
    assert outcomes[1].records == reference[1]


def test_lease_events_cover_all_chunks(job):
    _, _, plan, _ = job
    events = []
    _run(job, events=events)
    leased = [e["chunk"] for e in events if e["t"] == "lease"]
    assert sorted(leased) == list(range(len(plan)))
    # Every lease names its cell range so replay can audit the plan.
    for e in events:
        if e["t"] == "lease":
            assert e["cells"] == list(plan[e["chunk"]])


def test_initial_attempts_continue_seeded_backoff(job):
    # A restarted daemon replays journaled attempt counters into
    # ``initial_attempts``: the poisoned chunk resumes mid-schedule
    # (attempt 2 of 3) instead of restarting at attempt 1.
    spec, cells, plan, _ = job
    events = []
    supervisor = Supervisor(
        workers=2,
        chaos=ChaosPolicy(poison_chunks=frozenset({0})),
        on_event=events.append,
        max_attempts=3,
        backoff_base_s=0.01,
    )
    outcomes = supervisor.run(
        spec.kind, spec.params, cells, plan, initial_attempts={0: 2},
    )
    assert outcomes[0].quarantined
    assert outcomes[0].attempts == 3
    retries = [e for e in events if e["t"] == "retry" and e["chunk"] == 0]
    assert [e["attempt"] for e in retries] == [3]  # 2 -> 3, never back to 1
    assert retries[0]["backoff_s"] == round(seeded_backoff(0, 0, 2, 0.01), 4)


def test_should_stop_drains_before_any_lease(job):
    spec, cells, plan, _ = job
    supervisor = Supervisor(workers=2, should_stop=lambda: True)
    outcomes = supervisor.run(spec.kind, spec.params, cells, plan)
    assert supervisor.drained
    assert outcomes == {}


def test_loop_never_blocks_on_ready_work(job):
    # Observed at every block: (1) the result pipe is waited on, and a
    # report queued at entry is handed back at once, so the loop cannot
    # sleep on an undrained report; (2) a ready pending chunk and an idle
    # live worker never coexist — collect runs before assign, so the
    # worker that just reported is re-leased before the loop blocks;
    # (3) exactly the busy workers' sentinels are watched.
    spec, cells, plan, reference = job
    workers = 2
    leased: list[int] = []
    done: list[int] = []
    blocks = 0

    def wait(objects, timeout):
        nonlocal blocks
        blocks += 1
        reader, sentinels = objects[0], objects[1:]
        inflight = len(leased) - len(done)
        unleased = len(plan) - len(leased)  # attempt 1: ready from t=0
        assert inflight == len(sentinels)
        assert not (unleased and workers - inflight), (
            f"blocked with {unleased} ready chunk(s) and "
            f"{workers - inflight} idle worker(s)"
        )
        assert 0.0 <= timeout <= supervisor_mod._POLL_S
        queued = reader.poll()
        ready = connection.wait(objects, timeout)
        if queued:
            assert reader in ready
        return ready

    supervisor = Supervisor(
        workers=workers,
        wait=wait,
        on_event=lambda e: e["t"] == "lease" and leased.append(e["chunk"]),
        on_chunk_done=lambda chunk, records: done.append(chunk),
    )
    outcomes = supervisor.run(spec.kind, spec.params, cells, plan)
    assert sorted(done) == list(range(len(plan)))
    for i in range(len(plan)):
        assert outcomes[i].records == reference[i]
    counters = supervisor.counters
    assert blocks == (counters.wakes_result + counters.wakes_worker_exit
                      + counters.wakes_timeout)
    assert counters.wakes_result >= 1
    assert counters.wakes_worker_exit == 0
    assert counters.wait_s > 0.0


@pytest.mark.parametrize("scenario", ["clean", "kill-worker", "poison-chunk"])
def test_events_wake_the_loop_not_the_cap(job, monkeypatch, scenario):
    # With the stop-check cap at 30 s, a run that relied on it for a
    # single wake-up would miss the 5 s bound.  One worker, so nothing
    # else can wake the loop on the event's behalf: a result (clean), the
    # only worker's death (kill-worker: no report will ever come) and a
    # backoff expiry (poison-chunk on the last chunk: the retry becomes
    # ready with the worker idle and nothing in flight) must each wake it
    # themselves, by event or by the computed timeout.
    monkeypatch.setattr(supervisor_mod, "_POLL_S", 30.0)
    spec, cells, plan, reference = job
    chaos = {
        "clean": None,
        "kill-worker": ChaosPolicy(kill_at_chunks=frozenset({1})),
        "poison-chunk": ChaosPolicy(poison_chunks=frozenset({3})),
    }[scenario]
    supervisor = Supervisor(
        workers=1, chaos=chaos, max_attempts=2, backoff_base_s=0.01,
    )
    start = time.monotonic()
    outcomes = supervisor.run(spec.kind, spec.params, cells, plan)
    assert time.monotonic() - start < 5.0
    counters = supervisor.counters
    poisoned = {3} if scenario == "poison-chunk" else set()
    if scenario == "clean":
        assert counters.wakes_result == len(plan)
        assert counters.wakes_worker_exit == counters.wakes_timeout == 0
    elif scenario == "kill-worker":
        assert outcomes[1].attempts == 2
        assert counters.wakes_worker_exit == 1
    else:
        assert outcomes[3].quarantined
        assert counters.wakes_timeout >= 1
    for i in set(range(len(plan))) - poisoned:
        assert outcomes[i].records == reference[i]


def test_a_retry_due_before_the_block_is_not_slept_on(job):
    # A failed chunk's backoff can run out between the loop's clock read
    # for _assign and _block's own read, with the worker idle: nothing
    # will wake the loop for it, so that block must not wait at all.
    # Every read of this clock is a virtual second later, far past any
    # backoff, so each retry is due by the time the loop blocks.
    spec, cells, plan, reference = job
    ticks = itertools.count()
    retrying: set[int] = set()
    due_timeouts: list[float] = []

    def on_event(event):
        if event["t"] == "retry":
            retrying.add(event["chunk"])
        elif event["t"] == "lease":
            retrying.discard(event["chunk"])

    def wait(objects, timeout):
        if retrying and len(objects) == 1:  # the only worker is idle
            due_timeouts.append(timeout)
        return connection.wait(objects, min(timeout, 0.05))

    supervisor = Supervisor(
        workers=1,
        chaos=ChaosPolicy(poison_chunks=frozenset({3})),
        max_attempts=2,
        backoff_base_s=0.01,
        chunk_deadline_s=1e9,
        on_event=on_event,
        clock=lambda: float(next(ticks)),
        wait=wait,
    )
    outcomes = supervisor.run(spec.kind, spec.params, cells, plan)
    assert outcomes[3].quarantined
    assert due_timeouts == [0.0]
    for i in range(3):
        assert outcomes[i].records == reference[i]


def test_death_right_after_a_report_cannot_wedge_the_result_pipe(job):
    # The event loop re-leases a worker microseconds after its report
    # lands; with kill-worker on the next chunk the worker then dies that
    # soon after writing.  A result queue with a feeder thread could die
    # holding the shared write lock (about one run in three), after which
    # no replacement could ever report: every later lease expired.
    spec, cells, plan, reference = job
    for _ in range(10):
        supervisor = Supervisor(
            workers=1,
            chaos=ChaosPolicy(kill_at_chunks=frozenset({1})),
            backoff_base_s=0.001,
            chunk_deadline_s=2.0,
        )
        outcomes = supervisor.run(spec.kind, spec.params, cells, plan)
        assert supervisor.counters.lease_expiries == 0
        assert supervisor.counters.worker_deaths == 1
        for i in range(len(plan)):
            assert outcomes[i].records == reference[i]


def test_drain_with_a_busy_worker_returns_promptly(job):
    # Regression: teardown used to join every worker against a shared
    # 2 s deadline although only idle ones had been sent the shutdown
    # sentinel, so a drain with a lease in flight hung for the full 2 s.
    spec, cells, plan, _ = job
    done: list[int] = []
    supervisor = Supervisor(
        workers=2,
        chaos=ChaosPolicy(
            stall_at_chunks=frozenset({1}), stall_seconds=3600.0
        ),
        on_chunk_done=lambda chunk, records: done.append(chunk),
        should_stop=lambda: bool(done),
    )
    start = time.monotonic()
    outcomes = supervisor.run(spec.kind, spec.params, cells, plan)
    elapsed = time.monotonic() - start
    assert supervisor.drained
    assert 1 not in outcomes
    assert elapsed < 1.0
