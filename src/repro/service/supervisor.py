"""Supervised worker pool: the chunk-lease ladder over processes and pipes.

The supervisor turns *"a pool of processes that dies with its weakest
member"* into *"a pool that outlives any of them"*.  It owns real
worker processes and leases grid chunks to them one at a time:

* each lease carries a **deadline** (``chunk_deadline_s``); a worker
  that neither finishes nor dies by then is declared hung, SIGKILLed,
  and replaced — the discrete-event engine's timeout discipline applied
  to the host;
* a worker that **dies** mid-lease (crash, OOM kill, injected
  ``kill-worker``) is detected by process liveness and a fresh worker
  replaces it;
* what happens to the chunk then — **seeded exponential backoff** and a
  re-lease, or **quarantine** after ``max_attempts`` — is the
  :class:`~repro.service.lease.LeaseLadder`'s decision, the same one the
  multi-host tier gets.

Determinism: chunk payloads are pure functions of ``(kind, params,
cells)``, and the supervisor merges them by chunk index, so the result
list — and any digest over it — is bit-identical whether a run was
undisturbed or survived any number of kills and stalls.  Only the
*counters* (retries, expiries) differ, and they are deliberately kept
out of every digest.

The supervisor is deliberately journal-agnostic: it and its ladder
report lease / retry / quarantine events and chunk completions through
callbacks, and the service layer decides what to persist.  That keeps
this module testable with plain lists and keeps WAL policy in one place.

The run loop is event-driven.  Each iteration collects queued reports,
polices leases, assigns ready chunks to idle workers — in that order,
so a worker that just reported is re-leased in the same iteration —
and then blocks in one :func:`multiprocessing.connection.wait` on the
result pipe and the busy workers' process sentinels.  The timeout is
the nearest of the stop-check cap (``_POLL_S``), the next lease
deadline and the next backoff expiry, so the loop wakes the instant a
chunk finishes or a worker dies and otherwise exactly when policy next
has something to decide.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable

from repro.errors import ServiceError
from repro.service.chaos import ChaosPolicy, worker_chaos_hook
from repro.service.jobs import evaluate_chunk
from repro.service.lease import ChunkExecutor, ChunkOutcome, LeaseLadder

__all__ = ["Supervisor", "SupervisorCounters", "WAKE_COUNTERS"]

#: the run loop's wake accounting in :class:`SupervisorCounters`
WAKE_COUNTERS = ("wakes_result", "wakes_worker_exit", "wakes_timeout", "wait_s")

#: stop-check cap: the longest the run loop blocks with nothing due.
#: Results, worker deaths, lease deadlines and backoff expiries wake it
#: on their own; only ``should_stop`` and the death of an *idle* worker
#: have no file descriptor or deadline, so they are noticed this late.
_POLL_S = 0.02


def _worker_main(worker_id, task_q, result_q, chaos):
    """Worker process loop: lease -> (chaos hook) -> evaluate -> report.

    Results travel as pickled bytes so the parent controls the protocol
    version (digests over payload bytes stay comparable).  A ``None``
    task is the shutdown sentinel.
    """
    while True:
        task = task_q.get()
        if task is None:
            return
        chunk_id, attempt, kind, params, cells = task
        worker_chaos_hook(chaos, chunk_id, attempt)
        try:
            records = evaluate_chunk(kind, params, cells)
            result_q.put(("done", worker_id, chunk_id, attempt,
                          pickle.dumps(records, protocol=4)))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            result_q.put(("error", worker_id, chunk_id, attempt,
                          f"{type(exc).__name__}: {exc}"))


@dataclass
class SupervisorCounters:
    """Robustness and wake bookkeeping for one supervisor (never part of
    any digest, never journaled).

    ``wakes_*`` count the run loop's returns from its blocking wait by
    cause — a queued report, a busy worker's exit, or the timeout (cap,
    lease deadline or backoff expiry); ``wait_s`` is the time spent
    blocked there, on the injected clock.
    """

    leases: int = 0
    retries: int = 0
    worker_deaths: int = 0
    lease_expiries: int = 0
    quarantined: int = 0
    backoff_s: float = 0.0
    wakes_result: int = 0
    wakes_worker_exit: int = 0
    wakes_timeout: int = 0
    wait_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """Every field by name, the two sums of seconds rounded."""
        out = dict(vars(self))
        for name in ("backoff_s", "wait_s"):
            out[name] = round(out[name], 4)
        return out


@dataclass
class _Worker:
    proc: Any
    task_q: Any
    busy: tuple[int, int] | None = None  # (chunk_id, attempt)
    lease_deadline: float = 0.0


def _mp_context():
    """Fork where available (fast, Linux CI), spawn elsewhere."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context()


class Supervisor(ChunkExecutor):
    """Run one job's chunks to completion over a supervised worker pool.

    Parameters
    ----------
    workers:
        Pool size.  Replacement workers keep the pool at this size for
        as long as work remains.
    chunk_deadline_s:
        Lease duration: a chunk not completed this many (wall-clock)
        seconds after assignment is considered hung.
    max_attempts:
        Per-chunk attempt budget before quarantine.
    backoff_base_s / backoff_seed:
        Base and seed of :func:`~repro.service.lease.seeded_backoff`,
        the re-lease delay.
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPolicy` handed to
        every worker (and consulted nowhere else — the supervisor must
        not "know" when an injection is coming).
    on_event:
        Callback for lease/retry/quarantine facts (journal hook).
    on_chunk_done:
        Callback ``(chunk_id, records)`` fired exactly once per
        completed chunk, in completion order.  Exceptions propagate
        (the ``crash-service`` injection rides on this).
    clock / wait:
        Test seams.  ``clock`` is the lease clock (deadlines, backoff,
        ``wait_s``).  ``wait(objects, timeout)`` is where the run loop
        blocks, with the contract of
        :func:`multiprocessing.connection.wait`: ``objects[0]`` is the
        result pipe, the rest are the busy workers' process sentinels,
        and the return value is the ready subset.
    should_stop:
        Drain hook, checked once per wake-up (at most ``_POLL_S`` apart).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        chunk_deadline_s: float = 30.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_seed: int = 0,
        chaos: ChaosPolicy | None = None,
        on_event: Callable[[dict], None] | None = None,
        on_chunk_done: Callable[[int, list], None] | None = None,
        clock: Callable[[], float] | None = None,
        wait: Callable[[list, float], list] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        super().__init__(
            SupervisorCounters(), max_attempts=max_attempts,
            backoff_base_s=backoff_base_s, backoff_seed=backoff_seed,
            on_event=on_event, on_chunk_done=on_chunk_done,
            should_stop=should_stop,
        )
        if chunk_deadline_s <= 0:
            raise ServiceError(
                f"chunk_deadline_s must be > 0, got {chunk_deadline_s}"
            )
        self.workers = int(workers)
        self.chunk_deadline_s = float(chunk_deadline_s)
        self.chaos = chaos
        # Lease time is injected (same discipline as admission.py): tests
        # drive deadlines and backoffs from a virtual clock instead of
        # racing the wall clock.  Worker liveness and pool teardown stay
        # on real time — they guard host resources, not lease policy.
        self._clock = clock or time.monotonic
        self._wait = wait or connection.wait
        self._ctx = _mp_context()
        self._next_worker_id = 0

    # -- pool plumbing ------------------------------------------------------

    def _spawn_worker(self, result_q) -> _Worker:
        wid = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, result_q, self.chaos),
            daemon=True,
            name=f"repro-sweep-worker-{wid}",
        )
        proc.start()
        return _Worker(proc=proc, task_q=task_q)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Hard-stop a worker and release its queue resources."""
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        worker.task_q.cancel_join_thread()
        worker.task_q.close()

    # -- main loop ----------------------------------------------------------

    def run(
        self,
        kind: str,
        params: dict,
        cells: list,
        plan: list[tuple[int, int]],
        *,
        skip_chunks: set[int] | None = None,
        initial_attempts: dict[int, int] | None = None,
    ) -> dict[int, ChunkOutcome]:
        """Execute every chunk of ``plan`` not in ``skip_chunks``.

        Returns ``{chunk_id: ChunkOutcome}`` for the chunks this run
        executed.  ``skip_chunks`` is the resume path: chunks the
        journal already records as complete are simply never leased.
        ``initial_attempts`` maps chunks to the attempt number their
        next lease should carry (journaled ``retry`` records replay
        here), so the seeded backoff schedule continues across a daemon
        restart instead of starting over at attempt 1.
        """
        self.drained = False
        ladder = LeaseLadder(self, len(plan), skip_chunks, initial_attempts)
        if ladder.finished:
            return ladder.outcomes

        # SimpleQueue, not Queue: its put() writes in the calling thread
        # and has released the shared write lock when it returns.  Queue's
        # feeder thread may still hold that lock when the worker's main
        # thread is already on its next lease — a worker that dies there
        # (kill-worker does) would wedge every other writer for good.
        result_q = self._ctx.SimpleQueue()
        pool: list[_Worker] = [
            self._spawn_worker(result_q)
            for _ in range(min(self.workers, len(ladder.pending)))
        ]
        inflight: dict[int, _Worker] = {}  # chunk -> worker holding lease

        try:
            now = self._clock()
            while True:
                if self._should_stop():
                    # Graceful drain: abandoned leases are handed back by
                    # construction — the journal has no 'done' for them,
                    # so the next run re-leases exactly these chunks.
                    self.drained = True
                    break
                # Collect before assigning: the worker whose report is
                # absorbed here is idle again by the time _assign looks,
                # so it never waits out a wake-up between two chunks.
                self._drain_results(result_q, ladder, inflight, now)
                self._police_leases(pool, ladder, inflight, result_q, now)
                if ladder.finished:
                    break
                self._assign(pool, ladder, inflight, cells, plan,
                             kind, params, now)
                now = self._block(result_q, pool, ladder.pending)
        finally:
            # Busy workers hold abandoned leases (drain, or an exception
            # out of on_chunk_done): nothing will ever be read from them,
            # so they are killed, not waited for.  Idle ones get the
            # shutdown sentinel and a bounded join.
            for worker in pool:
                if worker.busy is not None:
                    self._reap(worker)
                elif worker.proc.is_alive():
                    worker.task_q.put(None)
            deadline = time.monotonic() + 2.0
            for worker in pool:
                if worker.busy is None:
                    worker.proc.join(
                        timeout=max(0.0, deadline - time.monotonic()))
                    self._reap(worker)
            result_q.close()
        return ladder.outcomes

    def _block(self, result_q, pool, pending) -> float:
        """Block until a report is queued, a busy worker exits, or policy
        next has something to decide; returns the clock on wake-up.

        The timeout is ``min(_POLL_S, next lease deadline - now, next
        pending.not_before - now)``.  A pending chunk that is already
        ready imposes none while every live worker is busy: it is waiting
        for a worker, and a worker frees up only through a report or an
        exit.  One that came due since ``_assign`` read the clock, with a
        live worker idle, makes the timeout 0: nothing else would wake
        the loop to lease it.
        """
        before = self._clock()
        # objects[0] is the result pipe (SimpleQueue has no public handle
        # on its read end; concurrent.futures.process waits on it the
        # same way); the rest are the busy workers' sentinels.
        reader = result_q._reader
        busy = {
            worker.proc.sentinel: worker
            for worker in pool if worker.busy is not None
        }
        timeout = _POLL_S
        for worker in busy.values():
            if worker.lease_deadline - before < timeout:
                timeout = worker.lease_deadline - before
        for chunk in pending:
            if chunk.not_before <= before:
                if len(busy) < len(pool) and any(
                    w.busy is None and w.proc.is_alive() for w in pool
                ):
                    timeout = 0.0
                    break
            elif chunk.not_before < before + timeout:
                timeout = chunk.not_before - before
        ready = self._wait([reader, *busy], max(0.0, timeout))
        for obj in ready:
            if obj is not reader:
                # A readable sentinel means the exit is under way, not
                # that waitpid can see it yet.  Wait the last moments out
                # here, so that is_alive() is decisive when the leases
                # are policed and the loop cannot spin on the sentinel.
                busy[obj].proc.join(timeout=5.0)
        now = self._clock()
        counters = self.counters
        counters.wait_s += now - before
        if not ready:
            counters.wakes_timeout += 1
        elif reader in ready:
            counters.wakes_result += 1
        else:
            counters.wakes_worker_exit += 1
        return now

    # -- loop phases --------------------------------------------------------

    def _assign(self, pool, ladder, inflight, cells, plan, kind, params, now):
        """Lease ready pending chunks to idle workers (deterministic order)."""
        if not ladder.pending:
            return
        idle = [w for w in pool if w.busy is None and w.proc.is_alive()]
        if not idle:
            return
        queue = ladder.ready(now, key=lambda c: (c.not_before, c.chunk))
        for worker, ready in zip(idle, queue):
            ladder.pending.remove(ready)
            start, stop = plan[ready.chunk]
            worker.busy = (ready.chunk, ready.attempt)
            worker.lease_deadline = now + self.chunk_deadline_s
            inflight[ready.chunk] = worker
            self.counters.leases += 1
            self.on_event({
                "t": "lease", "chunk": ready.chunk,
                "attempt": ready.attempt, "cells": [start, stop],
            })
            worker.task_q.put(
                (ready.chunk, ready.attempt, kind, params, cells[start:stop])
            )

    def _drain_results(self, result_q, ladder, inflight, now):
        """Absorb every queued worker report."""
        while not result_q.empty():
            status, wid, chunk_id, attempt, payload = result_q.get()
            worker = inflight.get(chunk_id)
            if worker is None or worker.busy != (chunk_id, attempt):
                # Late report from a lease we already revoked (e.g. a
                # stalled worker finishing just before the SIGKILL
                # landed).  Payloads are pure, so dropping is safe.
                continue
            worker.busy = None
            del inflight[chunk_id]
            if status == "done":
                ladder.done(chunk_id, attempt, pickle.loads(payload))
            else:  # evaluation raised inside the worker
                ladder.failed(
                    chunk_id, attempt, reason="error", detail=payload, now=now,
                )

    def _police_leases(self, pool, ladder, inflight, result_q, now):
        """Detect dead and hung workers; hand their chunks to the ladder."""
        for idx, worker in enumerate(pool):
            if worker.busy is None:
                if not worker.proc.is_alive() and (ladder.pending or inflight):
                    # An idle worker died (shouldn't happen, but a pool
                    # that shrinks silently is a pool that deadlocks).
                    self._reap(worker)
                    pool[idx] = self._spawn_worker(result_q)
                continue
            chunk_id, attempt = worker.busy
            died = not worker.proc.is_alive()
            expired = now >= worker.lease_deadline
            if not died and not expired:
                continue
            if died:
                self.counters.worker_deaths += 1
                reason = "worker-died"
                detail = f"exit code {worker.proc.exitcode}"
            else:
                self.counters.lease_expiries += 1
                reason = "lease-expired"
                detail = (
                    f"no result within {self.chunk_deadline_s:g}s "
                    f"(attempt {attempt})"
                )
            self._reap(worker)
            del inflight[chunk_id]
            pool[idx] = self._spawn_worker(result_q)
            ladder.failed(
                chunk_id, attempt, reason=reason, detail=detail, now=now,
            )
