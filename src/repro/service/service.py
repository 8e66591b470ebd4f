"""The durable sweep service: submit / execute / inspect, crash-safely.

:class:`SweepService` ties the subsystem together around a state
directory::

    <state>/wal/        write-ahead journal (facts, before actions)
    <state>/cache/      content-addressed chunk + result payloads
    <state>/results/    one JSON report per completed job
    <state>/LOCK        single-writer guard (pid; stale locks are stolen)

The contract, end to end:

* ``submit`` runs the admission gauntlet (bounded queue, per-tenant
  token bucket), **coalesces** submissions whose content-addressed task
  key matches a job already pending or running (one in-flight
  computation, many waiters), journals the accepted submission, and
  returns a job id — it never executes anything.
* ``run_pending`` executes journaled-but-unfinished jobs in submission
  order: the chunk plan is journaled *before* the first lease (a
  resumed job re-uses the recorded plan even if it is served with
  another worker count), every completed chunk's records go to the content-
  addressed cache *before* the completion fact is journaled, and the
  supervisor re-leases chunks across worker deaths, hangs, and
  quarantines.
* a killed service (crash, power cut, ``crash-service`` injection)
  restarts, replays the journal, and resumes **exactly** the unfinished
  chunks — completed chunk payloads come back from the cache, so the
  final report digest is bit-identical to an undisturbed run.
* the service's state is a fold of its journal: every change is a
  record that ``SweepService._apply`` applies, live and on replay alike.

Everything the robustness machinery counts (retries, expiries, sheds,
coalesces) is surfaced by :meth:`jobs` and deliberately excluded from
every report digest.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.cache import ResultCache, task_digest
from repro.analysis.parallel import contiguous_spans, plan_chunks, resolve_jobs
from repro.errors import ServiceError, ServiceOverloadError
from repro.service.admission import AdmissionController
from repro.service.chaos import (
    ChaosPolicy,
    InjectedServiceCrash,
    corrupt_tail_bytes,
)
from repro.service.hostpool import HostPool, host_status
from repro.service.jobs import JobSpec, build_cells, finalize, make_spec
from repro.service.journal import Journal
from repro.service.scheduler import DeficitScheduler
from repro.service.streaming import StreamWriter
from repro.service.supervisor import WAKE_COUNTERS, Supervisor
from repro.util import atomic_write

__all__ = ["SweepService", "JobState"]


@dataclass
class JobState:
    """Replayed state of one job (everything ``repro jobs`` shows)."""

    id: str
    key: str
    kind: str
    params: dict
    tenant: str
    submitted_ts: float
    status: str = "pending"  # pending | running | done | degraded | failed
    plan: list[list[int]] | None = None
    planned_workers: int | None = None
    cells: int | None = None
    done_chunks: set = field(default_factory=set)
    quarantined: set = field(default_factory=set)
    digest: str | None = None
    error: str | None = None
    coalesced: int = 0
    retries: int = 0
    leases: int = 0
    # chunk -> the attempt number its *next* lease carries; rebuilt from
    # journaled 'retry' records so the seeded backoff schedule survives
    # a daemon restart instead of resetting to attempt 1.
    attempts: dict = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        total = len(self.plan) if self.plan is not None else None
        return {
            "id": self.id,
            "kind": self.kind,
            "tenant": self.tenant,
            "status": self.status,
            "key": self.key[:16],
            "chunks_done": len(self.done_chunks),
            "chunks_total": total,
            "spans": [list(s) for s in contiguous_spans(self.done_chunks)],
            "quarantined": sorted(self.quarantined),
            "digest": self.digest,
            "coalesced": self.coalesced,
            "retries": self.retries,
            "leases": self.leases,
            "error": self.error,
        }


class SweepService:
    """Crash-safe executor for sweep / region-map / degrade / chaos jobs."""

    #: cache kind namespacing per-chunk payloads
    CHUNK_KIND = "service_chunk"
    #: cache kind namespacing whole-job reports
    REPORT_KIND = "service_report"

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        chunk_deadline_s: float = 30.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        max_pending: int = 32,
        tenant_rate: float | None = 2.0,
        tenant_burst: float = 8.0,
        tenant_weights: dict[str, float] | None = None,
        inject: ChaosPolicy | None = None,
        read_only: bool = False,
        stale_after_s: float = 5.0,
        clock=time.time,
    ):
        self.state_dir = pathlib.Path(state_dir)
        self.workers = workers
        self.chunk_size = chunk_size
        self.chunk_deadline_s = float(chunk_deadline_s)
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.inject = inject
        self.read_only = read_only
        self.stale_after_s = float(stale_after_s)
        self.clock = clock
        self._lock_fd: int | None = None
        self._stop = False

        if not read_only:
            self._acquire_lock()
        self.journal = Journal(self.state_dir / "wal")
        if inject is not None and inject.corrupt_journal_tail:
            # Chaos hook: bit-rot the journal tail *before* replay, as a
            # real torn write would present itself.
            segs = self.journal.segments()
            if segs:
                corrupt_tail_bytes(segs[-1])
        self.cache = ResultCache(self.state_dir / "cache")
        self.admission = AdmissionController(
            max_pending=max_pending,
            tenant_rate=tenant_rate,
            tenant_burst=tenant_burst,
        )
        self.scheduler = DeficitScheduler(tenant_weights)
        self.warnings: list[str] = []
        self.jobs_by_id: dict[str, JobState] = {}
        self.last_shed: dict[str, Any] | None = None
        self.counters: dict[str, Any] = {
            "submitted": 0, "coalesced": 0, "sheds": 0,
            "retries": 0, "leases": 0, "quarantined": 0,
            "worker_deaths": 0, "lease_expiries": 0,
            "host_leases": 0, "host_revocations": 0,
            # Supervisor wake accounting: this process's runs only —
            # unlike the rest it is never journaled, so never replayed.
            **dict.fromkeys(WAKE_COUNTERS, 0),
        }
        # Journaled scheduling decisions whose jobs are still unfinished,
        # in decision order — a resumed daemon replays this interleaving
        # before asking the scheduler for anything new.
        self._sched_decided: list[str] = []
        records, warnings = self.journal.replay()
        self.warnings.extend(warnings)
        for rec in records:
            self._apply(rec)
        if not read_only:
            # Crash debris audit: a predecessor killed between tmp-write
            # and rename must not leak files forever.  Partial streaming
            # snapshots without a live job are counted, not deleted —
            # they are a dead daemon's last visible progress.
            audit = self.cache.verify(
                partials_dir=self.state_dir / "results",
                live_jobs=[j.id for j in self.pending_jobs()],
            )
            if audit["tmp_found"]:
                self.warnings.append(
                    f"cache verify: {audit['tmp_found']} orphaned tmp "
                    f"file(s), removed {audit['tmp_removed']}"
                )
            if audit["corrupt"]:
                self.warnings.append(
                    f"cache verify: {audit['corrupt']} corrupt cache "
                    f"entr(ies) (run `repro cache prune`)"
                )
            if audit["orphan_partials"]:
                self.warnings.append(
                    f"cache verify: {audit['orphan_partials']} orphaned "
                    f"partial snapshot(s) in results/ (no live job — "
                    f"crash debris from a dead daemon)"
                )

    # -- lifecycle ----------------------------------------------------------

    def _acquire_lock(self) -> None:
        """Single-writer guard with stale-lock recovery."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        lock = self.state_dir / "LOCK"
        for _ in range(2):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                self._lock_fd = fd
                return
            except FileExistsError:
                try:
                    pid = int(lock.read_text() or "0")
                except (OSError, ValueError):
                    pid = 0
                if pid > 0 and _pid_alive(pid):
                    raise ServiceError(
                        f"service state {self.state_dir} is locked by live "
                        f"pid {pid} (one writer at a time)"
                    ) from None
                # Stale lock from a crashed predecessor: steal it.
                lock.unlink(missing_ok=True)
        raise ServiceError(f"could not acquire lock {lock}")

    def close(self) -> None:
        self.journal.close()
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            (self.state_dir / "LOCK").unlink(missing_ok=True)
            self._lock_fd = None

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the journal state machine ------------------------------------------

    def _record(self, rec: dict) -> None:
        """Journal one fact, then apply it: a live run changes state only
        through the records a replay reads."""
        self.journal.append(rec)
        self._apply(rec)

    def _apply(self, rec: dict) -> None:
        """The one applier of journal records, live (through
        :meth:`_record`) and on replay alike, so a resumed service holds
        exactly the state the live one had.  It is the only code that
        moves a :class:`JobState`, ``counters``, ``last_shed``, the
        scheduler's decisions and deficits, and the admission buckets.
        A record type the service writes is handled here and nowhere
        else."""
        t = rec["t"]
        if t == "shed":
            self.counters["sheds"] += 1
            self.last_shed = {
                "tenant": rec.get("tenant"),
                "reason": rec.get("reason"),
                "retry_after": rec.get("retry_after"),
                "ts": rec.get("ts"),
            }
            return
        if t == "submit":
            job = JobState(
                id=rec["job"], key=rec["key"], kind=rec["kind"],
                params=rec["params"], tenant=rec.get("tenant", "default"),
                submitted_ts=rec.get("ts", 0.0),
            )
            self.jobs_by_id[job.id] = job
            self.counters["submitted"] += 1
            # The admitted job's token, taken here so a restart does not
            # refill the tenant's burst for free.
            self.admission.bucket(job.tenant).try_take(job.submitted_ts)
            return
        job = self.jobs_by_id.get(rec.get("job", ""))
        if job is None:
            return
        if t == "coalesce":
            job.coalesced += 1
            self.counters["coalesced"] += 1
        elif t == "sched":
            # The decision order is authoritative; the deficit snapshot
            # is what the scheduler's next decision starts from.
            self._sched_decided.append(job.id)
            self.scheduler.restore(rec["state"])
        elif t == "plan":
            job.plan = [list(c) for c in rec["chunks"]]
            job.planned_workers = rec.get("workers")
            job.cells = rec.get("cells")
            job.status = "running"
        elif t == "lease":
            job.leases += 1
            self.counters["leases"] += 1
        elif t == "hlease":
            self.counters["host_leases"] += 1
        elif t == "hrevoke":
            self.counters["host_revocations"] += 1
        elif t == "hlocal":
            pass  # a host-tier chunk run in process: a fact, no state
        elif t == "retry":
            job.retries += 1
            self.counters["retries"] += 1
            job.attempts[int(rec["chunk"])] = int(rec["attempt"])
            if rec.get("reason") == "worker-died":
                self.counters["worker_deaths"] += 1
            elif rec.get("reason") == "lease-expired":
                self.counters["lease_expiries"] += 1
        elif t == "done":
            job.done_chunks.add(int(rec["chunk"]))
            job.attempts.pop(int(rec["chunk"]), None)
        elif t == "quarantine":
            job.quarantined.add(int(rec["chunk"]))
            job.attempts.pop(int(rec["chunk"]), None)
            self.counters["quarantined"] += 1
        elif t in ("job_done", "job_failed"):
            if t == "job_done":
                job.digest = rec.get("digest")
                job.status = "degraded" if rec.get("quarantined") else "done"
            else:
                job.status = "failed"
                job.error = rec.get("error")
            if job.id in self._sched_decided:
                self._sched_decided.remove(job.id)

    # -- submission ---------------------------------------------------------

    def pending_jobs(self) -> list[JobState]:
        """Unfinished jobs in submission (= journal) order."""
        return [
            job for job in self.jobs_by_id.values()
            if job.status in ("pending", "running")
        ]

    def submit(
        self, kind: str, params: dict, *, tenant: str = "default"
    ) -> tuple[str, bool]:
        """Admit one job; returns ``(job_id, coalesced)``.

        Raises :class:`~repro.errors.ServiceOverloadError` (after
        journaling the shed) when admission declines.  A submission
        whose task key matches a pending/running job attaches to it
        instead of queueing duplicate work.
        """
        if self.read_only:
            raise ServiceError("service opened read-only")
        spec = make_spec(kind, params)
        key = spec.key()
        now = float(self.clock())
        for job in self.pending_jobs():
            if job.key == key:
                self._record({
                    "t": "coalesce", "job": job.id, "tenant": tenant,
                    "ts": now,
                })
                return job.id, True
        try:
            self.admission.admit(tenant, len(self.pending_jobs()), now)
        except ServiceOverloadError as exc:
            self._record({
                "t": "shed", "tenant": tenant, "reason": exc.reason,
                "retry_after": exc.retry_after, "ts": now,
            })
            raise
        job_id = self._next_job_id()
        self._record({
            "t": "submit", "job": job_id, "key": key, "kind": spec.kind,
            "params": spec.params, "tenant": tenant, "ts": now,
        })
        return job_id, False

    def _next_job_id(self) -> str:
        top = 0
        for job_id in self.jobs_by_id:
            try:
                top = max(top, int(job_id.lstrip("j")))
            except ValueError:
                continue
        return f"j{top + 1:06d}"

    # -- execution ----------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the service to drain: the running supervisor/host pool
        stops leasing, in-flight chunks are abandoned (their completions
        are simply never journaled, so a resume re-leases exactly them),
        and the execution loop returns.  Signal-handler safe."""
        self._stop = True

    def next_job(self) -> JobState | None:
        """The next job under the fair-scheduling discipline.

        Journaled-but-unfinished decisions replay first (in their
        recorded order — a resumed daemon reproduces the dead daemon's
        interleaving exactly); only then is the deficit scheduler asked
        for a fresh decision, which is journaled before being returned.
        """
        if self._sched_decided:
            return self.jobs_by_id[self._sched_decided[0]]
        backlog: dict[str, list[JobState]] = {}
        for job in self.pending_jobs():
            backlog.setdefault(job.tenant, []).append(job)
        picked = self.scheduler.select(backlog)
        if picked is None:
            return None
        self._record({
            "t": "sched", "job": picked.id, "tenant": picked.tenant,
            "state": self.scheduler.snapshot(),
        })
        return picked

    def run_pending(self) -> list[dict]:
        """Execute every unfinished job under fair scheduling.

        Returns the completed reports.  An
        :class:`~repro.service.chaos.InjectedServiceCrash` propagates
        (that is the point of the injection); per-job *task* errors mark
        the job failed and execution moves on.  A drain request stops
        the loop with the current job handed back to the journal.
        """
        if self.read_only:
            raise ServiceError("service opened read-only")
        reports = []
        while not self._stop:
            job = self.next_job()
            if job is None:
                break
            report = self._execute_guarded(job)
            if report is not None:
                reports.append(report)
            elif job.status in ("pending", "running"):
                break  # drained mid-job; the journal has the rest
        return reports

    def _execute_guarded(self, job: JobState) -> dict | None:
        """Run one job; returns its report, or ``None`` when the job
        failed (status ``failed``) or was drained (still ``running``)."""
        try:
            return self._execute(job)
        except InjectedServiceCrash:
            raise
        except ServiceError as exc:
            self._record({
                "t": "job_failed", "job": job.id, "error": str(exc),
            })
            return None

    # -- daemon mode ---------------------------------------------------------

    def ingest_spool(self) -> int:
        """Absorb submissions spooled by ``repro submit`` while this
        daemon holds the LOCK.

        Each ``spool/req-<nonce>.json`` goes through the normal
        admission/coalescing path; the outcome is published as
        ``spool/ack-<nonce>.json`` (job id, shed with ``retry_after``, or
        ``error``) for the submitting process to pick up.  Anyone can
        write to the spool, so a malformed request is acked and removed
        like any other: it must not stop the daemon or survive to its
        next start.  Returns the number of requests processed.
        """
        spool = self.state_dir / "spool"
        if not spool.is_dir():
            return 0
        processed = 0
        for req_path in sorted(spool.glob("req-*.json")):
            try:
                req = json.loads(req_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # mid-rename; next tick
            nonce = req_path.stem[len("req-"):]
            ack: dict[str, Any] = {}
            try:
                if not isinstance(req, dict):
                    raise ServiceError("spool request is not a JSON object")
                nonce = str(req.get("nonce") or nonce)
                tenant = req.get("tenant", "default")
                if not isinstance(tenant, str):
                    raise ServiceError(f"tenant must be a string, got {tenant!r}")
                job_id, coalesced = self.submit(
                    req.get("kind"), req.get("params", {}), tenant=tenant
                )
                ack.update(job=job_id, coalesced=coalesced)
            except ServiceOverloadError as exc:
                ack.update(
                    shed=True, reason=exc.reason,
                    retry_after=exc.retry_after,
                )
            except ServiceError as exc:
                ack.update(error=str(exc))
            ack["nonce"] = nonce
            atomic_write(
                spool / f"ack-{nonce}.json", json.dumps(ack),
                tmp_stem=f".ack-{nonce}",
            )
            req_path.unlink(missing_ok=True)
            processed += 1
        return processed

    def serve_follow(
        self,
        *,
        poll_s: float = 0.1,
        max_seconds: float | None = None,
        sleep=time.sleep,
        monotonic=time.monotonic,
    ) -> dict[str, Any]:
        """Daemon loop: tail the spool, execute under fair scheduling,
        stream partial results, drain on :meth:`request_stop`.

        Unlike :meth:`run_pending` this does not return when the queue
        empties — it keeps following the spool until a stop request (the
        CLI wires SIGTERM/SIGINT here) or ``max_seconds`` elapses.
        ``InjectedServiceCrash`` propagates, as everywhere.
        """
        if self.read_only:
            raise ServiceError("service opened read-only")
        started = monotonic()
        completed = 0
        failed = 0
        while not self._stop:
            if (max_seconds is not None
                    and monotonic() - started >= max_seconds):
                break
            self.ingest_spool()
            job = self.next_job()
            if job is None:
                sleep(poll_s)
                continue
            report = self._execute_guarded(job)
            if report is not None:
                completed += 1
            elif job.status == "failed":
                failed += 1
        return {
            "completed": completed,
            "failed": failed,
            "drained": self._stop,
            "elapsed_s": monotonic() - started,
        }

    def hosts_enabled(self) -> bool:
        """Whether jobs execute on the multi-host tier (``repro work``
        agents over the shared ``<state>/hosts/`` directory) instead of
        the in-process worker pool: once any host has a directory there."""
        hosts = self.state_dir / "hosts"
        return hosts.is_dir() and any(p.is_dir() for p in hosts.iterdir())

    def _executor(self, on_event, on_chunk_done):
        """The chunk executor for one job: host pool or worker pool,
        same ``run()`` contract either way."""
        shared = dict(
            max_attempts=self.max_attempts,
            backoff_base_s=self.backoff_base_s,
            on_event=on_event,
            on_chunk_done=on_chunk_done,
            should_stop=lambda: self._stop,
        )
        if self.hosts_enabled():
            return HostPool(
                self.state_dir / "hosts",
                stale_after_s=self.stale_after_s,
                **shared,
            )
        return Supervisor(
            workers=resolve_jobs(self.workers),
            chunk_deadline_s=self.chunk_deadline_s,
            chaos=self.inject,
            **shared,
        )

    def _chunk_descriptor(self, job: JobState, chunk: int) -> dict:
        return {"job_key": job.key, "chunk": chunk, "plan": job.plan}

    def _chunk_cache_key(self, job: JobState, chunk: int) -> str:
        return task_digest(self.cache._envelope(
            self.CHUNK_KIND, self._chunk_descriptor(job, chunk)
        ))

    def _execute(self, job: JobState) -> dict:
        spec = JobSpec(kind=job.kind, params=job.params)
        cells = build_cells(spec)

        if job.plan is None:
            # First execution: resolve the worker count *now*, derive the
            # chunk plan from it, and journal both before leasing
            # anything.  A resume re-uses this exact plan — a different
            # worker count can never re-shard recorded work.
            workers = resolve_jobs(self.workers)
            plan = plan_chunks(len(cells), workers, self.chunk_size)
            self._record({
                "t": "plan", "job": job.id, "cells": len(cells),
                "chunks": [list(c) for c in plan], "workers": workers,
                "chunk_deadline_s": self.chunk_deadline_s,
                "max_attempts": self.max_attempts,
            })
        elif job.cells is not None and job.cells != len(cells):
            raise ServiceError(
                f"job {job.id}: journaled plan covers {job.cells} cells but "
                f"the task now builds {len(cells)} — the engine or task "
                f"definition changed under a live job; resubmit it"
            )
        plan = [tuple(c) for c in job.plan]

        # Resume: chunks the journal says are done come back from the
        # content-addressed cache.  A missing/pruned payload simply
        # demotes the chunk to "not done" — recomputing is idempotent.
        records_by_chunk: dict[int, list | None] = {}
        for chunk in sorted(job.done_chunks):
            payload = self.cache.get(
                self.CHUNK_KIND, self._chunk_descriptor(job, chunk),
                default=None,
            )
            if payload is not None:
                records_by_chunk[chunk] = payload
            else:
                self.warnings.append(
                    f"{job.id}: journaled chunk {chunk} payload missing "
                    f"from cache — recomputing (idempotent)"
                )
        for chunk in job.quarantined:
            records_by_chunk.setdefault(chunk, None)

        crash_after = None
        if self.inject is not None and self.inject.crash_after_chunks is not None:
            crash_after = max(1, self.inject.crash_after_chunks)
        completed_this_run = 0

        # Streaming: publish the completed contiguous chunk prefix after
        # every completion.  The writer is rebuilt here on every
        # (re)execution from the same cached records, so each published
        # snapshot — including across daemon crashes — is a byte prefix
        # of the final stream.
        writer = StreamWriter(
            self.state_dir / "results", job.id,
            kind=job.kind, key=job.key, chunks_total=len(plan),
        )
        for chunk in sorted(records_by_chunk):
            writer.offer(chunk, records_by_chunk[chunk])
        writer.refresh()

        def on_chunk_done(chunk: int, records: list) -> None:
            nonlocal completed_this_run
            # Cache first, journal second: if we die between the two the
            # journal simply lacks the fact and the chunk recomputes into
            # the same content address.
            self.cache.put(
                self.CHUNK_KIND, self._chunk_descriptor(job, chunk), records
            )
            self._record({
                "t": "done", "job": job.id, "chunk": chunk,
                "cache": self._chunk_cache_key(job, chunk),
            })
            records_by_chunk[chunk] = records
            completed_this_run += 1
            if writer.offer(chunk, records):
                writer.refresh()
            if crash_after is not None and completed_this_run >= crash_after:
                raise InjectedServiceCrash(completed_this_run)

        def on_event(event: dict) -> None:
            body = dict(event)
            body["job"] = job.id
            self._record(body)

        wakes = dict.fromkeys(WAKE_COUNTERS, 0)
        todo = set(range(len(plan))) - set(records_by_chunk)
        if todo:
            initial_attempts = {
                c: a for c, a in job.attempts.items()
                if c not in records_by_chunk
            }
            executor = self._executor(on_event, on_chunk_done)
            outcomes = executor.run(
                spec.kind, spec.params, cells, list(plan),
                skip_chunks=set(records_by_chunk),
                initial_attempts=initial_attempts,
            )
            if isinstance(executor, Supervisor):
                ran = executor.counters.as_dict()
                for key in WAKE_COUNTERS:
                    wakes[key] = ran[key]
                    self.counters[key] += ran[key]
                self.counters["wait_s"] = round(self.counters["wait_s"], 4)
            for chunk, outcome in outcomes.items():
                if outcome.quarantined:
                    records_by_chunk[chunk] = None
            if executor.drained:
                # Drain hand-back: no job_done record, no report — the
                # journal holds every completed chunk, so the next run
                # (or daemon) resumes exactly the remainder.
                return None

        # Reassemble per-cell records in cell order; quarantined chunks
        # contribute explicit holes.
        full_records: list = []
        for i, (start, stop) in enumerate(plan):
            chunk_records = records_by_chunk.get(i)
            if chunk_records is None:
                full_records.extend([None] * (stop - start))
            else:
                full_records.extend(chunk_records)

        report = finalize(spec, full_records)
        report["job"] = job.id
        report["quarantined_chunks"] = sorted(job.quarantined)
        # Diagnostics ride in the report file only: the digest is already
        # computed, and the journal's job_done record below stays as it is.
        report["counters"] = {
            "leases": job.leases, "retries": job.retries, **wakes,
        }
        self._write_report(job, report)
        # Quarantined chunks stream as explicit nulls, then the footer
        # (report digest) seals the file as <job>.stream.jsonl and the
        # .partial.json disappears.
        for chunk in sorted(records_by_chunk):
            writer.offer(chunk, records_by_chunk[chunk])
        writer.finish(report.get("digest"), sorted(job.quarantined))
        # Outputs first, journal second, as for chunks: a crash between
        # the two finalizes the job again into the same bytes.
        self._record({
            "t": "job_done", "job": job.id, "digest": report.get("digest"),
            "quarantined": sorted(job.quarantined),
            "counters": {
                "retries": job.retries, "leases": job.leases,
            },
        })
        return report

    def _write_report(self, job: JobState, report: dict) -> None:
        # dumps + one write, not dump: the indented encoder is the pure-
        # Python one and would call fh.write once per token.
        atomic_write(
            self.state_dir / "results" / f"{job.id}.json",
            json.dumps(report, indent=2, default=repr),
        )

    # -- inspection ---------------------------------------------------------

    def jobs(self) -> dict[str, Any]:
        """The ``repro jobs`` payload: states, counters, scheduler and
        host health, the last shed (with its ``retry_after``), warnings."""
        summaries = []
        results = self.state_dir / "results"
        for job in self.jobs_by_id.values():
            summary = job.summary()
            summary["partial"] = (
                results / f"{job.id}.partial.json").is_file()
            summaries.append(summary)
        return {
            "state_dir": str(self.state_dir),
            "jobs": summaries,
            "counters": dict(self.counters),
            "scheduler": self.scheduler.snapshot(),
            "hosts": host_status(
                self.state_dir / "hosts",
                stale_after_s=self.stale_after_s,
            ),
            "last_shed": self.last_shed,
            "warnings": list(self.warnings),
        }


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True
