"""End-to-end service semantics: resume, determinism, admission, audit.

The load-bearing invariant (the PR's chaos gate): a sweep that survives
injected worker kills, stalls, and a service crash must produce a report
digest **bit-identical** to an undisturbed run.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.service import (
    InjectedServiceCrash,
    SweepService,
    parse_injections,
)
from repro.service.hostpool import HostPoolCounters
from repro.service.jobs import build_cells, evaluate_chunk, finalize, make_spec
from repro.service.lease import ChunkExecutor, LeaseLadder
from repro.service.streaming import is_byte_prefix
from repro.service.supervisor import WAKE_COUNTERS

SWEEP = {
    "algorithms": ["cannon", "berntsen"],
    "variable": "n",
    "values": [64, 128, 256, 512],
    "p": 64,
}

DEGRADE = {
    "algorithms": ["cannon"],
    "n": 8,
    "p": 16,
    "severities": [0.5, 1.0],
    "scenario_seed": 1,
}


def _service(tmp_path, name="svc", **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("chunk_size", 1)
    return SweepService(tmp_path / name, **kw)


@pytest.fixture(scope="module")
def clean_digest(tmp_path_factory):
    with _service(tmp_path_factory.mktemp("ref")) as svc:
        svc.submit("sweep", SWEEP)
        return svc.run_pending()[0]["digest"]


def test_clean_run_zero_retries_zero_sheds(tmp_path, clean_digest):
    with _service(tmp_path) as svc:
        job_id, coalesced = svc.submit("sweep", SWEEP)
        assert not coalesced
        report = svc.run_pending()[0]
        payload = svc.jobs()
    assert report["digest"] == clean_digest
    counters = payload["counters"]
    assert counters["retries"] == 0
    assert counters["sheds"] == 0
    assert counters["quarantined"] == 0
    assert counters["worker_deaths"] == 0
    assert counters["lease_expiries"] == 0
    (job,) = payload["jobs"]
    assert job["status"] == "done" and job["retries"] == 0


def test_report_file_written(tmp_path, clean_digest):
    with _service(tmp_path) as svc:
        job_id, _ = svc.submit("sweep", SWEEP)
        svc.run_pending()
        path = svc.state_dir / "results" / f"{job_id}.json"
    on_disk = json.loads(path.read_text())
    assert on_disk["digest"] == clean_digest
    assert on_disk["quarantined_chunks"] == []


def test_wake_counters_surface_but_never_reach_the_journal(
    tmp_path, clean_digest
):
    # Observability only: the supervisor's wake accounting shows in
    # svc.counters, the jobs payload and the report's counters block;
    # the digest and the journal are exactly what they were without it.
    with _service(tmp_path) as svc:
        job_id, _ = svc.submit("sweep", SWEEP)
        report = svc.run_pending()[0]
        live = dict(svc.counters)
        payload = svc.jobs()
        state = svc.state_dir
    assert report["digest"] == clean_digest
    wakes = {k: live[k] for k in WAKE_COUNTERS}
    assert wakes["wakes_result"] >= 1 and wakes["wait_s"] > 0.0
    assert {k: payload["counters"][k] for k in wakes} == wakes
    on_disk = json.loads((state / "results" / f"{job_id}.json").read_text())
    assert on_disk["counters"] == {"leases": 4, "retries": 0, **wakes}
    journal = "".join(
        seg.read_text() for seg in sorted((state / "wal").glob("wal-*.jsonl"))
    )
    assert "wakes_" not in journal and "wait_s" not in journal
    # Not journaled means not replayed: a fresh process starts at zero.
    with _service(tmp_path, read_only=True) as cold:
        assert cold.counters["wakes_result"] == 0
        assert cold.counters["leases"] == 4


def test_crash_resume_is_bit_identical_and_incremental(tmp_path, clean_digest):
    inject = parse_injections(
        ["kill-worker:1", "stall-worker:2", "crash-service:2"]
    )
    with _service(tmp_path, chunk_deadline_s=0.4, inject=inject) as svc:
        svc.submit("sweep", SWEEP)
        with pytest.raises(InjectedServiceCrash):
            svc.run_pending()

    # Restart (same state dir, no injections — the faults already fired).
    with _service(tmp_path, chunk_deadline_s=0.4) as svc:
        (job,) = svc.pending_jobs()
        already_done = set(job.done_chunks)
        assert 0 < len(already_done) < 4  # genuinely partial

        executed = []
        real_execute = svc._execute

        def spying_execute(j):
            before = set(j.done_chunks)
            report = real_execute(j)
            executed.extend(sorted(set(j.done_chunks) - before))
            return report

        svc._execute = spying_execute
        report = svc.run_pending()[0]
        # Only the unfinished chunks were recomputed.
        assert set(executed) == set(range(4)) - already_done
        counters = svc.jobs()["counters"]
    assert report["digest"] == clean_digest
    assert counters["retries"] >= 1  # the kill and/or stall left scars


def test_corrupt_journal_tail_recovers_with_warning(tmp_path, clean_digest):
    with _service(tmp_path) as svc:
        svc.submit("sweep", SWEEP)
        svc.run_pending()

    inject = parse_injections(["corrupt-journal-tail"])
    with _service(tmp_path, inject=inject) as svc:
        assert any("tail" in w for w in svc.warnings)
        # The corrupted record was the job_done fact — the job looks
        # unfinished again, and re-running it re-finalizes from cached
        # chunks to the same digest.
        reports = svc.run_pending()
    assert [r["digest"] for r in reports] == [clean_digest]


def test_journaled_plan_immune_to_jobs_env_change(tmp_path):
    """A resumed sweep re-uses the journaled chunk plan even if it is
    served with another worker count — resharding mid-job would make
    chunk indices (and the journal's completion facts) meaningless."""
    inject = parse_injections(["crash-service:1"])
    with SweepService(
        tmp_path / "svc", workers=2, inject=inject
    ) as svc:
        svc.submit("sweep", SWEEP)
        with pytest.raises(InjectedServiceCrash):
            svc.run_pending()
        (job,) = svc.pending_jobs()
        plan_before = [list(c) for c in job.plan]
        assert job.planned_workers == 2

    with SweepService(tmp_path / "svc", workers=7) as svc:
        (job,) = svc.pending_jobs()
        assert [list(c) for c in job.plan] == plan_before
        assert job.planned_workers == 2
        svc.run_pending()
        assert [list(c) for c in job.plan] == plan_before


def test_duplicate_done_records_are_idempotent(tmp_path, clean_digest):
    with _service(tmp_path) as svc:
        svc.submit("sweep", SWEEP)
        svc.run_pending()
        (job,) = svc.jobs_by_id.values()
        # Simulate a crash replaying a completion twice: journal the same
        # fact again, then force a re-finalize by dropping job_done.
        svc.journal.append({
            "t": "done", "job": job.id, "chunk": 0,
            "cache": svc._chunk_cache_key(job, 0),
        })

    with _service(tmp_path) as svc:
        (job,) = svc.jobs_by_id.values()
        assert job.done_chunks == {0, 1, 2, 3}  # a set — duplicates vanish
        assert job.status == "done"
        assert job.digest == clean_digest


def test_coalescing_identical_submissions(tmp_path):
    with _service(tmp_path) as svc:
        first, coalesced_a = svc.submit("sweep", SWEEP)
        second, coalesced_b = svc.submit("sweep", SWEEP, tenant="other")
        assert (coalesced_a, coalesced_b) == (False, True)
        assert first == second
        different, coalesced_c = svc.submit(
            "sweep", dict(SWEEP, values=[64, 128])
        )
        assert not coalesced_c and different != first
        counters = svc.jobs()["counters"]
        assert counters["coalesced"] == 1
        assert counters["submitted"] == 2


def test_overload_sheds_and_survives_restart(tmp_path):
    with _service(
        tmp_path, max_pending=2, tenant_rate=None
    ) as svc:
        svc.submit("sweep", SWEEP)
        svc.submit("sweep", dict(SWEEP, values=[64]))
        with pytest.raises(ServiceOverloadError) as exc:
            svc.submit("sweep", dict(SWEEP, values=[128]))
        assert exc.value.retry_after > 0
        assert svc.jobs()["counters"]["sheds"] == 1

    # The shed is journaled: counters survive a restart.
    with _service(tmp_path, read_only=True) as svc:
        assert svc.jobs()["counters"]["sheds"] == 1


def test_rate_limit_replay_consumes_bucket(tmp_path):
    """Journal replay re-charges tenant buckets from submit timestamps,
    so restarting the service is not a rate-limit reset."""
    clock = iter([0.0] * 10).__next__
    with _service(
        tmp_path, tenant_rate=0.0, tenant_burst=2.0, clock=clock
    ) as svc:
        svc.submit("sweep", SWEEP)
        svc.submit("sweep", dict(SWEEP, values=[64]))

    clock2 = iter([0.0] * 10).__next__
    with _service(
        tmp_path, tenant_rate=0.0, tenant_burst=2.0, clock=clock2
    ) as svc:
        with pytest.raises(ServiceOverloadError):
            svc.submit("sweep", dict(SWEEP, values=[128]))


def test_degrade_digest_matches_direct_report(tmp_path):
    """The service's degrade job digests bit-identically to the analysis
    layer's own sweep and ranking — same cells, same assembly."""
    from repro.analysis.degradation import report_from_points, severity_sweep

    keys = list(DEGRADE["algorithms"])
    points = severity_sweep(
        keys, DEGRADE["n"], DEGRADE["p"], DEGRADE["severities"],
        scenario_seed=DEGRADE["scenario_seed"],
    )
    direct = report_from_points(
        keys, points, n=DEGRADE["n"], p=DEGRADE["p"],
        severities=DEGRADE["severities"],
        scenario_seed=DEGRADE["scenario_seed"],
    )
    with _service(tmp_path) as svc:
        svc.submit("degrade", DEGRADE)
        report = svc.run_pending()[0]
    assert report["digest"] == direct["digest"]


@pytest.mark.parametrize("kind,params", [
    ("degrade", DEGRADE),
    ("chaos", {"trials": 4, "seed": 2026, "stack": "none"}),
    ("region_map", {"backend": "sim", "log2_n_min": 3, "log2_n_max": 5,
                    "log2_p_min": 2, "log2_p_max": 6}),
], ids=["degrade", "chaos", "region_map"])
def test_digest_matches_in_process_run(tmp_path, kind, params):
    """Two forked workers, one cell per chunk, seal the digest of
    evaluating every cell in this process: each worker rebuilds its own
    engines, route caches and seeded fault streams, so the worker count
    never shows in a report."""
    spec = make_spec(kind, params)
    direct = finalize(spec, evaluate_chunk(kind, spec.params, build_cells(spec)))
    with _service(tmp_path) as svc:
        svc.submit(kind, params)
        report = svc.run_pending()[0]
    assert report["digest"] == direct["digest"]


def test_lock_excludes_second_writer(tmp_path):
    with _service(tmp_path) as svc:
        with pytest.raises(ServiceError, match="locked by live pid"):
            SweepService(svc.state_dir)
        # Read-only access stays possible while the writer holds the lock.
        with SweepService(svc.state_dir, read_only=True) as ro:
            assert ro.jobs()["jobs"] == []


def test_stale_lock_is_stolen(tmp_path):
    state = tmp_path / "svc"
    state.mkdir()
    (state / "LOCK").write_text("999999999")  # no such pid
    with SweepService(state, workers=2) as svc:
        assert svc.jobs()["jobs"] == []


def test_cache_verify_runs_on_startup(tmp_path):
    state = tmp_path / "svc"
    debris = state / "cache" / "objects" / "ab"
    debris.mkdir(parents=True)
    tmp_file = debris / ("a" * 64 + ".tmp.1234")
    tmp_file.write_bytes(b"partial write")
    old = 1.0  # epoch — far past any prune threshold
    os.utime(tmp_file, (old, old))

    with SweepService(state, workers=2) as svc:
        assert not tmp_file.exists()
        assert any("tmp" in w for w in svc.warnings)


def test_quarantined_job_reports_degraded(tmp_path):
    inject = parse_injections(["poison-chunk:0"])
    with _service(
        tmp_path, max_attempts=2, backoff_base_s=0.01, inject=inject
    ) as svc:
        svc.submit("sweep", SWEEP)
        report = svc.run_pending()[0]
        (job,) = svc.jobs_by_id.values()
        assert job.status == "degraded"
        assert report["quarantined_chunks"] == [0]
        assert svc.jobs()["counters"]["quarantined"] == 1

    # Replay agrees with the live state.
    with _service(tmp_path, name="svc", read_only=True) as svc:
        (job,) = svc.jobs_by_id.values()
        assert job.status == "degraded"
        assert job.quarantined == {0}


def test_read_only_service_cannot_mutate(tmp_path):
    with _service(tmp_path) as svc:
        svc.submit("sweep", SWEEP)
    with SweepService(tmp_path / "svc", read_only=True) as svc:
        with pytest.raises(ServiceError, match="read-only"):
            svc.submit("sweep", SWEEP)
        with pytest.raises(ServiceError, match="read-only"):
            svc.run_pending()


def test_replay_reads_lease_records_as_the_live_run_did(tmp_path):
    """One of each record type the two tiers emit goes through the live
    callback of a real job (a scripted executor stands in for the
    transport; the ladder and the journal are the real ones), the run is
    drained with chunk 0 mid-schedule, and a fresh process replaying that
    journal ends in the same ``counters`` and ``JobState``."""

    class Scripted(ChunkExecutor):
        def run(self, kind, params, cells, plan, *, skip_chunks=None,
                initial_attempts=None):
            ladder = LeaseLadder(self, len(plan), skip_chunks, initial_attempts)
            self.on_event({"t": "lease", "chunk": 0, "attempt": 1,
                           "cells": list(plan[0])})
            ladder.failed(0, 1, reason="worker-died", detail="exit code 137",
                          now=0.0)
            ladder.failed(0, 2, reason="lease-expired", detail="late", now=0.0)
            self.on_event({"t": "hlease", "host": "h1", "epoch": 0,
                           "chunks": [0, 1]})
            ladder.failed(0, 3, reason="host-error", detail="boom", now=0.0)
            self.on_event({"t": "hrevoke", "host": "h1", "epoch": 1,
                           "chunks": [1], "reason": "heartbeat-stale"})
            ladder.failed(1, 1, reason="host-died", detail="h1 went stale",
                          now=0.0, consume_attempt=False)
            self.on_event({"t": "hlocal", "chunk": 1, "attempt": 1})
            start, stop = plan[1]
            ladder.done(1, 1, evaluate_chunk(kind, params, cells[start:stop]))
            self.drained = True
            return ladder.outcomes

    with _service(tmp_path, max_attempts=5) as svc:
        svc._executor = lambda on_event, on_chunk_done: Scripted(
            HostPoolCounters(), max_attempts=svc.max_attempts,
            backoff_base_s=svc.backoff_base_s, backoff_seed=0,
            on_event=on_event, on_chunk_done=on_chunk_done, should_stop=None,
        )
        svc.submit("sweep", SWEEP)
        assert svc.run_pending() == []  # drained: no report yet
        live_counters = dict(svc.counters)
        (live_job,) = svc.jobs_by_id.values()
        journaled = [rec["t"] for rec in svc.journal.replay()[0]]

    for t in ("lease", "hlease", "hrevoke", "hlocal", "retry", "done"):
        assert t in journaled
    assert live_job.attempts == {0: 4} and live_job.done_chunks == {1}
    assert (live_job.leases, live_job.retries) == (1, 4)
    assert live_counters["worker_deaths"] == 1
    assert live_counters["lease_expiries"] == 1
    assert live_counters["host_leases"] == 1
    assert live_counters["host_revocations"] == 1

    with _service(tmp_path, read_only=True) as svc:
        (replayed_job,) = svc.jobs_by_id.values()
        assert svc.counters == live_counters
        assert replayed_job == live_job


# -- every journal crash point ------------------------------------------------


def _live_state(svc):
    """What a replay of the journal must rebuild: every job (summary,
    next-lease attempts, done chunks), the journaled counters, the last
    shed and the scheduler's decisions."""
    return (
        {
            job.id: (job.summary(), dict(job.attempts), set(job.done_chunks))
            for job in svc.jobs_by_id.values()
        },
        {k: v for k, v in svc.counters.items() if k not in WAKE_COUNTERS},
        svc.last_shed,
        list(svc._sched_decided),
        svc.scheduler.snapshot(),
    )


def _run_with_crash_points(tmp_path, inject=None, **kw):
    """Run ``SWEEP`` at chunk size 1, with a coalesced duplicate and a
    shed, copying the state directory (a crash right after the append)
    and the live state after every journal record.  Returns the copies
    (copy K holds the first K records), the live states, the job id and
    the sealed stream's bytes."""
    copies = tmp_path / "crash"
    live = []
    with _service(
        tmp_path, workers=1, max_pending=1, inject=inject, **kw
    ) as svc:
        record = svc._record

        def crash_point():
            live.append(_live_state(svc))
            shutil.copytree(
                svc.state_dir, copies / str(len(live) - 1),
                ignore=shutil.ignore_patterns("LOCK"),
            )

        def recording(rec):
            record(rec)
            crash_point()

        crash_point()
        svc._record = recording
        job_id, _ = svc.submit("sweep", SWEEP)
        assert svc.submit("sweep", SWEEP, tenant="other") == (job_id, True)
        with pytest.raises(ServiceOverloadError):
            svc.submit("sweep", dict(SWEEP, values=[64]))
        svc.run_pending()
        state = svc.state_dir
    stream = (state / "results" / f"{job_id}.stream.jsonl").read_bytes()
    return [copies / str(k) for k in range(len(live))], live, job_id, stream


def _journal_lines(state):
    return b"".join(
        seg.read_bytes() for seg in sorted((state / "wal").glob("wal-*.jsonl"))
    ).splitlines(keepends=True)


def _resume(state, job_id, inject=None):
    """Restart on ``state`` and run to the end; returns the job's digest
    and sealed stream.  Before the submit record the client never got
    its job id, so it submits again."""
    with _service(state.parent, name=state.name, workers=1,
                  inject=inject) as svc:
        if not svc.jobs_by_id:
            assert svc.submit("sweep", SWEEP) == (job_id, False)
        svc.run_pending()
        digest = svc.jobs_by_id[job_id].digest
    return digest, (state / "results" / f"{job_id}.stream.jsonl").read_bytes()


@pytest.mark.parametrize("poisoned", [False, True], ids=["clean", "quarantine"])
def test_every_journal_crash_point_replays_and_resumes(
    tmp_path, clean_digest, poisoned
):
    """Enumerated, not sampled: after every journal record K = 0…N the
    live state equals a read-only replay of the first K records, and a
    service restarted there — also with a torn copy of record K + 1 as
    the journal's tail — seals the live run's digest and stream bytes.
    The ``quarantine`` run poisons chunk 0 (and keeps it poisoned across
    restarts), so its journal carries retry and quarantine records."""
    inject = parse_injections(["poison-chunk:0"]) if poisoned else None
    kw = dict(max_attempts=2, backoff_base_s=0.001) if poisoned else {}
    copies, live, job_id, stream = _run_with_crash_points(
        tmp_path, inject, **kw
    )
    journal = _journal_lines(copies[-1])
    types = [json.loads(line)["t"] for line in journal]
    assert len(copies) == len(journal) + 1
    assert {"coalesce", "shed", "lease", "done", "job_done"} <= set(types)
    assert ("quarantine" in types) == poisoned
    digest = json.loads(stream.splitlines()[-1])["digest"]
    if not poisoned:
        assert digest == clean_digest

    for k, state in enumerate(copies):
        assert _journal_lines(state) == journal[:k]
        with SweepService(state, read_only=True) as svc:
            assert _live_state(svc) == live[k], f"after record {k}"
        partial = state / "results" / f"{job_id}.partial.json"
        if partial.exists():
            assert is_byte_prefix(partial.read_bytes(), stream)

        restarts = [state]
        if k < len(journal):
            torn = tmp_path / "torn" / str(k)
            shutil.copytree(state, torn)
            (torn / "wal").mkdir(exist_ok=True)
            with open(torn / "wal" / "wal-000001.jsonl", "ab") as fh:
                fh.write(journal[k][: len(journal[k]) // 2])
            restarts.append(torn)
        for restart in restarts:
            assert _resume(restart, job_id, inject) == (digest, stream), (
                f"resumed from {restart.parent.name} {k}"
            )
