"""Daemon-mode semantics: spool ingest, fair scheduling, graceful drain,
backoff-across-restart, streaming prefixes, and the extended chaos smoke.

The acceptance gate for the resilient-daemon PR: a sweep that survives
two worker kills, a stall, a daemon crash *and* a host death — resumed
via ``serve --follow`` — must produce a digest bit-identical to a clean
one-shot, and every streamed partial snapshot must be a byte prefix of
the final stream file.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ServiceOverloadError
from repro.service import hostpool as hostpool_mod
from repro.service import (
    InjectedServiceCrash,
    SweepService,
    is_byte_prefix,
    parse_injections,
    read_stream,
    seeded_backoff,
)
from repro.service.jobs import build_cells, evaluate_chunk, make_spec

SWEEP = {
    "algorithms": ["cannon", "berntsen"],
    "variable": "n",
    "values": [64, 128, 256, 512],
    "p": 64,
}


def _small(values):
    """A distinct, cheap sweep per ``values`` list (one chunk per value)."""
    return {
        "algorithms": ["cannon"],
        "variable": "n",
        "values": list(values),
        "p": 64,
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


# -- daemon loop: spool ingest, idle drain ---------------------------------


def test_serve_follow_ingests_spool_and_acks(tmp_path):
    with _service(tmp_path) as svc:
        spool = svc.state_dir / "spool"
        spool.mkdir()
        (spool / "req-abc.json").write_text(json.dumps({
            "nonce": "abc", "kind": "sweep", "params": SWEEP,
            "tenant": "t0",
        }))
        # First idle poll = queue drained; stop there.
        summary = svc.serve_follow(sleep=lambda _s: svc.request_stop())
        ack = json.loads((spool / "ack-abc.json").read_text())
        payload = svc.jobs()
    assert summary["completed"] == 1 and summary["failed"] == 0
    assert summary["drained"] is True
    (job,) = payload["jobs"]
    assert ack["job"] == job["id"] and ack["coalesced"] is False
    assert job["status"] == "done" and job["tenant"] == "t0"
    assert not (spool / "req-abc.json").exists()


def test_spool_shed_ack_carries_retry_after(tmp_path):
    with _service(tmp_path, max_pending=1) as svc:
        svc.submit("sweep", _small([64, 128]))  # fills the queue
        spool = svc.state_dir / "spool"
        spool.mkdir()
        (spool / "req-x.json").write_text(json.dumps({
            "nonce": "x", "kind": "sweep", "params": _small([64, 256]),
        }))
        assert svc.ingest_spool() == 1
        ack = json.loads((spool / "ack-x.json").read_text())
        shed = svc.jobs()["last_shed"]
    assert ack["shed"] is True and "queue full" in ack["reason"]
    assert ack["retry_after"] > 0
    assert shed["retry_after"] == ack["retry_after"]


def test_spool_coalesces_duplicate_submission(tmp_path):
    with _service(tmp_path) as svc:
        svc.submit("sweep", SWEEP)
        spool = svc.state_dir / "spool"
        spool.mkdir()
        (spool / "req-dup.json").write_text(json.dumps({
            "nonce": "dup", "kind": "sweep", "params": SWEEP,
        }))
        svc.ingest_spool()
        ack = json.loads((spool / "ack-dup.json").read_text())
    assert ack["coalesced"] is True


MALFORMED_REQUESTS = {
    "sweep-values": {"kind": "sweep", "params": {"values": "abc"}},
    "sweep-n": {"kind": "sweep", "params": {"values": [64], "n": "x"}},
    "region-bound": {"kind": "region_map", "params": {"log2_n_max": "big"}},
    "degrade-key": {"kind": "degrade", "params": {"algorithms": ["cannonn"]}},
    "no-kind": {"params": _small([64])},
    "params-list": {"kind": "sweep", "params": [64]},
    "tenant": {"kind": "sweep", "params": _small([64]), "tenant": ["t0"]},
    "not-an-object": [1, 2, 3],
}


def test_malformed_spool_requests_are_acked_and_removed(tmp_path):
    """One bad request file must neither stop the daemon nor survive to
    wedge its next start; requests after it in the tick are admitted."""
    with _service(tmp_path) as svc:
        spool = svc.state_dir / "spool"
        spool.mkdir()
        for name, req in MALFORMED_REQUESTS.items():
            (spool / f"req-a-{name}.json").write_text(json.dumps(req))
        (spool / "req-z-valid.json").write_text(json.dumps({
            "nonce": "z-valid", "kind": "sweep", "params": _small([64, 128]),
        }))
        summary = svc.serve_follow(sleep=lambda _s: svc.request_stop())
        acks = {
            name: json.loads((spool / f"ack-a-{name}.json").read_text())
            for name in MALFORMED_REQUESTS
        }
        valid = json.loads((spool / "ack-z-valid.json").read_text())
    assert summary["completed"] == 1 and summary["failed"] == 0
    assert not list(spool.glob("req-*.json"))
    for name, ack in acks.items():
        assert ack.get("error") and "job" not in ack, name
        assert ack["nonce"] == f"a-{name}"
    assert "cannonn" in acks["degrade-key"]["error"]
    assert "sweep" in acks["sweep-values"]["error"]
    assert valid["job"] and "error" not in valid


# -- graceful drain ---------------------------------------------------------


def test_drain_midjob_hands_back_and_resume_is_identical(
        tmp_path, clean_digest):
    with _service(tmp_path) as svc:
        svc.submit("sweep", SWEEP)
        orig_put = svc.cache.put
        completions = []

        def draining_put(kind, desc, records):
            orig_put(kind, desc, records)
            if kind == SweepService.CHUNK_KIND:
                completions.append(desc["chunk"])
                if len(completions) == 2:
                    svc.request_stop()

        svc.cache.put = draining_put
        reports = svc.run_pending()
        (job,) = svc.pending_jobs()
        done_at_drain = set(job.done_chunks)
    # Drain: no report, no job_done — the journal holds the progress.
    assert reports == []
    assert 0 < len(done_at_drain) < 4

    with _service(tmp_path) as svc:
        (job,) = svc.pending_jobs()
        assert job.done_chunks == done_at_drain  # handed back intact
        report = svc.run_pending()[0]
    assert report["digest"] == clean_digest


# -- fair scheduling --------------------------------------------------------


def test_fair_scheduling_honors_tenant_weights(tmp_path):
    weights = {"heavy": 3.0, "light": 1.0}
    with _service(
        tmp_path, tenant_weights=weights, tenant_rate=None,
    ) as svc:
        for i in range(4):
            svc.submit("sweep", _small([64 + i, 1024 + i]), tenant="heavy")
            svc.submit("sweep", _small([96 + i, 2048 + i]), tenant="light")
        svc.run_pending()
        order = [
            rec["tenant"] for rec in svc.journal.replay()[0]
            if rec.get("t") == "sched"
        ]
    assert len(order) == 8
    # Weighted round-robin: each 4-decision window serves heavy 3:1,
    # so light is never starved past its deficit bound.
    assert order[:4].count("heavy") == 3 and order[:4].count("light") == 1
    assert order[4:].count("light") == 3


def test_sched_interleaving_is_identical_after_crash(tmp_path):
    weights = {"a": 2.0, "b": 1.0}

    def submit_all(svc):
        for i in range(3):
            svc.submit("sweep", _small([64 + i]), tenant="a")
            svc.submit("sweep", _small([80 + i]), tenant="b")

    def sched_order(svc):
        return [
            rec["job"] for rec in svc.journal.replay()[0]
            if rec.get("t") == "sched"
        ]

    with _service(
        tmp_path, name="twin", tenant_weights=weights, tenant_rate=None,
    ) as svc:
        submit_all(svc)
        svc.run_pending()
        clean_order = sched_order(svc)

    inject = parse_injections(["crash-service:1"])
    with _service(
        tmp_path, name="chaos", tenant_weights=weights, tenant_rate=None,
        inject=inject,
    ) as svc:
        submit_all(svc)
        with pytest.raises(InjectedServiceCrash):
            svc.run_pending()
    with _service(
        tmp_path, name="chaos", tenant_weights=weights, tenant_rate=None,
    ) as svc:
        svc.run_pending()
        chaos_order = sched_order(svc)
        statuses = {j["status"] for j in svc.jobs()["jobs"]}
    # The journaled interleaving is authoritative: the decision made
    # before the crash replays instead of being re-decided, and every
    # later decision lands exactly where the undisturbed twin put it.
    assert chaos_order == clean_order
    assert len(chaos_order) == len(set(chaos_order)) == 6
    assert statuses == {"done"}


# -- retry backoff across a daemon restart ----------------------------------


def _crash_then_resume(tmp_path, first, second):
    """Crash the service once chunk 0 has one journaled retry, resume it,
    and return chunk 0's retry/quarantine records and the job."""
    with _service(tmp_path, **first) as svc:
        svc.submit("sweep", SWEEP)
        with pytest.raises(InjectedServiceCrash):
            svc.run_pending()
    with _service(tmp_path, **second) as svc:
        (job,) = svc.pending_jobs()
        assert job.attempts == {0: 2}  # replayed from the journaled retry
        svc.run_pending()
        recs = [
            rec for rec in svc.journal.replay()[0]
            if rec.get("t") in ("retry", "quarantine")
            and rec.get("chunk") == 0
        ]
        (job,) = (j for j in svc.jobs_by_id.values())
    return recs, job


def _assert_schedule_continued(recs, job, base):
    retries = [rec for rec in recs if rec["t"] == "retry"]
    # One retry pre-crash (→2), one post-restart (→3), then quarantine
    # at the attempt cap: the counter survived the restart.
    assert [rec["attempt"] for rec in retries] == [2, 3]
    (quarantine,) = (rec for rec in recs if rec["t"] == "quarantine")
    assert quarantine["attempts"] == 3
    for rec in retries:
        expected = seeded_backoff(0, 0, rec["attempt"] - 1, base)
        assert rec["backoff_s"] == round(expected, 4)
    assert job.status == "degraded" and job.quarantined == {0}


def test_backoff_schedule_survives_daemon_restart(tmp_path):
    # workers=1 serializes the schedule: chunk 0 (poisoned) fails and
    # journals retry attempt=2, then chunk 1 completes and the service
    # crashes.  The resumed run must continue chunk 0 at attempt 2 —
    # never reset to 1 — on the same seeded-exponential schedule.
    base = 0.01
    recs, job = _crash_then_resume(
        tmp_path,
        dict(workers=1, backoff_base_s=base,
             inject=parse_injections(["poison-chunk:0", "crash-service:1"])),
        dict(workers=1, backoff_base_s=base,
             inject=parse_injections(["poison-chunk:0"])),
    )
    _assert_schedule_continued(recs, job, base)


def test_backoff_schedule_survives_host_tier_daemon_restart(
        tmp_path, monkeypatch):
    # The same pin for a daemon on the host tier (no agents: the local
    # fallback evaluates, lowest ready chunk first).  The base is large
    # and the poll short, so chunk 0's first backoff (0.126 s) outlasts
    # the next poll and chunk 1 completes — and crashes the service —
    # before chunk 0 is ready again.
    base = 0.2
    spec = make_spec("sweep", SWEEP)
    poisoned = build_cells(spec)[:1]

    def poisoned_evaluate(kind, params, cells):
        if cells == poisoned:
            raise RuntimeError("poisoned cell")
        return evaluate_chunk(kind, params, cells)

    monkeypatch.setattr(hostpool_mod, "evaluate_chunk", poisoned_evaluate)
    monkeypatch.setattr(hostpool_mod, "_POLL_S", 0.001)
    recs, job = _crash_then_resume(
        tmp_path,
        dict(use_hosts=True, backoff_base_s=base,
             inject=parse_injections(["crash-service:1"])),
        dict(use_hosts=True, backoff_base_s=base),
    )
    assert {rec["reason"] for rec in recs} == {"error"}
    _assert_schedule_continued(recs, job, base)


# -- extended smoke: the PR's acceptance gate --------------------------------


def test_extended_smoke_chaos_host_death_daemon_resume(
        tmp_path, clean_digest):
    state = tmp_path / "svc"
    inject = parse_injections([
        "kill-worker:1", "kill-worker:3", "stall-worker:2",
        "crash-service:2",
    ])
    with _service(tmp_path, chunk_deadline_s=0.4, inject=inject) as svc:
        job_id, _ = svc.submit("sweep", SWEEP)
        with pytest.raises(InjectedServiceCrash):
            svc.run_pending()
    partial_path = state / "results" / f"{job_id}.partial.json"
    assert partial_path.is_file()
    partial_at_crash = partial_path.read_bytes()

    # A host that heartbeats once and dies: the resumed daemon leases to
    # it, detects the stale heartbeat, revokes with an epoch bump, and
    # finishes the revoked chunks through the local fallback.
    hdir = state / "hosts" / "h9"
    hdir.mkdir(parents=True)
    (hdir / "heartbeat.json").write_text(json.dumps({
        "host": "h9", "pid": 0, "ts": time.time(), "done": 0,
    }))

    with _service(
        tmp_path, stale_after_s=0.3, backoff_base_s=0.01,
    ) as svc:
        summary = svc.serve_follow(sleep=lambda _s: svc.request_stop())
        payload = svc.jobs()

    assert summary["completed"] == 1 and summary["failed"] == 0
    (job,) = payload["jobs"]
    assert job["status"] == "done"
    assert job["digest"] == clean_digest  # bit-identical to the clean run
    assert job["quarantined"] == []
    counters = payload["counters"]
    assert counters["host_leases"] >= 1
    assert counters["host_revocations"] >= 1
    assert counters["retries"] >= 1  # the kills/stall left scars

    # Streaming invariants: the crash-time partial is a byte prefix of
    # the sealed stream, whose footer digest matches the report.
    stream_path = state / "results" / f"{job_id}.stream.jsonl"
    final_bytes = stream_path.read_bytes()
    assert is_byte_prefix(partial_at_crash, final_bytes)
    assert not partial_path.exists()  # sealed streams retire the partial
    doc = read_stream(stream_path)
    assert doc["footer"]["digest"] == clean_digest
    assert doc["footer"]["quarantined"] == []
    assert sorted(doc["chunks"]) == [0, 1, 2, 3]
    report = json.loads(
        (state / "results" / f"{job_id}.json").read_text()
    )
    assert report["digest"] == clean_digest


# -- startup audit: orphaned partial snapshots -------------------------------


def test_orphan_partial_warned_on_startup_and_counted(tmp_path):
    state = tmp_path / "svc"
    (state / "results").mkdir(parents=True)
    (state / "results" / "j000099.partial.json").write_text("{}\n")
    with _service(tmp_path) as svc:
        assert any("orphaned partial" in w for w in svc.warnings)
        stats = svc.cache.stats(
            partials_dir=state / "results", live_jobs=[],
        )
    assert stats["orphan_partials"] == 1


# -- CLI surfaces ------------------------------------------------------------


def test_cli_submit_shed_echoes_retry_after(tmp_path, capsys):
    state = tmp_path / "svc"
    with _service(tmp_path) as svc:
        svc.submit("sweep", _small([64, 128]))  # leaves one pending job
    argv = [
        "submit", "--state-dir", str(state), "--max-pending", "1",
        "sweep", "n", "64", "256", "-p", "64",
    ]
    assert main(argv) == 75
    err = capsys.readouterr().err
    assert "overloaded" in err and "retry after" in err

    assert main(argv[:1] + ["--json"] + argv[1:]) == 75
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["shed"] is True
    assert outcome["retry_after"] > 0
    assert "queue full" in outcome["reason"]


def test_cli_submit_to_a_locked_state_spools_and_reads_the_ack(tmp_path, capsys):
    # The service below holds LOCK with this live pid, so ``submit``
    # cannot journal the job itself: it spools the request, and the
    # holder's ingest_spool (the daemon's step, run on a thread here)
    # journals it and acks with the job id.
    state = tmp_path / "svc"
    argv = [
        "submit", "--json", "--state-dir", str(state), "--wait", "30",
        "sweep", "n", "64", "128", "-p", "64",
    ]
    with _service(tmp_path) as svc:
        stop = threading.Event()

        def daemon():
            while not stop.is_set() and not svc.ingest_spool():
                time.sleep(0.01)

        thread = threading.Thread(target=daemon)
        thread.start()
        try:
            assert main(argv) == 0
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["spooled"] is True and outcome["coalesced"] is False
        assert [job["id"] for job in svc.jobs()["jobs"]] == [outcome["job"]]
    assert not list((state / "spool").iterdir())  # request and ack consumed


def test_cli_submit_spool_wait_expires_without_an_ack(tmp_path, capsys):
    state = tmp_path / "svc"
    with _service(tmp_path):  # holds LOCK; nobody ingests the spool
        assert main([
            "submit", "--state-dir", str(state), "--wait", "0.2",
            "sweep", "n", "64", "-p", "64",
        ]) == 1
    err = capsys.readouterr().err
    assert "daemon did not ack within 0.2s" in err
    requests = list((state / "spool").glob("req-*.json"))
    assert len(requests) == 1
    assert requests[0].stem[len("req-"):] in err  # left for the next daemon


def test_cli_jobs_surfaces_quarantine_and_last_shed(tmp_path, capsys):
    state = tmp_path / "svc"
    inject = parse_injections(["poison-chunk:0"])
    with _service(
        tmp_path, max_attempts=1, tenant_burst=1.0, inject=inject,
    ) as svc:
        svc.submit("sweep", _small([64, 128]))
        with pytest.raises(ServiceOverloadError):
            svc.submit("sweep", _small([64, 256]))  # bucket empty: shed
        svc.run_pending()
    assert main(["jobs", "--state-dir", str(state)]) == 0
    out = capsys.readouterr().out
    assert "quarantined chunks: 0" in out
    assert "last shed:" in out and "retry_after=" in out
    assert "host_revocations=0" in out


def test_cli_jobs_watch_iterations(tmp_path, capsys):
    state = tmp_path / "svc"
    with _service(tmp_path) as svc:
        svc.submit("sweep", _small([64, 128]))
    assert main([
        "jobs", "--state-dir", str(state),
        "--watch", "0.01", "--iterations", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.count("counters:") == 2
    assert "--- refresh 1 ---" in out


def test_cli_cache_stats_state_dir_counts_orphans(tmp_path, capsys):
    state = tmp_path / "svc"
    with _service(tmp_path) as svc:
        svc.submit("sweep", _small([64, 128]))
        svc.run_pending()
    (state / "results" / "j000042.partial.json").write_text("{}\n")
    assert main(["cache", "stats", "--state-dir", str(state)]) == 0
    out = capsys.readouterr().out
    assert "orphan partials: 1" in out


def test_cli_serve_follow_max_seconds_exits_clean(tmp_path, capsys):
    state = tmp_path / "svc"
    with _service(tmp_path) as svc:
        svc.submit("sweep", _small([64, 128]))
    assert main([
        "serve", "--state-dir", str(state), "--workers", "2",
        "--chunk-size", "1", "--follow", "--poll", "0.01",
        "--max-seconds", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "daemon exit: completed=1" in out
