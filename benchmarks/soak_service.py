"""Service soak: a real daemon surviving a crash, a host death, a drain.

This is the CI ``service-soak`` gate — a bounded wall-clock run (default
90 s) that drives the resilient daemon the way an operator would, with
real subprocesses for every role:

* two tenants (``heavy`` weight 3, ``light`` weight 1) submit a batch of
  sweep jobs up front, plus two more mid-run through the spool while the
  daemon holds the LOCK;
* phase A starts ``serve --follow`` with ``crash-service:3`` injected —
  the daemon dies (exit 70) after journaling three chunk completions;
* phase B restarts ``serve --follow`` over the same state with two
  ``repro work`` host agents: ``h1`` is started with
  ``--die-after-chunks 2`` (a real ``os._exit`` host death the daemon
  must detect from the stale heartbeat and revoke), ``h2`` stays
  healthy; once every job completes, SIGTERM drains the daemon.

Asserted invariants (any failure exits non-zero):

* every job's final digest is **bit-identical** to a direct in-process
  evaluation of the same parameters — through the crash, the host
  death, and the drain;
* every ``results/<job>.partial.json`` snapshot observed while polling
  is a byte prefix of that job's sealed ``.stream.jsonl``;
* the dead host produced at least one lease revocation;
* the journaled scheduling order serves the light tenant at least its
  deficit-round-robin share in the first weight window (no starvation);
* the drained daemon reports ``drained=True`` and exits 0.

Run directly (it prints a summary table and writes no file)::

    PYTHONPATH=src python benchmarks/soak_service.py --seconds 90
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.analysis.report import format_table

WEIGHTS = {"heavy": 3.0, "light": 1.0}
JOBS_PER_TENANT = 5
CRASH_AFTER_CHUNKS = 3
HOST_DIES_AFTER = 2


def _sweep_params(tenant: str, index: int) -> dict:
    # Distinct values per job so nothing coalesces; 4 cells = 4 chunks.
    base = 64 + 512 * index + (7 if tenant == "light" else 0)
    return {
        "algorithms": ["cannon", "berntsen"],
        "variable": "n",
        "values": [float(base + k) for k in range(4)],
        "p": 64.0,
    }


def _direct_digest(params: dict) -> str:
    from repro.service.jobs import evaluate, make_spec

    return evaluate(make_spec("sweep", params))["digest"]


def _cli(*argv: str, **popen_kw) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        **popen_kw,
    )


def _submit_direct(state: pathlib.Path, tenant: str, params: dict) -> str:
    """Submit while the state is unlocked; returns the job id."""
    from repro.service import SweepService

    with SweepService(state, tenant_rate=None) as svc:
        job_id, _ = svc.submit("sweep", params, tenant=tenant)
    return job_id


def _poll_jobs(state: pathlib.Path) -> dict:
    from repro.service import SweepService

    with SweepService(state, read_only=True) as svc:
        return svc.jobs()


def _capture_partials(state: pathlib.Path, snapshots: dict) -> None:
    for path in (state / "results").glob("*.partial.json"):
        job_id = path.name[: -len(".partial.json")]
        try:
            snapshots.setdefault(job_id, []).append(path.read_bytes())
        except OSError:
            pass  # racing the atomic replace; next poll


def _serve(state: pathlib.Path, *extra: str) -> subprocess.Popen:
    argv = [
        "serve", "--state-dir", str(state), "--workers", "2",
        "--chunk-size", "1", "--follow", "--poll", "0.05",
        "--stale-after", "1.0", "--backoff-base", "0.01",
    ]
    for name, weight in WEIGHTS.items():
        argv += ["--tenant-weight", f"{name}={weight:g}"]
    return _cli(*argv, *extra)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seconds", type=float, default=90.0,
        help="overall wall-clock budget (the soak exits early once "
             "every job completes and the daemon drains)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds
    started = time.monotonic()

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="soak-service-"))
    state = tmp / "state"
    procs: list[subprocess.Popen] = []
    failures: list[str] = []
    snapshots: dict[str, list[bytes]] = {}

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        # Submit the up-front batch and compute its reference digests.
        expected: dict[str, str] = {}
        tenant_of: dict[str, str] = {}
        for index in range(JOBS_PER_TENANT):
            for tenant in WEIGHTS:
                params = _sweep_params(tenant, index)
                job_id = _submit_direct(state, tenant, params)
                expected[job_id] = _direct_digest(params)
                tenant_of[job_id] = tenant

        # Phase A: daemon with an injected crash after 3 completions.
        daemon = _serve(state, "--inject",
                        f"crash-service:{CRASH_AFTER_CHUNKS}")
        procs.append(daemon)
        daemon_out, _ = daemon.communicate(timeout=max(
            5.0, deadline - time.monotonic()))
        check(daemon.returncode == 70,
              f"phase A daemon crashed with exit 70 "
              f"(got {daemon.returncode})")
        _capture_partials(state, snapshots)
        check(bool(snapshots),
              "crash left at least one streamed partial snapshot")

        # Phase B: host agents (one doomed, one healthy) + clean daemon.
        budget = max(5.0, deadline - time.monotonic())
        doomed = _cli("work", "--state-dir", str(state), "--host-id", "h1",
                      "--heartbeat", "0.2", "--poll", "0.02",
                      "--die-after-chunks", str(HOST_DIES_AFTER),
                      "--max-seconds", f"{budget:g}")
        healthy = _cli("work", "--state-dir", str(state), "--host-id", "h2",
                       "--heartbeat", "0.2", "--poll", "0.02",
                       "--max-seconds", f"{budget:g}")
        procs += [doomed, healthy]
        time.sleep(0.5)  # let the first heartbeats land
        daemon = _serve(state)
        procs.append(daemon)

        # Mid-run spooled submissions: the daemon owns the LOCK, so the
        # CLI hands these over through spool/ and waits for the ack.
        spool_procs = []
        for index, tenant in enumerate(WEIGHTS):
            params = _sweep_params(tenant, 100 + index)
            expected_digest = _direct_digest(params)
            proc = _cli(
                "submit", "--state-dir", str(state), "--tenant", tenant,
                "--json", "--wait", "30", "sweep", "n",
                *(str(v) for v in params["values"]),
                "--algorithms", *params["algorithms"], "-p", "64",
            )
            spool_procs.append((proc, tenant, expected_digest))
        for proc, tenant, digest in spool_procs:
            out, _ = proc.communicate(timeout=max(
                5.0, deadline - time.monotonic()))
            ack = json.loads(out)
            check(proc.returncode == 0 and "job" in ack,
                  f"spooled submission acked for {tenant} ({ack})")
            expected[ack["job"]] = digest
            tenant_of[ack["job"]] = tenant

        # Follow progress until every job lands or the budget runs out.
        payload = None
        while time.monotonic() < deadline:
            _capture_partials(state, snapshots)
            payload = _poll_jobs(state)
            statuses = {j["id"]: j["status"] for j in payload["jobs"]}
            if all(statuses.get(job_id) in ("done", "degraded", "failed")
                   for job_id in expected):
                break
            time.sleep(0.3)
        else:
            check(False, "all jobs completed within the soak budget")

        # Graceful drain: SIGTERM, daemon hands leases back and exits 0.
        daemon.send_signal(signal.SIGTERM)
        daemon_out, _ = daemon.communicate(timeout=30)
        check(daemon.returncode == 0,
              f"drained daemon exited 0 (got {daemon.returncode})")
        check("drained=True" in daemon_out,
              "daemon reported a graceful drain")
        for proc in (doomed, healthy):
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        check(doomed.returncode == 1,
              f"doomed host died mid-lease (exit {doomed.returncode})")

        payload = _poll_jobs(state)
        by_id = {j["id"]: j for j in payload["jobs"]}
        for job_id, digest in sorted(expected.items()):
            job = by_id.get(job_id, {})
            check(job.get("status") == "done"
                  and job.get("digest") == digest,
                  f"{job_id} ({tenant_of[job_id]}) digest matches the "
                  f"direct one-shot")
        check(payload["counters"]["host_revocations"] >= 1,
              f"dead host h1 triggered a lease revocation "
              f"(host_revocations="
              f"{payload['counters']['host_revocations']})")

        # Streaming invariant: every observed partial is a byte prefix
        # of the sealed stream.
        checked = 0
        for job_id, snaps in snapshots.items():
            final = (state / "results" / f"{job_id}.stream.jsonl")
            if not final.is_file():
                check(False, f"{job_id} left a partial but no stream")
                continue
            final_bytes = final.read_bytes()
            for snap in snaps:
                if not final_bytes.startswith(snap):
                    check(False,
                          f"{job_id} partial snapshot is not a byte "
                          f"prefix of its stream")
                    break
            else:
                checked += len(snaps)
        check(checked > 0,
              f"{checked} partial snapshot(s) verified as byte prefixes")

        # Fairness: the first weight window (4 decisions) serves light
        # at least once — the deficit scheduler's starvation bound.
        from repro.service import Journal

        records, _ = Journal(state / "wal").replay()
        order = [r["tenant"] for r in records if r.get("t") == "sched"]
        window = order[:int(sum(WEIGHTS.values()))]
        check(window.count("light") >= 1,
              f"light tenant scheduled in the first window {window}")

        light_done = sum(
            1 for job_id, tenant in tenant_of.items()
            if tenant == "light" and by_id.get(job_id, {}).get("status")
            == "done"
        )
        check(light_done == JOBS_PER_TENANT + 1,
              f"light tenant completed all {JOBS_PER_TENANT + 1} jobs "
              f"(got {light_done})")

        elapsed = time.monotonic() - started
        rows = [
            ["jobs completed", str(len(expected))],
            ["daemon crashes survived", "1"],
            ["host deaths survived", "1"],
            ["lease revocations",
             str(payload["counters"]["host_revocations"])],
            ["partial snapshots verified", str(checked)],
            ["sched decisions", str(len(order))],
            ["wall clock", f"{elapsed:.1f}s / {args.seconds:g}s budget"],
            ["failures", str(len(failures))],
        ]
        text = format_table(["metric", "value"], rows,
                            title="Resilient daemon soak")
        print(text)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        shutil.rmtree(tmp, ignore_errors=True)

    if failures:
        print(f"SOAK FAILED: {len(failures)} check(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
