"""Service overhead and determinism: SweepService vs direct evaluation.

The crash-safe service wraps every sweep in a WAL journal, a supervised
worker pool, and a content-addressed chunk cache.  That machinery must
be (a) *correct* — the service's report digest is bit-identical to the
direct evaluation path — and (b) *cheap* — journaling and chunk
bookkeeping add bounded overhead per chunk.  The sweep is answered by
the analytic Table 2 model, so the direct evaluation takes well under a
millisecond and the service's walls are almost all overhead.

This bench times three configurations of the same sweep:

* ``direct``   — ``jobs.evaluate`` in process (what ``repro sweep`` runs),
* ``service``  — cold SweepService run (journal + workers + cache),
* ``resume``   — a second ``run_pending`` pass over the same state dir
  (every chunk cached: pure journal-replay + finalize cost).

Each configuration runs ``REPEATS`` times in a fresh state directory and
the run with the fastest cold pass is reported (the host is shared; the
counts beside the wall times — chunks, journal bytes, fsyncs — repeat
exactly, the supervisor's wake-ups to within one or two).

Run directly for the CI service-smoke gate::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke

which asserts digest equality and a per-chunk service overhead
``(cold - direct) / chunks`` under ``MAX_CHUNK_OVERHEAD_S``, and prints
the overhead table.  Without flags it prints the table and writes no
file; ``--json LABEL`` records the run under ``runs[LABEL]`` of the committed ledger
``benchmarks/BENCH_service.json`` (point ``PYTHONPATH`` at another
checkout's ``src`` to record that checkout with this script).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

from repro.analysis.report import format_table

PARAMS = {
    "algorithms": ["cannon", "berntsen", "3dd", "3d_all"],
    "variable": "n",
    "values": [64.0, 128.0, 256.0, 512.0, 1024.0],
    "p": 64.0,
}

LEDGER_PATH = pathlib.Path(__file__).parent / "BENCH_service.json"
REPEATS = 3
#: loose wall gate of --smoke: several times the per-chunk overhead the
#: event-driven supervisor loop measures (its stop-check cap, not a poll)
MAX_CHUNK_OVERHEAD_S = 0.020
LEDGER_META = {
    "description": (
        "Sweep-service overhead ledger (bench_service.py --json LABEL): one "
        f"{len(PARAMS['values'])}-point sweep; wall seconds of the run with "
        f"the fastest cold pass out of {REPEATS} (all in cold_s_all); "
        "chunk_overhead_s = (cold_s - direct_s) / chunks; journal bytes "
        "and fsyncs counted over the cold pass; wakes = supervisor "
        "wake-ups by cause (null before the event-driven loop, PR 14). "
        f"--smoke gates chunk_overhead_s < {MAX_CHUNK_OVERHEAD_S} and "
        "digest parity."
    ),
    "host": "2-vCPU shared sandbox VM; absolute values are machine-relative",
}


def _direct_digest() -> tuple[str, float]:
    from repro.service.jobs import evaluate, make_spec

    spec = make_spec("sweep", PARAMS)
    start = time.perf_counter()
    report = evaluate(spec)
    return report["digest"], time.perf_counter() - start


def _service_run(state_dir, workers: int) -> dict:
    """One cold pass and one resume pass over ``state_dir``; the cold
    pass's wall, journal size, fsync count and supervisor wake-ups."""
    from repro.service import SweepService

    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd):
        nonlocal fsyncs
        fsyncs += 1
        return real_fsync(fd)

    os.fsync = counting_fsync  # counted from outside, like benchmarks/perf
    try:
        start = time.perf_counter()
        with SweepService(state_dir, workers=workers) as svc:
            job_id, _ = svc.submit("sweep", PARAMS)
            report = svc.run_pending()[0]
            chunks = len(svc.jobs_by_id[job_id].plan)
            counters = dict(svc.counters)
        cold = time.perf_counter() - start
    finally:
        os.fsync = real_fsync

    # Warm pass: drop the job_done fact so the service re-finalizes the
    # job purely from journal + cache (the resume path, no simulation).
    segments = sorted((state_dir / "wal").glob("wal-*.jsonl"))
    journal_bytes = sum(seg.stat().st_size for seg in segments)
    raw = segments[-1].read_bytes().splitlines(keepends=True)
    segments[-1].write_bytes(b"".join(raw[:-1]))
    start = time.perf_counter()
    with SweepService(state_dir, workers=workers) as svc:
        resumed = svc.run_pending()[0]
    warm = time.perf_counter() - start
    assert resumed["digest"] == report["digest"]
    return {
        "digest": report["digest"],
        "cold_s": cold,
        "resume_s": warm,
        "chunks": chunks,
        "journal_bytes": journal_bytes,
        "fsyncs": fsyncs,
        # absent on a checkout older than the event-driven supervisor
        "wakes": {
            cause: counters.get(f"wakes_{cause}")
            for cause in ("result", "worker_exit", "timeout")
        },
        "wait_s": counters.get("wait_s"),
    }


def measure(workers: int) -> dict:
    """The ledger record: best-of-``REPEATS`` by cold wall."""
    direct_digest, direct_s = min(
        (_direct_digest() for _ in range(REPEATS)), key=lambda r: r[1]
    )
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-service-"))
    try:
        runs = [
            _service_run(tmp / f"state-{i}", workers) for i in range(REPEATS)
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    best = min(runs, key=lambda r: r["cold_s"])
    chunks = best["chunks"]
    return {
        "direct_digest": direct_digest,
        "digest": best["digest"],
        "workers": workers,
        "direct_s": round(direct_s, 4),
        "cold_s": round(best["cold_s"], 4),
        "cold_s_all": [round(r["cold_s"], 4) for r in runs],
        "resume_s": round(best["resume_s"], 4),
        "chunks": chunks,
        "chunk_overhead_s": round((best["cold_s"] - direct_s) / chunks, 4),
        "journal_bytes": best["journal_bytes"],
        "journal_bytes_per_chunk": round(best["journal_bytes"] / chunks, 1),
        "fsyncs": best["fsyncs"],
        "fsyncs_per_chunk": round(best["fsyncs"] / chunks, 2),
        "wakes": best["wakes"],
        "wait_s": best["wait_s"],
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="assert digest equality and bounded overhead (CI budget)",
    )
    parser.add_argument(
        "--json", metavar="LABEL", nargs="?", const="change",
        help="record the run under runs[LABEL] of BENCH_service.json",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    run = measure(args.workers)
    direct_s, cold_s, warm_s = run["direct_s"], run["cold_s"], run["resume_s"]
    rows = [
        ["direct", f"{direct_s * 1e3:.2f} ms", run["direct_digest"]],
        ["service (cold)", f"{cold_s * 1e3:.2f} ms", run["digest"]],
        ["service (resume)", f"{warm_s * 1e3:.2f} ms", run["digest"]],
    ]
    wakes = run["wakes"]
    text = format_table(
        ["path", "wall", "digest"], rows,
        title=f"Crash-safe service overhead ({args.workers} workers, "
              f"{len(PARAMS['values'])}-point sweep, best of {REPEATS})",
    ) + (
        f"{run['chunks']} chunks: {run['chunk_overhead_s'] * 1e3:.1f} ms "
        f"overhead, {run['journal_bytes_per_chunk']:.0f} journal bytes and "
        f"{run['fsyncs_per_chunk']:.2f} fsyncs per chunk; wake-ups "
        f"result={wakes['result']} worker_exit={wakes['worker_exit']} "
        f"timeout={wakes['timeout']}, blocked {run['wait_s']} s\n"
    )
    print(text)

    if run["digest"] != run["direct_digest"]:
        print(
            f"FAILED: service digest {run['digest']} != "
            f"direct {run['direct_digest']}",
            file=sys.stderr,
        )
        return 1
    if args.smoke and run["chunk_overhead_s"] >= MAX_CHUNK_OVERHEAD_S:
        print(
            f"FAILED: {run['chunk_overhead_s'] * 1e3:.1f} ms of service "
            f"overhead per chunk, limit {MAX_CHUNK_OVERHEAD_S * 1e3:.0f} ms",
            file=sys.stderr,
        )
        return 1
    if args.json:
        runs = (
            json.loads(LEDGER_PATH.read_text())["runs"]
            if LEDGER_PATH.exists() else {}
        )
        runs[args.json] = run
        LEDGER_PATH.write_text(
            json.dumps({"meta": LEDGER_META, "runs": runs}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
