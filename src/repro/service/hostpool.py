"""Multi-host worker sharding over a shared filesystem.

The supervised worker pool (:mod:`repro.service.supervisor`) scales to
one machine.  This module scales the same chunk-lease discipline across
*hosts* that share nothing but a filesystem (NFS scratch, a bind-mounted
volume, or plain ``/tmp`` in tests): the daemon owns the chunk plan and
grants leases; ``repro work --host-id H`` agents execute them.

Protocol (everything under ``<state>/hosts/<host>/``, every write
tmp + rename so readers never see torn files):

``heartbeat.json``
    Written by the agent every ``heartbeat_s``: ``{host, pid, ts,
    done}``.  The daemon treats a heartbeat older than
    ``stale_after_s`` as a dead host.
``LEASE``
    Written by the **daemon**: ``{host, epoch}``.  The epoch is the
    split-brain fence — the generalization of the service's pid lock to
    hosts the daemon cannot signal.  Every task carries the epoch it was
    granted under; every result echoes it.  When the daemon revokes a
    stale host it bumps the epoch, so a not-actually-dead host (network
    partition, paused VM) that later finishes its chunk produces a
    result with a stale epoch, which the daemon discards.  The chunk was
    already re-leased elsewhere; accepting both could double-fire
    ``on_chunk_done``.
``inbox/task-NNNNNN.json``
    Daemon -> agent: one chunk of work (chunk id, attempt, epoch, and
    the base64-pickled kind/params/cells payload, so cells round-trip
    exactly).
``outbox/res-NNNNNN.json``
    Agent -> daemon: ``done`` with base64-pickled records, or ``error``
    with a detail string.
``STOP``
    Daemon -> agent: finish the current task and exit (drain).

Leases are granted as **contiguous chunk spans** (one token, several
task files) — fewer grants, and each host reads a contiguous cell range.
Per-host :class:`~repro.service.admission.TokenBucket` instances pace
grants so one fast host cannot monopolize the backlog while a slow
host's lease is still maturing.

Fault model: the supervisor's.  A failed or revoked lease goes to the
same :class:`~repro.service.lease.LeaseLadder`, so retry schedules and
the ``max_attempts`` -> quarantine rung are identical whichever tier
retries; a revoked host's chunks keep their attempt number but still
back off.  When **no** live host exists and
nothing is in flight, the pool falls back to evaluating one chunk
inline per poll — a daemon with zero agents degrades to a slow
single-process run instead of deadlocking.

Chunk payloads are pure functions of ``(kind, params, cells)``, so none
of this — host deaths, revocations, fallback — can perturb the report
digest; the acceptance test pins that.
"""

from __future__ import annotations

import base64
import json
import os
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ServiceError
from repro.service.admission import TokenBucket
from repro.service.jobs import evaluate_chunk
from repro.service.lease import ChunkExecutor, ChunkOutcome, LeaseLadder
from repro.analysis.parallel import contiguous_spans
from repro.util import atomic_write

__all__ = ["HostPool", "HostAgent", "HostPoolCounters", "host_status"]

#: daemon-side poll cadence (agents poll at their own ``poll_s``)
_POLL_S = 0.05


def _write_json(path: pathlib.Path, body: dict) -> None:
    atomic_write(
        path, json.dumps(body, sort_keys=True, separators=(",", ":")),
        tmp_stem=path.name,
    )


def _read_json(path: pathlib.Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None  # mid-rename or torn — poll again next round


def _pack(obj: Any) -> str:
    return base64.b64encode(pickle.dumps(obj, protocol=4)).decode("ascii")


def _unpack(blob: str) -> Any:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def host_status(hosts_root: str | os.PathLike, *, stale_after_s: float,
                now: float | None = None) -> list[dict]:
    """Heartbeat summary for every known host dir (``repro jobs``)."""
    root = pathlib.Path(hosts_root)
    if not root.is_dir():
        return []
    now = time.time() if now is None else now
    out = []
    for hdir in sorted(p for p in root.iterdir() if p.is_dir()):
        hb = _read_json(hdir / "heartbeat.json") or {}
        age = now - hb["ts"] if "ts" in hb else None
        lease = _read_json(hdir / "LEASE") or {}
        out.append({
            "host": hdir.name,
            "alive": age is not None and age <= stale_after_s,
            "heartbeat_age_s": round(age, 3) if age is not None else None,
            "epoch": lease.get("epoch", 0),
            "done": hb.get("done", 0),
        })
    return out


@dataclass
class HostPoolCounters:
    """Host-tier bookkeeping (never part of any digest)."""

    grants: int = 0
    retries: int = 0
    revocations: int = 0
    stale_hosts: int = 0
    stale_results: int = 0
    quarantined: int = 0
    backoff_s: float = 0.0
    local_fallback: int = 0


@dataclass
class _Lease:
    host: str
    attempt: int
    epoch: int


@dataclass
class _HostState:
    epoch: int = 0
    bucket: TokenBucket = field(default_factory=lambda: TokenBucket(
        rate=None))


class HostPool(ChunkExecutor):
    """Daemon-side scheduler: lease chunk spans to live hosts.

    The :class:`~repro.service.lease.ChunkExecutor` whose transport is
    the mailbox protocol above; ``run()`` has the contract of
    :meth:`~repro.service.supervisor.Supervisor.run`.
    """

    def __init__(
        self,
        hosts_root: str | os.PathLike,
        *,
        stale_after_s: float = 5.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_seed: int = 0,
        span: int = 4,
        host_rate: float | None = None,
        host_burst: float = 4.0,
        on_event: Callable[[dict], None] | None = None,
        on_chunk_done: Callable[[int, list], None] | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
        local_fallback: bool = True,
    ):
        super().__init__(
            HostPoolCounters(), max_attempts=max_attempts,
            backoff_base_s=backoff_base_s, backoff_seed=backoff_seed,
            on_event=on_event, on_chunk_done=on_chunk_done,
            should_stop=should_stop,
        )
        if span < 1:
            raise ServiceError(f"lease span must be >= 1, got {span}")
        self.hosts_root = pathlib.Path(hosts_root)
        self.stale_after_s = float(stale_after_s)
        self.span = int(span)
        self.host_rate = host_rate
        self.host_burst = float(host_burst)
        # Wall clock, not monotonic: heartbeats cross process (and
        # potentially machine) boundaries, so timestamps must share an
        # epoch.  Tests inject both sides.
        self._clock = clock or time.time
        self._sleep = sleep or time.sleep
        self.local_fallback = local_fallback
        self._hosts: dict[str, _HostState] = {}
        self._task_counter = 0

    # -- host bookkeeping ----------------------------------------------------

    def _host(self, name: str) -> _HostState:
        if name not in self._hosts:
            lease = _read_json(self.hosts_root / name / "LEASE") or {}
            self._hosts[name] = _HostState(
                epoch=int(lease.get("epoch", 0)),
                bucket=TokenBucket(rate=self.host_rate, burst=self.host_burst),
            )
        return self._hosts[name]

    def _live_hosts(self, now: float) -> list[str]:
        if not self.hosts_root.is_dir():
            return []
        live = []
        for hdir in sorted(p for p in self.hosts_root.iterdir() if p.is_dir()):
            hb = _read_json(hdir / "heartbeat.json")
            if hb and now - hb.get("ts", 0.0) <= self.stale_after_s:
                live.append(hdir.name)
        return live

    def _bump_epoch(self, host: str) -> int:
        state = self._host(host)
        state.epoch += 1
        _write_json(
            self.hosts_root / host / "LEASE",
            {"host": host, "epoch": state.epoch},
        )
        # Ungranted inbox tasks from the old epoch are dead letters —
        # clear them so a resurrected host doesn't waste cycles.
        inbox = self.hosts_root / host / "inbox"
        if inbox.is_dir():
            for task in inbox.glob("task-*.json"):
                task.unlink(missing_ok=True)
        return state.epoch

    # -- main loop -----------------------------------------------------------

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
        """Execute every chunk of ``plan`` not in ``skip_chunks`` across
        live hosts; same contract as ``Supervisor.run``."""
        self.drained = False
        ladder = LeaseLadder(self, len(plan), skip_chunks, initial_attempts)
        inflight: dict[int, _Lease] = {}

        while not ladder.finished:
            if self._should_stop():
                self.drained = True
                break
            now = self._clock()
            self._collect(ladder, inflight, now)
            self._police(ladder, inflight, now)
            live = self._live_hosts(now)
            granted = self._grant(live, ladder, inflight, kind, params,
                                  cells, plan, now)
            # Anti-deadlock fallback: with nothing in flight and nothing
            # grantable (no live hosts, or every bucket dry), the daemon
            # does the work itself rather than waiting forever.
            if (not granted and not inflight and self.local_fallback
                    and not ladder.finished):
                self._run_one_locally(ladder, kind, params, cells, plan, now)
            if not ladder.finished:
                self._sleep(_POLL_S)
        return ladder.outcomes

    # -- loop phases ---------------------------------------------------------

    def _grant(self, live, ladder, inflight, kind, params, cells, plan,
               now) -> int:
        """Lease contiguous spans of ready chunks to live hosts; returns
        the number of chunks granted this round."""
        if not live or not ladder.pending:
            return 0
        granted_total = 0
        for host in live:
            state = self._host(host)
            # Lowest chunk first, so a grant is a contiguous span.
            ready = ladder.ready(now, key=lambda c: c.chunk)
            if not ready:
                break
            if state.bucket.try_take(now) > 0.0:
                continue  # this host is rate-limited right now
            span_start, span_stop = contiguous_spans(
                c.chunk for c in ready[: self.span]
            )[0]
            grant = [c for c in ready if span_start <= c.chunk < span_stop]
            _write_json(
                self.hosts_root / host / "LEASE",
                {"host": host, "epoch": state.epoch},
            )
            for item in grant:
                ladder.pending.remove(item)
                inflight[item.chunk] = _Lease(
                    host=host, attempt=item.attempt, epoch=state.epoch
                )
                start, stop = plan[item.chunk]
                self._task_counter += 1
                _write_json(
                    self.hosts_root / host / "inbox"
                    / f"task-{self._task_counter:06d}.json",
                    {
                        "chunk": item.chunk,
                        "attempt": item.attempt,
                        "epoch": state.epoch,
                        "kind": kind,
                        "params": _pack(params),
                        "cells": _pack(cells[start:stop]),
                    },
                )
            self.counters.grants += 1
            granted_total += len(grant)
            self.on_event({
                "t": "hlease", "host": host, "epoch": state.epoch,
                "chunks": [c.chunk for c in grant],
            })
        return granted_total

    def _collect(self, ladder, inflight, now):
        """Absorb agent results, discarding stale-epoch echoes."""
        if not self.hosts_root.is_dir():
            return
        for hdir in sorted(p for p in self.hosts_root.iterdir() if p.is_dir()):
            outbox = hdir / "outbox"
            if not outbox.is_dir():
                continue
            for res_path in sorted(outbox.glob("res-*.json")):
                res = _read_json(res_path)
                if res is None:
                    continue  # mid-rename; next poll
                res_path.unlink(missing_ok=True)
                chunk = res.get("chunk")
                lease = inflight.get(chunk)
                if (
                    lease is None
                    or lease.host != hdir.name
                    or lease.epoch != res.get("epoch")
                    or lease.attempt != res.get("attempt")
                ):
                    # The fence at work: a revoked (or duplicated) lease
                    # finishing late.  The chunk's fate was already
                    # re-decided; this result must not double-fire.
                    self.counters.stale_results += 1
                    continue
                del inflight[chunk]
                if res.get("status") == "done":
                    ladder.done(chunk, lease.attempt, _unpack(res["records"]))
                else:
                    ladder.failed(
                        chunk, lease.attempt, reason="host-error",
                        detail=str(res.get("detail", "unknown")), now=now,
                    )

    def _police(self, ladder, inflight, now):
        """Revoke leases held by hosts whose heartbeat went stale."""
        if not inflight:
            return
        live = set(self._live_hosts(now))
        stale_hosts = {
            lease.host for lease in inflight.values()
            if lease.host not in live
        }
        for host in sorted(stale_hosts):
            epoch = self._bump_epoch(host)
            chunks = sorted(
                c for c, lease in inflight.items() if lease.host == host
            )
            self.counters.stale_hosts += 1
            self.counters.revocations += 1
            self.on_event({
                "t": "hrevoke", "host": host, "epoch": epoch,
                "chunks": chunks, "reason": "heartbeat-stale",
            })
            for chunk in chunks:
                lease = inflight.pop(chunk)
                ladder.failed(
                    chunk, lease.attempt, reason="host-died",
                    detail=f"host {host} missed heartbeat "
                           f"(> {self.stale_after_s:g}s)",
                    now=now, consume_attempt=False,
                )

    def _run_one_locally(self, ladder, kind, params, cells, plan, now):
        """Zero live hosts: evaluate one ready chunk inline (no deadlock)."""
        ready = ladder.ready(now, key=lambda c: c.chunk)
        if not ready:
            return
        item = ready[0]
        ladder.pending.remove(item)
        start, stop = plan[item.chunk]
        self.counters.local_fallback += 1
        self.on_event({
            "t": "hlocal", "chunk": item.chunk, "attempt": item.attempt,
        })
        try:
            records = evaluate_chunk(kind, params, cells[start:stop])
        except Exception as exc:  # noqa: BLE001 — same ladder as remote
            ladder.failed(
                item.chunk, item.attempt, reason="error",
                detail=f"{type(exc).__name__}: {exc}", now=now,
            )
            return
        ladder.done(item.chunk, item.attempt, records)


class HostAgent:
    """``repro work``: execute leased chunks for one host id.

    The agent is deliberately dumb: heartbeat, scan inbox, evaluate,
    write result, repeat.  All policy (epochs, retries, quarantine,
    staleness) lives daemon-side, so a buggy or ancient agent can at
    worst waste cycles — never corrupt a job.
    """

    def __init__(
        self,
        hosts_root: str | os.PathLike,
        host_id: str,
        *,
        heartbeat_s: float = 0.5,
        poll_s: float = 0.05,
        max_seconds: float | None = None,
        die_after_chunks: int | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        if not host_id or "/" in host_id or host_id.startswith("."):
            raise ServiceError(f"invalid host id: {host_id!r}")
        self.dir = pathlib.Path(hosts_root) / host_id
        self.host_id = host_id
        self.heartbeat_s = float(heartbeat_s)
        self.poll_s = float(poll_s)
        self.max_seconds = max_seconds
        # Chaos hook: simulate a host death (process exit, *no* cleanup —
        # the heartbeat is left behind to go stale) after N chunks.
        self.die_after_chunks = die_after_chunks
        self._clock = clock or time.time
        self._sleep = sleep or time.sleep
        self.done = 0
        self._last_beat = 0.0

    def heartbeat(self) -> None:
        now = self._clock()
        _write_json(self.dir / "heartbeat.json", {
            "host": self.host_id,
            "pid": os.getpid(),
            "ts": now,
            "done": self.done,
        })
        self._last_beat = now

    def step(self) -> int:
        """One poll: refresh the heartbeat if due, run every queued task.
        Returns how many chunks were completed this step."""
        now = self._clock()
        if now - self._last_beat >= self.heartbeat_s:
            self.heartbeat()
        completed = 0
        inbox = self.dir / "inbox"
        if not inbox.is_dir():
            return 0
        for task_path in sorted(inbox.glob("task-*.json")):
            task = _read_json(task_path)
            if task is None:
                continue
            body = {
                "chunk": task["chunk"],
                "attempt": task["attempt"],
                "epoch": task["epoch"],
            }
            try:
                records = evaluate_chunk(
                    task["kind"], _unpack(task["params"]),
                    _unpack(task["cells"]),
                )
                body.update(status="done", records=_pack(records))
            except BaseException as exc:  # noqa: BLE001 — report, don't die
                body.update(
                    status="error", detail=f"{type(exc).__name__}: {exc}"
                )
            _write_json(self.dir / "outbox" / task_path.name.replace(
                "task-", "res-"), body)
            task_path.unlink(missing_ok=True)
            self.done += 1
            completed += 1
            if self.die_after_chunks and self.done >= self.die_after_chunks:
                # Vanish exactly like a crashed machine: no STOP ack, no
                # heartbeat removal — the daemon must *detect* this.
                os._exit(1)
        return completed

    def run(self) -> int:
        """Agent main loop; returns the number of chunks completed.
        Exits on a ``STOP`` file or after ``max_seconds``."""
        started = self._clock()
        self.heartbeat()
        while True:
            if (self.dir / "STOP").exists():
                (self.dir / "STOP").unlink(missing_ok=True)
                return self.done
            if (self.max_seconds is not None
                    and self._clock() - started >= self.max_seconds):
                return self.done
            if self.step() == 0:
                self._sleep(self.poll_s)
