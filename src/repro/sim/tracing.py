"""Run statistics, traces, and the result object returned by ``run_spmd``."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceRecord", "RankStats", "RunResult", "NetworkStats"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced activity interval.

    ``kind`` is ``"hop"`` (fields: src, dst of the hop, message id, words),
    ``"compute"`` (fields: rank, flops), ``"drop"`` (a message lost on a
    hop or on a failed node; fields: msg, src, dst, reason), ``"reroute"``
    (a hop detoured around a dead link; fields: msg, dead link,
    detour_via), ``"corrupt"`` (a payload silently bit-flipped on a link
    or in local compute; fields: words flipped, where) or ``"nack"`` (a
    delivery whose attached CRC failed verification, discarded and
    negatively acknowledged; fields: msg, src, tag).
    """

    kind: str
    start: float
    end: float
    rank: int
    info: dict = field(default_factory=dict)


@dataclass
class RankStats:
    """Per-rank communication/computation counters."""

    rank: int
    messages_sent: int = 0
    words_sent: int = 0
    messages_received: int = 0
    words_received: int = 0
    flops: float = 0.0
    compute_time: float = 0.0
    peak_memory_words: int = 0
    finish_time: float = 0.0

    def note_memory(self, resident_words: int) -> None:
        if resident_words > self.peak_memory_words:
            self.peak_memory_words = int(resident_words)


@dataclass(frozen=True)
class NetworkStats:
    """Aggregate link-level statistics of a run.

    ``total_channel_busy`` sums the busy time of every directional channel
    — with store-and-forward routing this equals
    ``Σ_messages hops · (t_s + t_w·words)``, a conservation law the test
    suite checks.  ``max_channel_busy`` is the most-loaded channel's busy
    time: a lower bound on any schedule's completion time.

    The fault counters are zero on a healthy machine:
    ``messages_dropped`` counts messages lost in transit (drop-rate rolls
    or fail-stopped nodes), ``hops_rerouted`` counts detours around dead
    links, and ``retransmissions`` counts resends issued by the
    reliable-delivery layer.  ``corruption_events`` counts injected
    silent-data-corruption events that actually flipped payload bits
    (link or compute), and ``integrity_rejects`` counts deliveries the
    destination node discarded because an attached CRC failed
    verification.
    """

    channels_used: int
    total_channel_busy: float
    max_channel_busy: float
    messages_dropped: int = 0
    hops_rerouted: int = 0
    retransmissions: int = 0
    corruption_events: int = 0
    integrity_rejects: int = 0

    def mean_utilization(self, total_time: float) -> float:
        """Average busy fraction of the channels that were used at all."""
        if self.channels_used == 0 or total_time <= 0:
            return 0.0
        return self.total_channel_busy / (self.channels_used * total_time)


@dataclass
class RunResult:
    """Outcome of one SPMD simulation.

    Attributes
    ----------
    total_time:
        Virtual time at which the last rank finished (the parallel runtime).
    results:
        Per-rank return values of the programs (``{rank: value}``).
    stats:
        Per-rank :class:`RankStats`.
    phase_times:
        ``{phase_name: (start, end)}`` where start/end are the min entry and
        max exit times over ranks, from ``ctx.phase(...)`` markers.
    trace:
        Optional list of :class:`TraceRecord` (when tracing was enabled).
    network:
        Aggregate :class:`NetworkStats` over all directional channels.
    failed_ranks:
        Ranks halted by a fail-stop fault during the run (empty on a
        healthy machine).  Their ``finish_time`` is their failure time and
        they contribute no entry to ``results``.
    events_processed:
        Engine events the run consumed (resumes, hop starts/ends, receive
        timeouts that fired, fail-stops) — the count the ``max_events``
        watchdog caps.  A timer whose receive completed first is no event.  A
        diagnostic of host work, not of the simulated machine: it differs
        between the event path and the closed forms, so it never enters
        :meth:`trace_lines` or any digest.
    shift_rounds_event, shift_rounds_closed_form:
        Rank-rounds of ``ctx.shift_phase`` (one per rank per multiply; a
        Fox rank-round is one stage: its row broadcast, multiply and B roll)
        that ran as events (engine-run or in the program's loop), and that
        :mod:`repro.sim.superstep` advanced in closed form; together they
        are every rank's ``steps``, plus one for each alignment the engine
        ran as events ahead of rounds it could still batch.  Diagnostics
        like ``events_processed``, and outside :meth:`trace_lines` and
        every digest the same way.
    collective_phases_closed_form, collective_phases_event, closed_form_refusals:
        Declared collective phases — one per rank per ``CollectivePhaseOp``
        (a collective call or a fused pair; a ``ctx.neighbor_exchange``
        round is no phase, the engine or ``exchange_round`` issues it) —
        that :mod:`repro.sim.superstep` answered in closed form, and
        that ran message by message; ``closed_form_refusals`` maps the
        reason to how many shift rank-rounds and collective phases it sent
        to the event path (an ineligible run's feature, ``"ctx.parallel
        sub-task"`` — a refused pair's two collectives are declared again by
        its sub-tasks and counted again — a hazard release, ``"per-hop
        tracing: traffic beside a parked phase"`` — a traced aligned phase
        released at its park time, every rank-round of it, or a traced
        lifted pair, once per rank — the planner's
        validation, or ``"planner exception: <Type>"``), and sums to
        ``shift_rounds_event + collective_phases_event``.  Diagnostics too,
        outside every digest.
    route_searches, route_nodes_settled, adaptive_detours:
        What cost-aware routing under a non-uniform scenario cost and
        found: cheapest-path searches run (one per ``(src, dst, epoch)``
        the route cache had not seen), the nodes they expanded, and how
        many of the routes found leave the topology's native route —
        through another dimension order or a longer detour.  (``network.
        hops_rerouted`` counts only detours around *dead* links.)
        Diagnostics too, outside every digest.
    """

    total_time: float
    results: dict[int, Any]
    stats: dict[int, RankStats]
    phase_times: dict[str, tuple[float, float]] = field(default_factory=dict)
    trace: list[TraceRecord] = field(default_factory=list)
    network: NetworkStats = field(
        default_factory=lambda: NetworkStats(0, 0.0, 0.0)
    )
    failed_ranks: tuple[int, ...] = ()
    events_processed: int = 0
    shift_rounds_event: int = 0
    shift_rounds_closed_form: int = 0
    collective_phases_closed_form: int = 0
    collective_phases_event: int = 0
    closed_form_refusals: dict[str, int] = field(default_factory=dict)
    route_searches: int = 0
    route_nodes_settled: int = 0
    adaptive_detours: int = 0

    @property
    def num_ranks(self) -> int:
        return len(self.stats)

    def total_words_sent(self) -> int:
        return sum(s.words_sent for s in self.stats.values())

    def total_messages(self) -> int:
        return sum(s.messages_sent for s in self.stats.values())

    def max_peak_memory_words(self) -> int:
        return max((s.peak_memory_words for s in self.stats.values()), default=0)

    def total_peak_memory_words(self) -> int:
        """Sum of per-rank peaks: the paper's 'overall space used' metric."""
        return sum(s.peak_memory_words for s in self.stats.values())

    def phase_duration(self, name: str) -> float:
        start, end = self.phase_times[name]
        return end - start

    # -- golden-trace support ------------------------------------------------

    def trace_lines(self) -> list[str]:
        """Canonical serialization of the run's event timeline.

        One line per :class:`TraceRecord` — ``kind start end rank info`` —
        with floats rendered via ``repr`` (bit-exact round-trip) and info
        keys sorted, followed by per-rank stat lines, the phase table and
        the headline totals.  Two runs produce identical ``trace_lines``
        iff every traced event, event time, rank counter and phase
        boundary matches exactly; this is the substrate of
        :meth:`trace_digest` and of the committed golden fixtures under
        ``tests/golden/``.  Requires the run to have been traced
        (``trace=True``) for the event section to be non-empty.
        """
        lines = [
            "{} {!r} {!r} {} {}".format(
                rec.kind, rec.start, rec.end, rec.rank,
                ",".join(f"{k}={rec.info[k]!r}" for k in sorted(rec.info)),
            )
            for rec in self.trace
        ]
        for rank in sorted(self.stats):
            s = self.stats[rank]
            lines.append(
                f"rank {rank} sent={s.messages_sent}/{s.words_sent} "
                f"recv={s.messages_received}/{s.words_received} "
                f"flops={s.flops!r} compute={s.compute_time!r} "
                f"finish={s.finish_time!r}"
            )
        for name in sorted(self.phase_times):
            start, end = self.phase_times[name]
            lines.append(f"phase {name} {start!r} {end!r}")
        lines.append(f"total {self.total_time!r}")
        lines.append(
            f"network drops={self.network.messages_dropped} "
            f"reroutes={self.network.hops_rerouted} "
            f"retrans={self.network.retransmissions} "
            f"busy={self.network.total_channel_busy!r}"
        )
        if self.network.corruption_events or self.network.integrity_rejects:
            # Conditional (like the `failed` line) so fault-free runs keep
            # producing byte-identical golden traces across versions.
            lines.append(
                f"corruption events={self.network.corruption_events} "
                f"rejects={self.network.integrity_rejects}"
            )
        if self.failed_ranks:
            lines.append(f"failed {list(self.failed_ranks)}")
        return lines

    def trace_digest(self) -> str:
        """SHA-256 hex digest of :meth:`trace_lines`.

        A compact fingerprint of the full event timeline: any engine
        change that perturbs a single event time, event ordering, rank
        counter or phase boundary changes the digest.  The golden-trace
        regression suite (``tests/golden/test_golden_traces.py``) compares
        this against committed fixtures for every registered algorithm.
        """
        h = hashlib.sha256()
        for line in self.trace_lines():
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()
