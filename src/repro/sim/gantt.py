"""ASCII Gantt rendering of simulation traces.

Turn a traced :class:`~repro.sim.tracing.RunResult` into a per-node
timeline showing link activity (``#`` for transmitting, ``-`` for
forwarding someone else's message, ``.`` idle, ``=`` computing), which
makes port serialization, phase overlap and pipelining visible at a
glance::

    t=0                                                          t=3120
    node  0 |####----....########....=...####....|
    node  1 |....####....####........=...####....|

Use ``run_spmd(..., trace=True)`` (or ``MatmulAlgorithm.run(...,
trace=True)``) to collect the trace.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.tracing import RunResult, TraceRecord

__all__ = ["render_gantt", "lane_activity"]


def lane_activity(
    trace: list[TraceRecord], rank: int, total: float, width: int
) -> str:
    """One node's activity lane as a ``width``-character string."""
    if width < 1:
        raise SimulationError(f"gantt width must be positive, got {width}")
    if total <= 0:
        return "." * width
    lane = ["."] * width
    scale = width / total

    def span(start: float, end: float):
        lo = min(width - 1, int(start * scale))
        hi = min(width - 1, max(lo, int(end * scale - 1e-12)))
        return range(lo, hi + 1)

    for rec in trace:
        if rec.kind == "compute" and rec.rank == rank:
            for i in span(rec.start, rec.end):
                if lane[i] == ".":
                    lane[i] = "="
        elif rec.kind == "hop" and rec.rank == rank:
            if rec.info.get("src") == rank:
                # Own sends over a slow channel (the scenario's "slow" key)
                # get their own shading: the slow stretch is the thing you
                # are looking for.
                mark = "%" if "slow" in rec.info else "#"
            else:
                mark = "-"
            for i in span(rec.start, rec.end):
                if lane[i] in (".", "=", "-") and not (lane[i] == "#"):
                    if mark in ("#", "%") or lane[i] == ".":
                        lane[i] = mark
    # Fault events overwrite everything: a lost message (x) or a detour
    # around a dead link (~) is the thing you are looking for.
    for rec in trace:
        if rec.rank != rank:
            continue
        if rec.kind in ("drop", "reroute"):
            pos = min(width - 1, int(rec.start * scale))
            lane[pos] = "x" if rec.kind == "drop" else "~"
        elif rec.kind in ("corrupt", "nack"):
            pos = min(width - 1, int(rec.start * scale))
            lane[pos] = "!"
        elif rec.kind == "node_fail":
            pos = min(width - 1, int(rec.start * scale))
            for i in range(pos, width):
                lane[i] = "X"
    return "".join(lane)


def render_gantt(
    result: RunResult,
    *,
    width: int = 72,
    ranks: list[int] | None = None,
) -> str:
    """Render the traced run as an ASCII Gantt chart.

    ``#`` node transmitting its own message, ``-`` forwarding a transit
    message, ``=`` computing, ``.`` idle.  ``ranks`` restricts the lanes
    (defaults to every rank).
    """
    if not result.trace:
        raise SimulationError(
            "no trace recorded; run the simulation with trace=True"
        )
    total = result.total_time
    show = ranks if ranks is not None else sorted(result.stats)
    lines = [f"t=0{' ' * (width + 2)}t={total:g}"]
    degraded_seen = False
    for rank in show:
        lane = lane_activity(result.trace, rank, total, width)
        degraded_seen = degraded_seen or "%" in lane
        lines.append(f"node {rank:3d} |{lane}|")
    lines.append(
        "legend: # sending own message   - forwarding   = computing   . idle"
    )
    if degraded_seen:
        lines.append("        % sending over a degraded link")
    net = result.network
    if (
        net.messages_dropped or net.hops_rerouted or net.retransmissions
        or net.corruption_events or net.integrity_rejects
        or result.failed_ranks
    ):
        lines.append(
            "        x message dropped   ~ hop rerouted   X node fail-stopped"
            + ("   ! payload corrupted/rejected"
               if net.corruption_events or net.integrity_rejects else "")
        )
        failed = (
            ", failed ranks " + str(list(result.failed_ranks))
            if result.failed_ranks else ""
        )
        corrupt = (
            f", {net.corruption_events} corrupted"
            f" ({net.integrity_rejects} rejected)"
            if net.corruption_events or net.integrity_rejects else ""
        )
        lines.append(
            f"faults: {net.messages_dropped} dropped, "
            f"{net.hops_rerouted} rerouted, "
            f"{net.retransmissions} retransmitted{corrupt}{failed}"
        )
    if result.phase_times:
        marks = [" "] * width
        for name, (start, _end) in sorted(
            result.phase_times.items(), key=lambda kv: kv[1][0]
        ):
            pos = min(width - 1, int(start / total * width)) if total else 0
            # Failure handling gets its own glyphs: D = a rank convicted a
            # dead peer, R = the survivors entered a recovery round.  When
            # marks collide on one cell, D outranks R outranks ^.
            if name.startswith("detect"):
                marks[pos] = "D"
            elif name.startswith("recover"):
                if marks[pos] != "D":
                    marks[pos] = "R"
            elif marks[pos] == " ":
                marks[pos] = "^"
        lines.append("phases:  " + "".join(marks))
        lines.append(
            "         "
            + ", ".join(
                f"{name}@{start:g}"
                for name, (start, _) in sorted(
                    result.phase_times.items(), key=lambda kv: kv[1][0]
                )
            )
        )
        if "D" in marks or "R" in marks:
            lines.append(
                "         ^ phase start   D failure detected   R recovery round"
            )
    return "\n".join(lines)
