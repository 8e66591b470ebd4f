"""All-to-all personalized communication (alltoall).

One-port: the classic dimension-exchange schedule.  At step ``k`` each node
forwards to its dimension-``k`` partner every held block whose destination
differs from itself in subcube bit ``k`` — exactly ``N/2`` blocks — so the
total is ``t_s·log N + t_w·(N·M/2)·log N`` (Table 1).

Multi-port: every block is split into ``log N`` chunks; schedule ``j`` runs
dimension exchange over chunk ``j`` starting at dimension ``j``.  The
schedules hit distinct dimensions each step, giving
``t_s·log N + t_w·N·M/2``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtag
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.phase import attempt, make_spec
from repro.errors import SimulationError
from repro.mpi.communicator import Comm
from repro.mpi.detector import LOST_PAYLOAD, lost_like
from repro.sim.ops import FALLBACK

__all__ = ["alltoall"]


def alltoall(
    comm: Comm,
    blocks: Sequence,
    tag: int = 5,
    schedule: Schedule | None = None,
):
    """Send ``blocks[i]`` to comm rank ``i``; returns blocks indexed by source.

    Generator — call with ``yield from``.
    """
    if len(blocks) != comm.size:
        raise SimulationError(
            f"alltoall needs {comm.size} blocks, got {len(blocks)}"
        )
    if comm.size == 1:
        return [blocks[0]]
    verdict = yield from attempt(make_spec("alltoall", comm, tuple(blocks), tag, schedule))
    if verdict is not FALLBACK:
        return verdict
    sched = resolve_schedule(comm, schedule)
    if sched is Schedule.SBT:
        return (yield from _alltoall_dimex(comm, blocks, tag))
    return (yield from _alltoall_rotated(comm, blocks, tag))


def _route_bit(comm: Comm, dst_commrank: int, dim: int) -> int:
    return (comm.subindex_of(dst_commrank) >> dim) & 1


def _alltoall_dimex(comm: Comm, blocks, tag: int):
    me = comm.rank
    my_sub = comm.subindex_of(me)
    items = {(me, dst): blocks[dst] for dst in range(comm.size)}
    for k in range(comm.dimension):
        my_bit = (my_sub >> k) & 1
        peer = comm.dim_partner(me, k)
        moving = {
            key: items.pop(key)
            for key in list(items)
            if _route_bit(comm, key[1], k) != my_bit
        }
        got = yield from comm.exchange(peer, moving, subtag(tag, k))
        if got is not LOST_PAYLOAD:
            items.update(got)
        # A lost exchange leaves the peer-routed items missing; the final
        # assembly below substitutes NaN blocks for them.
    return [
        items[(src, me)]
        if (src, me) in items
        else lost_like(blocks[src])
        for src in range(comm.size)
    ]


def _alltoall_rotated(comm: Comm, blocks, tag: int):
    d = comm.dimension
    me = comm.rank
    my_sub = comm.subindex_of(me)
    schedules = []
    headers = [chunk_header(np.asarray(b)) for b in blocks]
    for j in range(d):
        schedules.append(
            {
                (me, dst): (split_chunks(np.asarray(blocks[dst]), d)[j], headers[dst])
                for dst in range(comm.size)
            }
        )

    for t in range(d):
        handles = []
        arrivals = []
        for j in range(d):
            dim = (j + t) % d
            my_bit = (my_sub >> dim) & 1
            peer = comm.dim_partner(me, dim)
            moving = {
                key: schedules[j].pop(key)
                for key in list(schedules[j])
                if _route_bit(comm, key[1], dim) != my_bit
            }
            hs = yield from comm.isend(peer, moving, subtag(tag, j))
            hr = yield from comm.irecv(peer, subtag(tag, j))
            handles.extend((hs, hr))
            arrivals.append((j, hr))
        yield from comm.ctx.waitall(handles)
        for j, hr in arrivals:
            if hr.value is not LOST_PAYLOAD:
                schedules[j].update(hr.value)
            # else: items routed through the corpse stay missing; the
            # final assembly substitutes NaN chunks for them.

    out = []
    for src in range(comm.size):
        chunks = []
        hdr = None
        for j in range(d):
            entry = schedules[j].get((src, me))
            if entry is None:
                entry = (
                    lost_like(split_chunks(np.asarray(blocks[src]), d)[j]),
                    headers[src],
                )
            chunk, hdr = entry
            chunks.append(chunk)
        out.append(rebuild_from_header(chunks, hdr))
    return out
