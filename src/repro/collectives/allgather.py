"""All-to-all broadcast (allgather).

One-port: recursive doubling — at step ``k`` each node exchanges everything
it has accumulated with its dimension-``k`` partner, so volumes are
``M, 2M, 4M, …``, totalling ``t_s·log N + t_w·(N-1)·M`` (Table 1).

Multi-port: every contribution is split into ``log N`` chunks; schedule
``j`` runs recursive doubling over chunk ``j`` with its dimension order
rotated by ``j``.  At any step the ``log N`` schedules exchange on distinct
dimensions simultaneously: ``t_s·log N + t_w·(N-1)·M/log N``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtag
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.phase import attempt, make_spec
from repro.mpi.communicator import Comm
from repro.mpi.detector import LOST_PAYLOAD, lost_like
from repro.sim.ops import FALLBACK

__all__ = ["allgather"]


def allgather(
    comm: Comm,
    block: Any,
    tag: int = 4,
    schedule: Schedule | None = None,
):
    """Collect every rank's ``block``; returns a list indexed by comm rank.

    Generator — call with ``yield from``.
    """
    if comm.size == 1:
        return [block]
    verdict = yield from attempt(make_spec("allgather", comm, block, tag, schedule))
    if verdict is not FALLBACK:
        return verdict
    sched = resolve_schedule(comm, schedule)
    if sched is Schedule.SBT:
        return (yield from _allgather_doubling(comm, block, tag))
    return (yield from _allgather_rotated(comm, block, tag))


def _allgather_doubling(comm: Comm, block: Any, tag: int):
    pieces = {comm.rank: block}
    my_sub = comm.subindex_of(comm.rank)
    for k in range(comm.dimension):
        peer = comm.dim_partner(comm.rank, k)
        got = yield from comm.exchange(peer, pieces, subtag(tag, k))
        if got is LOST_PAYLOAD:
            # Fail-stopped partner: its whole subtree (subindices equal to
            # the peer's on bits >= k) is unreachable this round — mark
            # those contributions lost rather than aborting the gather.
            for cr in range(comm.size):
                if comm.subindex_of(cr) >> k == (my_sub >> k) ^ 1:
                    pieces[cr] = lost_like(block)
        else:
            pieces.update(got)
    return [pieces[cr] for cr in range(comm.size)]


def _allgather_rotated(comm: Comm, block: Any, tag: int):
    arr = np.asarray(block)
    d = comm.dimension
    header = chunk_header(arr)
    schedules = [
        {comm.rank: (chunk, header)} for chunk in split_chunks(arr, d)
    ]

    for t in range(d):
        handles = []
        arrivals = []
        for j in range(d):
            dim = (j + t) % d
            peer = comm.dim_partner(comm.rank, dim)
            hs = yield from comm.isend(peer, schedules[j], subtag(tag, j))
            hr = yield from comm.irecv(peer, subtag(tag, j))
            handles.extend((hs, hr))
            arrivals.append((j, hr))
        yield from comm.ctx.waitall(handles)
        my_sub = comm.subindex_of(comm.rank)
        full = (1 << d) - 1
        for j, hr in arrivals:
            if hr.value is LOST_PAYLOAD:
                # Partner subtree for schedule j: subindices equal to the
                # peer's outside the dimensions this schedule has visited.
                dim = (j + t) % d
                visited = 0
                for s in range(t):
                    visited |= 1 << (j + s) % d
                peer_sub = my_sub ^ (1 << dim)
                template = schedules[j][comm.rank]
                for cr in range(comm.size):
                    sub = comm.subindex_of(cr)
                    if (sub ^ peer_sub) & full & ~visited == 0:
                        schedules[j].setdefault(
                            cr, (lost_like(template[0]), template[1])
                        )
            else:
                schedules[j].update(hr.value)

    out = []
    for cr in range(comm.size):
        chunks = []
        hdr = None
        for j in range(d):
            chunk, hdr = schedules[j][cr]
            chunks.append(chunk)
        out.append(rebuild_from_header(chunks, hdr))
    return out
