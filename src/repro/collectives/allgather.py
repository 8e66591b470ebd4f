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

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.phase import make_spec
from repro.collectives.sbt import dims_mask, exchange_partners, rotated_order
from repro.mpi.communicator import Comm
from repro.mpi.detector import LOST_PAYLOAD, lost_like
from repro.sim.ops import FALLBACK, CollectivePhaseOp

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
    sched = resolve_schedule(comm, schedule)
    spec = make_spec("allgather", comm, block, tag, sched)
    if spec is not None:
        verdict = yield CollectivePhaseOp((spec,))
        if verdict is not FALLBACK:
            return verdict
    if sched is Schedule.SBT:
        return (yield from _allgather_doubling(comm, block, tag))
    return (yield from _allgather_rotated(comm, block, tag))


def _allgather_doubling(comm: Comm, block: Any, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    pieces = {comm.rank: block}
    my_sub = sub_of_rank[comm.rank]
    tags = subtags(tag, comm.dimension)
    for k, partners in enumerate(exchange_partners(comm.dimension, my_sub)):
        peer = nodes[rank_of_sub[partners[0]]]
        got = yield from ctx.exchange(peer, pieces, tags[k])
        if got is LOST_PAYLOAD:
            # Fail-stopped partner: its whole subtree (subindices equal to
            # the peer's on bits >= k) is unreachable this round — mark
            # those contributions lost rather than aborting the gather.
            for cr in range(comm.size):
                if sub_of_rank[cr] >> k == (my_sub >> k) ^ 1:
                    pieces[cr] = lost_like(block)
        else:
            pieces.update(got)
    return [pieces[cr] for cr in range(comm.size)]


def _allgather_rotated(comm: Comm, block: Any, tag: int):
    arr = np.asarray(block)
    d = comm.dimension
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    my_sub = sub_of_rank[comm.rank]
    tags = subtags(tag, d)
    header = chunk_header(arr)
    schedules = [
        {comm.rank: (chunk, header)} for chunk in split_chunks(arr, d)
    ]

    for t, partners in enumerate(exchange_partners(d, my_sub)):
        handles = []
        arrivals = []
        for j, peer_sub in enumerate(partners):
            peer = nodes[rank_of_sub[peer_sub]]
            hs = yield from ctx.isend(peer, schedules[j], tags[j])
            hr = yield from ctx.irecv(peer, tags[j])
            handles.extend((hs, hr))
            arrivals.append((j, hr))
        yield from ctx.waitall(handles)
        for j, hr in arrivals:
            if hr.value is LOST_PAYLOAD:
                # Partner subtree for schedule j: subindices equal to the
                # peer's outside the dimensions this schedule has visited.
                visited = dims_mask(rotated_order(d, j), t)
                peer_sub = partners[j]
                template = schedules[j][comm.rank]
                for cr in range(comm.size):
                    if (sub_of_rank[cr] ^ peer_sub) & ~visited == 0:
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
