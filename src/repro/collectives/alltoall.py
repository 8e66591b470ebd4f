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

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.phase import make_spec
from repro.collectives.sbt import exchange_partners
from repro.errors import SimulationError
from repro.mpi.communicator import Comm
from repro.mpi.detector import LOST_PAYLOAD, lost_like
from repro.sim.ops import FALLBACK, CollectivePhaseOp

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
    sched = resolve_schedule(comm, schedule)
    spec = make_spec("alltoall", comm, tuple(blocks), tag, sched)
    if spec is not None:
        verdict = yield CollectivePhaseOp((spec,))
        if verdict is not FALLBACK:
            return verdict
    if sched is Schedule.SBT:
        return (yield from _alltoall_dimex(comm, blocks, tag))
    return (yield from _alltoall_rotated(comm, blocks, tag))


def _alltoall_dimex(comm: Comm, blocks, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    me = comm.rank
    my_sub = sub_of_rank[me]
    tags = subtags(tag, comm.dimension)
    items = {(me, dst): blocks[dst] for dst in range(comm.size)}
    for k, partners in enumerate(exchange_partners(comm.dimension, my_sub)):
        bit = 1 << k
        # an item moves when its destination differs from me in this bit
        moving = {
            key: items.pop(key)
            for key in list(items)
            if (sub_of_rank[key[1]] ^ my_sub) & bit
        }
        got = yield from ctx.exchange(nodes[rank_of_sub[partners[0]]], moving, tags[k])
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
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    me = comm.rank
    my_sub = sub_of_rank[me]
    tags = subtags(tag, d)
    arrays = [np.asarray(b) for b in blocks]
    headers = [chunk_header(a) for a in arrays]
    parts = [split_chunks(a, d) for a in arrays]  # each block split once
    schedules = [
        {(me, dst): (parts[dst][j], headers[dst]) for dst in range(comm.size)}
        for j in range(d)
    ]

    for partners in exchange_partners(d, my_sub):
        handles = []
        arrivals = []
        for j, peer_sub in enumerate(partners):
            bit = peer_sub ^ my_sub
            peer = nodes[rank_of_sub[peer_sub]]
            moving = {
                key: schedules[j].pop(key)
                for key in list(schedules[j])
                if (sub_of_rank[key[1]] ^ my_sub) & bit
            }
            hs = yield from ctx.isend(peer, moving, tags[j])
            hr = yield from ctx.irecv(peer, tags[j])
            handles.extend((hs, hr))
            arrivals.append((j, hr))
        yield from ctx.waitall(handles)
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
                entry = (lost_like(parts[src][j]), headers[src])
            chunk, hdr = entry
            chunks.append(chunk)
        out.append(rebuild_from_header(chunks, hdr))
    return out
