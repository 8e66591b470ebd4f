"""One-to-all broadcast.

One-port schedule: plain spanning binomial tree — ``log N`` steps each
costing ``t_s + t_w·M``, total ``t_s·log N + t_w·M·log N`` (Table 1).

Multi-port schedule: the message is split into ``log N`` chunks; chunk ``j``
flows down rotated tree ``j``.  At every step the ``log N`` trees use
pairwise-distinct dimensions, so a multi-port node drives them all at once:
``log N`` steps each costing ``t_s + t_w·M/log N``, total
``t_s·log N + t_w·M`` — the Table 1 multi-port entry (optimal when
``M ≥ log N``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.sbt import identity_order, rotated_moves, tree_role
from repro.collectives.phase import make_spec
from repro.mpi.communicator import Comm
from repro.sim.ops import FALLBACK, CollectivePhaseOp

__all__ = ["broadcast"]


def broadcast(
    comm: Comm,
    data: Any,
    root: int = 0,
    tag: int = 1,
    schedule: Schedule | None = None,
):
    """Broadcast ``data`` from comm rank ``root`` to every member.

    Returns the broadcast value on every rank (the root returns its own
    ``data`` object unchanged).  Generator — call with ``yield from``.
    """
    if comm.size == 1:
        return data
    sched = resolve_schedule(comm, schedule)
    spec = make_spec("broadcast", comm, data, tag, sched, root=root)
    if spec is not None:
        verdict = yield CollectivePhaseOp((spec,))
        if verdict is not FALLBACK:
            return verdict
    if sched is Schedule.SBT:
        return (yield from _broadcast_sbt(comm, data, root, tag))
    return (yield from _broadcast_rotated(comm, data, root, tag))


def _broadcast_sbt(comm: Comm, data: Any, root: int, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    root_sub = comm.sub_of_rank[root]
    recvs, sends = tree_role(
        "distribute", identity_order(comm.dimension),
        comm.sub_of_rank[comm.rank] ^ root_sub,
    )
    tags = subtags(tag, comm.dimension)
    for t, parent in recvs:
        data = yield from ctx.recv(nodes[rank_of_sub[parent ^ root_sub]], tags[t])
    for t, child in sends:
        yield from ctx.send(nodes[rank_of_sub[child ^ root_sub]], data, tags[t])
    return data


def _broadcast_rotated(comm: Comm, data: Any, root: int, tag: int):
    arr = np.asarray(data)
    d = comm.dimension
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    root_sub = comm.sub_of_rank[root]
    rel = comm.sub_of_rank[comm.rank] ^ root_sub
    tags = subtags(tag, d)

    if rel == 0:
        have: list = list(split_chunks(arr, d))
        header = chunk_header(arr)
    else:
        have = [None] * d
        header = None

    for moves in rotated_moves("distribute", d, rel):
        handles = []
        arrivals = []  # (tree, handle)
        for j, sends, peer in moves:
            node = nodes[rank_of_sub[peer ^ root_sub]]
            if sends:
                h = yield from ctx.isend(node, (have[j], header), tags[j])
            else:
                h = yield from ctx.irecv(node, tags[j])
                arrivals.append((j, h))
            handles.append(h)
        if handles:
            yield from ctx.waitall(handles)
        for j, h in arrivals:
            chunk, hdr = h.value
            have[j] = chunk
            header = hdr

    if rel == 0:
        return data
    return rebuild_from_header(have, header)
