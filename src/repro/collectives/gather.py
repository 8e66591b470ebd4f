"""All-to-one collection (gather) — the inverse of scatter.

One-port: combining binomial tree; a node forwards its accumulated blocks
at the step of its first set relative bit.  Message volumes double towards
the root, totalling ``t_s·log N + t_w·(N-1)·M``.

Multi-port: chunked rotated combining trees, ``t_s·log N +
t_w·(N-1)·M/log N``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.sbt import identity_order, rotated_moves, tree_role
from repro.mpi.communicator import Comm

__all__ = ["gather"]


def gather(
    comm: Comm,
    block: Any,
    root: int = 0,
    tag: int = 3,
    schedule: Schedule | None = None,
):
    """Gather every rank's ``block`` to ``root``.

    Returns the list of blocks indexed by comm rank on the root, ``None``
    elsewhere.  Generator — call with ``yield from``.
    """
    if comm.size == 1:
        return [block]
    sched = resolve_schedule(comm, schedule)
    if sched is Schedule.SBT:
        return (yield from _gather_sbt(comm, block, root, tag))
    return (yield from _gather_rotated(comm, block, root, tag))


def _gather_sbt(comm: Comm, block: Any, root: int, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    root_sub = sub_of_rank[root]
    rel = sub_of_rank[comm.rank] ^ root_sub
    recvs, sends = tree_role("combine", identity_order(comm.dimension), rel)
    tags = subtags(tag, comm.dimension)
    holding = {rel: block}

    for t, child in recvs:
        got = yield from ctx.recv(nodes[rank_of_sub[child ^ root_sub]], tags[t])
        holding.update(got)
    for t, parent in sends:
        yield from ctx.send(nodes[rank_of_sub[parent ^ root_sub]], holding, tags[t])
        return None

    # Only the root reaches here.
    return [holding[sub_of_rank[cr] ^ root_sub] for cr in range(comm.size)]


def _gather_rotated(comm: Comm, block: Any, root: int, tag: int):
    arr = np.asarray(block)
    d = comm.dimension
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    root_sub = sub_of_rank[root]
    rel = sub_of_rank[comm.rank] ^ root_sub
    tags = subtags(tag, d)
    header = chunk_header(arr)
    have = [{rel: (chunk, header)} for chunk in split_chunks(arr, d)]

    for moves in rotated_moves("combine", d, rel):
        handles = []
        arrivals = []
        for j, sends, peer in moves:
            node = nodes[rank_of_sub[peer ^ root_sub]]
            if sends:
                h = yield from ctx.isend(node, have[j], tags[j])
                have[j] = None
            else:
                h = yield from ctx.irecv(node, tags[j])
                arrivals.append((j, h))
            handles.append(h)
        if handles:
            yield from ctx.waitall(handles)
        for j, h in arrivals:
            have[j].update(h.value)

    if rel != 0:
        return None
    out = []
    for cr in range(comm.size):
        r = sub_of_rank[cr] ^ root_sub
        chunks = []
        hdr = None
        for j in range(d):
            chunk, hdr = have[j][r]
            chunks.append(chunk)
        out.append(rebuild_from_header(chunks, hdr))
    return out
