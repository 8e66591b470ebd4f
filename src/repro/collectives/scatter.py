"""One-to-all personalized broadcast (scatter).

One-port schedule: spanning binomial tree.  At step ``t`` each holder
forwards the half of its remaining destination blocks that belong to the
subtree across dimension ``order[t]``; message volumes halve every step, so
the total is ``t_s·log N + t_w·(N-1)·M`` (Table 1).

Multi-port schedule: every destination block is split into ``log N`` chunks
and chunk ``j`` of *all* blocks flows down rotated tree ``j``; the trees are
edge-disjoint per step, giving ``t_s·log N + t_w·(N-1)·M/log N``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.sbt import identity_order, rotated_moves, tree_role
from repro.errors import SimulationError
from repro.mpi.communicator import Comm

__all__ = ["scatter"]


def scatter(
    comm: Comm,
    blocks: Sequence | None,
    root: int = 0,
    tag: int = 2,
    schedule: Schedule | None = None,
):
    """Scatter ``blocks[i]`` from ``root`` to comm rank ``i``; returns mine.

    ``blocks`` (indexed by comm rank) is only read on the root; other ranks
    should pass ``None``.  Generator — call with ``yield from``.
    """
    if comm.rank == root:
        if blocks is None or len(blocks) != comm.size:
            raise SimulationError(
                f"root must supply {comm.size} blocks, got "
                f"{'None' if blocks is None else len(blocks)}"
            )
    if comm.size == 1:
        return blocks[0]
    sched = resolve_schedule(comm, schedule)
    if sched is Schedule.SBT:
        return (yield from _scatter_sbt(comm, blocks, root, tag))
    return (yield from _scatter_rotated(comm, blocks, root, tag))


def _scatter_sbt(comm: Comm, blocks, root: int, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    root_sub = sub_of_rank[root]
    rel = sub_of_rank[comm.rank] ^ root_sub
    recvs, sends = tree_role("distribute", identity_order(comm.dimension), rel)
    tags = subtags(tag, comm.dimension)

    if rel == 0:
        holding = {sub_of_rank[cr] ^ root_sub: blocks[cr] for cr in range(comm.size)}
    for t, parent in recvs:
        holding = yield from ctx.recv(nodes[rank_of_sub[parent ^ root_sub]], tags[t])

    for t, child in sends:
        bit = child ^ rel  # the dimension this step crosses
        moving = {r: holding.pop(r) for r in list(holding) if r & bit}
        yield from ctx.send(nodes[rank_of_sub[child ^ root_sub]], moving, tags[t])

    if set(holding) != {rel}:
        raise SimulationError(f"scatter invariant broken at rel {rel}: {set(holding)}")
    return holding[rel]


def _scatter_rotated(comm: Comm, blocks, root: int, tag: int):
    d = comm.dimension
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    root_sub = sub_of_rank[root]
    rel = sub_of_rank[comm.rank] ^ root_sub
    tags = subtags(tag, d)

    have: list[dict] = [{} for _ in range(d)]
    if rel == 0:
        for cr in range(comm.size):
            arr = np.asarray(blocks[cr])
            header = chunk_header(arr)
            for j, chunk in enumerate(split_chunks(arr, d)):
                have[j][sub_of_rank[cr] ^ root_sub] = (chunk, header)

    for moves in rotated_moves("distribute", d, rel):
        handles = []
        arrivals = []
        for j, sends, peer in moves:
            node = nodes[rank_of_sub[peer ^ root_sub]]
            if sends:
                bit = peer ^ rel  # the dimension tree j crosses this step
                moving = {r: have[j].pop(r) for r in list(have[j]) if r & bit}
                h = yield from ctx.isend(node, moving, tags[j])
            else:
                h = yield from ctx.irecv(node, tags[j])
                arrivals.append((j, h))
            handles.append(h)
        if handles:
            yield from ctx.waitall(handles)
        for j, h in arrivals:
            have[j].update(h.value)

    chunks = []
    header = None
    for j in range(d):
        if set(have[j]) != {rel}:
            raise SimulationError(
                f"rotated scatter invariant broken at rel {rel}, tree {j}"
            )
        chunk, header = have[j][rel]
        chunks.append(chunk)
    return rebuild_from_header(chunks, header)
