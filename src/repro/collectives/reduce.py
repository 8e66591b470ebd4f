"""All-to-one reduction — the communication inverse of broadcast.

One-port: combining binomial tree with element-wise accumulation at every
internal node: ``t_s·log N + t_w·M·log N``.

Multi-port: the accumulator is split into ``log N`` chunks reduced down
``log N`` rotated combining trees: ``t_s·log N + t_w·M``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.sbt import identity_order, rotated_moves, tree_role
from repro.collectives.phase import make_spec
from repro.mpi.communicator import Comm
from repro.sim.ops import FALLBACK, CollectivePhaseOp

__all__ = ["reduce"]


def reduce(
    comm: Comm,
    block: Any,
    root: int = 0,
    op: Callable = np.add,
    tag: int = 6,
    schedule: Schedule | None = None,
):
    """Reduce every rank's ``block`` with ``op`` (default ``+``) onto ``root``.

    Returns the reduced array on the root and ``None`` elsewhere.
    Generator — call with ``yield from``.
    """
    if comm.size == 1:
        return np.asarray(block)
    sched = resolve_schedule(comm, schedule)
    spec = make_spec("reduce", comm, block, tag, sched, root=root, op=op)
    if spec is not None:
        verdict = yield CollectivePhaseOp((spec,))
        if verdict is not FALLBACK:
            return verdict
    if sched is Schedule.SBT:
        return (yield from _reduce_sbt(comm, block, root, op, tag))
    return (yield from _reduce_rotated(comm, block, root, op, tag))


def _reduce_sbt(comm: Comm, block: Any, root: int, op: Callable, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    root_sub = comm.sub_of_rank[root]
    recvs, sends = tree_role(
        "combine", identity_order(comm.dimension),
        comm.sub_of_rank[comm.rank] ^ root_sub,
    )
    tags = subtags(tag, comm.dimension)
    acc = np.array(block)  # private accumulator
    for t, child in recvs:
        got = yield from ctx.recv(nodes[rank_of_sub[child ^ root_sub]], tags[t])
        acc = op(acc, got)
    for t, parent in sends:
        yield from ctx.send(nodes[rank_of_sub[parent ^ root_sub]], acc, tags[t])
        return None
    return acc


def _reduce_rotated(comm: Comm, block: Any, root: int, op: Callable, tag: int):
    arr = np.asarray(block)
    d = comm.dimension
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    root_sub = comm.sub_of_rank[root]
    rel = comm.sub_of_rank[comm.rank] ^ root_sub
    tags = subtags(tag, d)
    chunks = [np.array(c) for c in split_chunks(arr, d)]

    for moves in rotated_moves("combine", d, rel):
        handles = []
        arrivals = []
        for j, sends, peer in moves:
            node = nodes[rank_of_sub[peer ^ root_sub]]
            if sends:
                h = yield from ctx.isend(node, chunks[j], tags[j])
            else:
                h = yield from ctx.irecv(node, tags[j])
                arrivals.append((j, h))
            handles.append(h)
        if handles:
            yield from ctx.waitall(handles)
        for j, h in arrivals:
            chunks[j] = op(chunks[j], h.value)

    if rel != 0:
        return None
    return rebuild_from_header(chunks, chunk_header(arr))
