"""All-to-all reduction (reduce-scatter) — the inverse of allgather.

Every rank contributes one block per destination; destination ``i`` ends up
with the element-wise sum over all contributors of their ``i``-th blocks.
This is the paper's "all-to-all reduction": the final phase of Berntsen's
algorithm, 3D All_Trans, and 3D All.

One-port: recursive halving — at step ``k`` each node sends its partner the
accumulated partial sums destined to the partner's half; volumes halve, so
the total is ``t_s·log N + t_w·(N-1)·M`` with ``M`` the per-destination
block size (the inverse of the all-to-all broadcast cost, as Table 1 notes).

Multi-port: chunked rotated halving, ``t_s·log N + t_w·(N-1)·M/log N``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtags
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.phase import make_spec
from repro.collectives.sbt import exchange_partners
from repro.errors import SimulationError
from repro.mpi.communicator import Comm
from repro.mpi.detector import LOST_PAYLOAD, lost_like
from repro.sim.ops import FALLBACK, CollectivePhaseOp

__all__ = ["reduce_scatter"]


def reduce_scatter(
    comm: Comm,
    blocks: Sequence,
    op: Callable = np.add,
    tag: int = 7,
    schedule: Schedule | None = None,
):
    """Reduce ``blocks[i]`` over all ranks onto comm rank ``i``; returns mine.

    Generator — call with ``yield from``.
    """
    if len(blocks) != comm.size:
        raise SimulationError(
            f"reduce_scatter needs {comm.size} blocks, got {len(blocks)}"
        )
    if comm.size == 1:
        return np.asarray(blocks[0])
    sched = resolve_schedule(comm, schedule)
    spec = make_spec("reduce_scatter", comm, tuple(blocks), tag, sched, op=op)
    if spec is not None:
        verdict = yield CollectivePhaseOp((spec,))
        if verdict is not FALLBACK:
            return verdict
    if sched is Schedule.SBT:
        return (yield from _reduce_scatter_halving(comm, blocks, op, tag))
    return (yield from _reduce_scatter_rotated(comm, blocks, op, tag))


def _reduce_scatter_halving(comm: Comm, blocks, op: Callable, tag: int):
    ctx, nodes, rank_of_sub = comm.ctx, comm.members, comm.rank_of_sub
    sub_of_rank = comm.sub_of_rank
    me = comm.rank
    my_sub = sub_of_rank[me]
    tags = subtags(tag, comm.dimension)
    acc = {dst: np.array(blocks[dst]) for dst in range(comm.size)}
    for k, partners in enumerate(exchange_partners(comm.dimension, my_sub)):
        bit = 1 << k
        moving = {
            dst: acc.pop(dst)
            for dst in list(acc)
            if (sub_of_rank[dst] ^ my_sub) & bit
        }
        got = yield from ctx.exchange(nodes[rank_of_sub[partners[0]]], moving, tags[k])
        if got is LOST_PAYLOAD:
            # The partner's partial sums for my half died with it: every
            # destination I still accumulate is missing contributions, so
            # poison them all (NaN absorbs through the reduction op).
            for dst in acc:
                acc[dst] = op(acc[dst], lost_like(acc[dst]))
        else:
            for dst, arr in got.items():
                acc[dst] = op(acc[dst], arr)
    if set(acc) != {me}:
        raise SimulationError(f"reduce_scatter invariant broken at rank {me}")
    return acc[me]


def _reduce_scatter_rotated(comm: Comm, blocks, op: Callable, tag: int):
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
        {dst: np.array(parts[dst][j]) for dst in range(comm.size)}
        for j in range(d)
    ]

    for partners in exchange_partners(d, my_sub):
        handles = []
        arrivals = []
        for j, peer_sub in enumerate(partners):
            bit = peer_sub ^ my_sub
            peer = nodes[rank_of_sub[peer_sub]]
            moving = {
                dst: schedules[j].pop(dst)
                for dst in list(schedules[j])
                if (sub_of_rank[dst] ^ my_sub) & bit
            }
            hs = yield from ctx.isend(peer, moving, tags[j])
            hr = yield from ctx.irecv(peer, tags[j])
            handles.extend((hs, hr))
            arrivals.append((j, hr))
        yield from ctx.waitall(handles)
        for j, hr in arrivals:
            if hr.value is LOST_PAYLOAD:
                for dst in schedules[j]:
                    schedules[j][dst] = op(
                        schedules[j][dst], lost_like(schedules[j][dst])
                    )
            else:
                for dst, arr in hr.value.items():
                    schedules[j][dst] = op(schedules[j][dst], arr)

    chunks = []
    for j in range(d):
        if set(schedules[j]) != {me}:
            raise SimulationError(
                f"rotated reduce_scatter invariant broken at rank {me}, tree {j}"
            )
        chunks.append(schedules[j][me])
    return rebuild_from_header(chunks, headers[me])
