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

from repro.collectives.api import Schedule, resolve_schedule, subtag
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.sbt import (
    distribute_child,
    distribute_parent,
    distribute_recv_step,
    identity_order,
    rotated_order,
)
from repro.collectives.phase import attempt, make_spec
from repro.mpi.communicator import Comm
from repro.sim.ops import FALLBACK

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
    verdict = yield from attempt(
        make_spec("broadcast", comm, data, tag, schedule, root=root)
    )
    if verdict is not FALLBACK:
        return verdict
    sched = resolve_schedule(comm, schedule)
    if sched is Schedule.SBT:
        return (yield from _broadcast_sbt(comm, data, root, tag))
    return (yield from _broadcast_rotated(comm, data, root, tag))


def _broadcast_sbt(comm: Comm, data: Any, root: int, tag: int):
    d = comm.dimension
    order = identity_order(d)
    rel = comm.rel_index(comm.rank, root)

    if rel == 0:
        start = 0
    else:
        t_recv = distribute_recv_step(rel, order)
        parent = comm.from_rel(distribute_parent(rel, order), root)
        data = yield from comm.recv(parent, subtag(tag, t_recv))
        start = t_recv + 1

    for t in range(start, d):
        child = comm.from_rel(distribute_child(rel, order, t), root)
        yield from comm.send(child, data, subtag(tag, t))
    return data


def _broadcast_rotated(comm: Comm, data: Any, root: int, tag: int):
    arr = np.asarray(data)
    d = comm.dimension
    rel = comm.rel_index(comm.rank, root)
    orders = [rotated_order(d, j) for j in range(d)]

    if rel == 0:
        have: list = list(split_chunks(arr, d))
        header = chunk_header(arr)
        recv_steps = [None] * d
    else:
        have = [None] * d
        header = None
        recv_steps = [distribute_recv_step(rel, orders[j]) for j in range(d)]

    for t in range(d):
        handles = []
        arrivals = []  # (tree, handle)
        for j in range(d):
            if rel == 0 or recv_steps[j] < t:
                child = comm.from_rel(distribute_child(rel, orders[j], t), root)
                h = yield from comm.isend(child, (have[j], header), subtag(tag, j))
                handles.append(h)
            elif recv_steps[j] == t:
                parent = comm.from_rel(distribute_parent(rel, orders[j]), root)
                h = yield from comm.irecv(parent, subtag(tag, j))
                arrivals.append((j, h))
                handles.append(h)
        if handles:
            yield from comm.ctx.waitall(handles)
        for j, h in arrivals:
            chunk, hdr = h.value
            have[j] = chunk
            header = hdr

    if rel == 0:
        return data
    return rebuild_from_header(have, header)
