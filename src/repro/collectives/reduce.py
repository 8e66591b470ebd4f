"""All-to-one reduction — the communication inverse of broadcast.

One-port: combining binomial tree with element-wise accumulation at every
internal node: ``t_s·log N + t_w·M·log N``.

Multi-port: the accumulator is split into ``log N`` chunks reduced down
``log N`` rotated combining trees: ``t_s·log N + t_w·M``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.collectives.api import Schedule, resolve_schedule, subtag
from repro.collectives.chunking import chunk_header, rebuild_from_header, split_chunks
from repro.collectives.sbt import (
    combine_child,
    combine_parent,
    combine_send_step,
    identity_order,
    rotated_order,
)
from repro.collectives.phase import attempt, make_spec
from repro.mpi.communicator import Comm
from repro.sim.ops import FALLBACK

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
    verdict = yield from attempt(
        make_spec("reduce", comm, block, tag, schedule, root=root, op=op)
    )
    if verdict is not FALLBACK:
        return verdict
    sched = resolve_schedule(comm, schedule)
    if sched is Schedule.SBT:
        return (yield from _reduce_sbt(comm, block, root, op, tag))
    return (yield from _reduce_rotated(comm, block, root, op, tag))


def _reduce_sbt(comm: Comm, block: Any, root: int, op: Callable, tag: int):
    d = comm.dimension
    order = identity_order(d)
    rel = comm.rel_index(comm.rank, root)
    acc = np.array(block)  # private accumulator
    my_step = combine_send_step(rel, order)

    for t in range(d):
        if t == my_step:
            parent = comm.from_rel(combine_parent(rel, order), root)
            yield from comm.send(parent, acc, subtag(tag, t))
            return None
        child_rel = combine_child(rel, order, t)
        if child_rel is not None:
            child = comm.from_rel(child_rel, root)
            got = yield from comm.recv(child, subtag(tag, t))
            acc = op(acc, got)

    return acc


def _reduce_rotated(comm: Comm, block: Any, root: int, op: Callable, tag: int):
    arr = np.asarray(block)
    d = comm.dimension
    rel = comm.rel_index(comm.rank, root)
    orders = [rotated_order(d, j) for j in range(d)]
    chunks = [np.array(c) for c in split_chunks(arr, d)]
    send_steps = [combine_send_step(rel, orders[j]) for j in range(d)]

    for t in range(d):
        handles = []
        arrivals = []
        for j in range(d):
            if send_steps[j] == t:
                parent = comm.from_rel(combine_parent(rel, orders[j]), root)
                h = yield from comm.isend(parent, chunks[j], subtag(tag, j))
                handles.append(h)
            elif send_steps[j] is None or send_steps[j] > t:
                child_rel = combine_child(rel, orders[j], t)
                if child_rel is not None:
                    child = comm.from_rel(child_rel, root)
                    h = yield from comm.irecv(child, subtag(tag, j))
                    arrivals.append((j, h))
                    handles.append(h)
        if handles:
            yield from comm.ctx.waitall(handles)
        for j, h in arrivals:
            chunks[j] = op(chunks[j], h.value)

    if rel != 0:
        return None
    return rebuild_from_header(chunks, chunk_header(arr))
