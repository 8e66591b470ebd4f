"""Spanning-binomial-tree combinatorics (plain and rotated).

All functions work on *relative* subcube indices: the root of an operation
is relative index 0 and every other participant is its subcube index XORed
with the root's (see :meth:`repro.mpi.communicator.Comm.rel_index`).

A tree is described by its **dimension order** ``order = (a_0, …, a_{d-1})``:
the subcube dimension processed at each step.  The plain SBT uses the
identity order; the ``log N`` *rotated* trees use orders shifted by
``j = 0 … d-1``.  Two rotated trees never use the same dimension at the
same step, which is what makes the multi-port schedules edge-disjoint and
buys the ``log N``-fold bandwidth of Table 1.

Distribution trees (broadcast, scatter) grow the holder set from the root:
at step ``t`` every node whose relative bits lie within ``order[:t]`` sends
across dimension ``order[t]``.  Combining trees (reduce, gather) are the
mirror image: a node sends its accumulated data at the step of its first
set bit (in ``order`` position), to the parent obtained by clearing it.

Role tables
-----------
The ``distribute_*`` / ``combine_*`` functions are the definition of the
trees; the event-path programs read tables derived from them, built once
per ``(tree kind, dimension order, relative index)`` and shared by every
call, rank and run (the tables are read-only tuples):

* :func:`tree_role` — a node's ``(step, peer)`` receives and sends in one
  tree, in step order: a distribution tree's one receive (from its parent)
  precedes its sends, a combining tree's receives precede its one send;
* :func:`rotated_moves` — per step, the ``(tree, sends, peer)`` moves of the
  ``log N`` rotated trees, in tree order;
* :func:`exchange_partners` — per step, the dimension-exchange partner in
  each rotated schedule (schedule 0, the identity order, is the one-port
  schedule's).

``tests/collectives/test_roles.py`` holds every table to the definitions
and every program's op stream to the tables.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import SimulationError

__all__ = [
    "identity_order",
    "rotated_order",
    "dims_mask",
    "distribute_child",
    "distribute_recv_step",
    "distribute_parent",
    "combine_send_step",
    "combine_parent",
    "combine_child",
    "subtree_members",
    "tree_role",
    "rotated_moves",
    "exchange_partners",
]


@lru_cache(maxsize=None)
def identity_order(d: int) -> tuple[int, ...]:
    """The plain SBT dimension order ``(0, 1, …, d-1)``."""
    return tuple(range(d))


@lru_cache(maxsize=None)
def rotated_order(d: int, j: int) -> tuple[int, ...]:
    """Dimension order of rotated tree ``j``: ``(j, j+1, …) mod d``."""
    if not 0 <= j < d:
        raise SimulationError(f"rotation {j} out of range for {d} dimensions")
    return tuple((j + t) % d for t in range(d))


def dims_mask(order: tuple[int, ...], t: int) -> int:
    """Bitmask of the first ``t`` dimensions of ``order``."""
    mask = 0
    for a in order[:t]:
        mask |= 1 << a
    return mask


# -- distribution trees (broadcast / scatter) -------------------------------


def distribute_child(rel: int, order: tuple[int, ...], t: int) -> int | None:
    """Relative index this node sends to at step ``t``, or ``None``.

    A node participates as a sender at step ``t`` iff it already holds the
    data, i.e. its relative bits lie within ``order[:t]``.
    """
    if rel & ~dims_mask(order, t):
        return None
    return rel | (1 << order[t])


def distribute_recv_step(rel: int, order: tuple[int, ...]) -> int | None:
    """Step at which this node receives, or ``None`` for the root."""
    if rel == 0:
        return None
    last = -1
    for t, a in enumerate(order):
        if (rel >> a) & 1:
            last = t
    if last < 0:
        raise SimulationError(f"relative index {rel} has bits outside order {order}")
    return last


def distribute_parent(rel: int, order: tuple[int, ...]) -> int:
    """The node this one receives from (clear the last-processed bit)."""
    t = distribute_recv_step(rel, order)
    if t is None:
        raise SimulationError("the root has no parent")
    return rel & ~(1 << order[t])


# -- combining trees (reduce / gather) --------------------------------------


def combine_send_step(rel: int, order: tuple[int, ...]) -> int | None:
    """Step at which this node sends its accumulation (first set bit), or
    ``None`` for the root (which never sends)."""
    if rel == 0:
        return None
    for t, a in enumerate(order):
        if (rel >> a) & 1:
            return t
    raise SimulationError(f"relative index {rel} has bits outside order {order}")


def combine_parent(rel: int, order: tuple[int, ...]) -> int:
    """The node this one sends its accumulation to (first set bit cleared)."""
    t = combine_send_step(rel, order)
    if t is None:
        raise SimulationError("the root has no parent")
    return rel & ~(1 << order[t])


def combine_child(rel: int, order: tuple[int, ...], t: int) -> int | None:
    """Relative index that sends to this node at step ``t``, or ``None``.

    Node ``rel`` receives at step ``t`` iff its bits over ``order[:t+1]``
    are all clear; the child is ``rel | 1 << order[t]``.
    """
    if rel & dims_mask(order, t + 1):
        return None
    return rel | (1 << order[t])


def subtree_members(rel: int, order: tuple[int, ...], t: int) -> list[int]:
    """Relative indices whose data node ``rel`` is responsible for after
    step ``t`` of a scatter (they agree with ``rel`` on ``order[:t]``)."""
    fixed = dims_mask(order, t)
    free = [a for a in order[t:]]
    out = []
    for combo in range(1 << len(free)):
        node = rel & fixed
        for k, a in enumerate(free):
            if (combo >> k) & 1:
                node |= 1 << a
        out.append(node)
    return out


# -- role tables: what the event-path programs read -------------------------

#: ``(step, peer)`` pairs, in step order; ``peer`` is a relative index
Moves = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def tree_role(kind: str, order: tuple[int, ...], rel: int) -> tuple[Moves, Moves]:
    """``(receives, sends)`` of node ``rel`` in the ``kind`` tree along
    ``order`` (``"distribute"``: broadcast, scatter; ``"combine"``: reduce,
    gather), each a tuple of ``(step, peer)``.

    Every receive comes before every send: a distribution tree's node
    receives once, from its parent, and then sends to a child per later
    step; a combining tree's node receives from a child per step before
    its first set bit and then sends once, to its parent.  The root of a
    distribution tree has no receive, the root of a combining tree no send.
    """
    steps = range(len(order))
    if kind == "distribute":
        recvs: list = []
        t = distribute_recv_step(rel, order)
        if t is not None:
            recvs.append((t, distribute_parent(rel, order)))
        sends = [(s, distribute_child(rel, order, s)) for s in steps]
    elif kind == "combine":
        recvs = [(s, combine_child(rel, order, s)) for s in steps]
        sends = []
        t = combine_send_step(rel, order)
        if t is not None:
            sends.append((t, combine_parent(rel, order)))
    else:
        raise SimulationError(f"unknown tree kind {kind!r}")
    return (
        tuple([move for move in recvs if move[1] is not None]),
        tuple([move for move in sends if move[1] is not None]),
    )


@lru_cache(maxsize=None)
def rotated_moves(
    kind: str, d: int, rel: int
) -> tuple[tuple[tuple[int, bool, int], ...], ...]:
    """Per step ``t < d``, the ``(tree, sends, peer)`` moves of node ``rel``
    in the ``d`` rotated ``kind`` trees, in tree order: ``sends`` is True
    for a send to ``peer``, False for a receive from it.  A node moves at
    most once per tree and step (see :func:`tree_role`)."""
    steps: list[list] = [[] for _ in range(d)]
    for j in range(d):
        recvs, sends = tree_role(kind, rotated_order(d, j), rel)
        for t, peer in sends:
            steps[t].append((j, True, peer))
        for t, peer in recvs:
            steps[t].append((j, False, peer))
    return tuple([tuple(moves) for moves in steps])


@lru_cache(maxsize=None)
def exchange_partners(d: int, rel: int) -> tuple[tuple[int, ...], ...]:
    """Per step ``t < d``, node ``rel``'s partner in each of the ``d``
    rotated dimension-exchange schedules: schedule ``j`` crosses dimension
    ``rotated_order(d, j)[t]`` at step ``t``.  Schedule 0 crosses dimension
    ``t``, the one-port (recursive doubling / halving) schedule's step."""
    orders = [rotated_order(d, j) for j in range(d)]
    return tuple(
        [tuple([rel ^ (1 << order[t]) for order in orders]) for t in range(d)]
    )
