"""The role tables are the trees, and the programs walk the tables.

:mod:`repro.collectives.sbt` derives each node's role in a tree once per
``(tree kind, dimension order, relative index)``; the event-path programs
read those tables instead of the ``distribute_*`` / ``combine_*``
functions.  Two exhaustive checks hold the tables to the definitions:

* every cached role, for every ``d <= 10``, relative index and rotation,
  equals what the definitions give, stated the way the per-step loops
  used them (:class:`TestTables`);
* every collective × schedule × root, on a 4-cube and on a non-contiguous
  3-D subcube of a 6-cube, yields per rank exactly the ``(op, peer node,
  tag, words)`` stream derived from the definitions — peers translated
  through a subcube numbering computed here, not the communicator's
  (:func:`test_each_rank_yields_the_ops_the_definitions_give`).
"""

import numpy as np
import pytest

from repro.collectives import (
    Schedule,
    allgather,
    allreduce,
    alltoall,
    broadcast,
    gather,
    reduce,
    reduce_scatter,
    scatter,
)
from repro.collectives.api import subtag
from repro.collectives.chunking import chunk_sizes
from repro.collectives.sbt import (
    combine_child,
    combine_parent,
    combine_send_step,
    distribute_child,
    distribute_parent,
    distribute_recv_step,
    exchange_partners,
    identity_order,
    rotated_moves,
    rotated_order,
    tree_role,
)
from repro.errors import SimulationError
from repro.mpi import Comm
from repro.mpi.proxy import ContextProxy
from repro.sim import MachineConfig, run_spmd
from repro.sim.message import payload_words
from repro.sim.process import ANY_SOURCE, ANY_TAG

DIMS = range(1, 11)


# -- the tables against the definitions ---------------------------------------


def _distribute(order, rel):
    """A distribution-tree node's receive, then a send per later step."""
    recvs, start = [], 0
    if rel:
        t = distribute_recv_step(rel, order)
        recvs, start = [(t, distribute_parent(rel, order))], t + 1
    sends = [(t, distribute_child(rel, order, t)) for t in range(start, len(order))]
    assert None not in [child for _, child in sends]
    return tuple(recvs), tuple(sends)


def _combine(order, rel):
    """A combining-tree node's receives up to its send step, then the send."""
    step = combine_send_step(rel, order)
    recvs = []
    for t in range(len(order) if step is None else step):
        child = combine_child(rel, order, t)
        if child is not None:
            recvs.append((t, child))
    sends = [] if step is None else [(step, combine_parent(rel, order))]
    return tuple(recvs), tuple(sends)


_DEFINITION = {"distribute": _distribute, "combine": _combine}


def _rotated_step(kind, d, rel, t):
    """Step ``t`` of the rotated trees as the per-step loops decided it:
    a distribution node sends once it holds the chunk and receives at its
    receive step; a combining node sends at its send step and receives
    from a child until then."""
    moves = []
    for j in range(d):
        order = rotated_order(d, j)
        if kind == "distribute":
            t_recv = distribute_recv_step(rel, order)
            if rel == 0 or t_recv < t:
                moves.append((j, True, distribute_child(rel, order, t)))
            elif t_recv == t:
                moves.append((j, False, distribute_parent(rel, order)))
        else:
            t_send = combine_send_step(rel, order)
            if t_send == t:
                moves.append((j, True, combine_parent(rel, order)))
            elif t_send is None or t_send > t:
                child = combine_child(rel, order, t)
                if child is not None:
                    moves.append((j, False, child))
    return tuple(moves)


class TestTables:
    @pytest.mark.parametrize("kind", ["distribute", "combine"])
    @pytest.mark.parametrize("d", DIMS)
    def test_every_role_of_every_tree_is_the_definitions(self, kind, d):
        for j in range(d):
            order = rotated_order(d, j)
            for rel in range(1 << d):
                assert tree_role(kind, order, rel) == _DEFINITION[kind](order, rel)

    @pytest.mark.parametrize("kind", ["distribute", "combine"])
    @pytest.mark.parametrize("d", DIMS)
    def test_rotated_moves_are_the_trees_step_by_step(self, kind, d):
        for rel in range(1 << d):
            table = rotated_moves(kind, d, rel)
            assert len(table) == d
            for t, moves in enumerate(table):
                assert moves == _rotated_step(kind, d, rel, t)

    @pytest.mark.parametrize("d", DIMS)
    def test_exchange_partners_cross_each_schedules_dimension(self, d):
        for rel in range(1 << d):
            table = exchange_partners(d, rel)
            assert table == tuple(
                tuple(rel ^ (1 << rotated_order(d, j)[t]) for j in range(d))
                for t in range(d)
            )
            # schedule 0 is the one-port schedule: dimension t at step t
            assert [partners[0] for partners in table] == [
                rel ^ (1 << t) for t in identity_order(d)
            ]

    def test_the_tables_are_shared_read_only_tuples(self):
        order = identity_order(3)
        assert tree_role("combine", order, 4) is tree_role("combine", order, 4)
        assert rotated_moves("distribute", 3, 5) is rotated_moves("distribute", 3, 5)
        assert isinstance(rotated_moves("distribute", 3, 5)[0], tuple)

    def test_an_unknown_tree_kind_is_refused(self):
        with pytest.raises(SimulationError):
            tree_role("gossip", identity_order(2), 1)


# -- the programs' op streams against the definitions --------------------------


class _Recorder(ContextProxy):
    """Logs every point-to-point call as ``(op, peer node, tag, words)``
    (``words`` of a receive is None; a ``waitall`` logs its handle count)
    and forwards it.  Being a wrapped context, it declares no phase."""

    def __init__(self, ctx, log):
        super().__init__(ctx)
        self.log = log

    def send(self, dst, data, tag=0, nwords=None):
        self.log.append(("send", dst, tag, payload_words(data, nwords)))
        return self._ctx.send(dst, data, tag, nwords)

    def isend(self, dst, data, tag=0, nwords=None):
        self.log.append(("isend", dst, tag, payload_words(data, nwords)))
        return self._ctx.isend(dst, data, tag, nwords)

    def recv(self, src=ANY_SOURCE, tag=ANY_TAG, timeout=None):
        self.log.append(("recv", src, tag, None))
        return self._ctx.recv(src, tag, timeout=timeout)

    def irecv(self, src=ANY_SOURCE, tag=ANY_TAG, timeout=None):
        self.log.append(("irecv", src, tag, None))
        return self._ctx.irecv(src, tag, timeout=timeout)

    def waitall(self, handles):
        handles = list(handles)
        self.log.append(("waitall", None, None, len(handles)))
        return self._ctx.waitall(handles)

    def exchange(self, peer, data, tag=0, nwords=None, timeout=None):
        self.log.append(("exchange", peer, tag, payload_words(data, nwords)))
        return self._ctx.exchange(peer, data, tag, nwords)


#: (machine nodes, members in semantic order, free dimensions)
CUBES = {
    # the whole 4-cube, comm ranks in reverse node order
    "4-cube": (16, tuple(range(15, -1, -1)), (0, 1, 2, 3)),
    # dimensions 1, 3 and 4 of a 6-cube anchored at node 0b100001, comm
    # ranks in a shuffled order
    "3-subcube of 6-cube": (
        64,
        tuple(
            0b100001 | (a << 1) | (b << 3) | (c << 4)
            for a, b, c in [(1, 0, 1), (0, 0, 0), (1, 1, 0), (0, 1, 1),
                            (0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 0)]
        ),
        (1, 3, 4),
    ),
}

M = 6  # words per block: uneven chunks over 3 and 4 trees
TAG = 9


def _block(rank):
    return np.arange(M, dtype=float).reshape(2, 3) + 100.0 * rank


class _Layout:
    """Subcube numbering recomputed from the free dimensions."""

    def __init__(self, members, free_dims):
        self.members, self.d, self.n = members, len(free_dims), len(members)
        self.sub = [
            sum(((node >> f) & 1) << i for i, f in enumerate(free_dims))
            for node in members
        ]
        self._node = {s: node for s, node in zip(self.sub, members)}

    def node(self, sub):
        return self._node[sub]


def _tree_ops(layout, me, root, kind, sched, words):
    """``words(j, t)``: the words a send carries in tree ``j`` (-1: the
    plain tree) at step ``t``."""
    d = layout.d
    root_sub = layout.sub[root]
    rel = layout.sub[me] ^ root_sub

    def node(r):
        return layout.node(r ^ root_sub)

    ops = []
    if sched is Schedule.SBT:
        recvs, sends = _DEFINITION[kind](identity_order(d), rel)
        for t, peer in recvs:
            ops.append(("recv", node(peer), subtag(TAG, t), None))
        for t, peer in sends:
            ops.append(("send", node(peer), subtag(TAG, t), words(-1, t)))
        return ops
    for t in range(d):
        moves = _rotated_step(kind, d, rel, t)
        for j, sends, peer in moves:
            if sends:
                ops.append(("isend", node(peer), subtag(TAG, j), words(j, t)))
            else:
                ops.append(("irecv", node(peer), subtag(TAG, j), None))
        if moves:
            ops.append(("waitall", None, None, len(moves)))
    return ops


def _exchange_ops(layout, me, sched, words, tag=TAG):
    """``words(j, t)``: the words schedule ``j`` (-1: the one-port one)
    sends at step ``t``."""
    d, sub = layout.d, layout.sub[me]
    ops = []
    for t in range(d):
        if sched is Schedule.SBT:
            ops.append(("exchange", layout.node(sub ^ (1 << t)), subtag(tag, t),
                        words(-1, t)))
            continue
        for j in range(d):
            peer = layout.node(sub ^ (1 << rotated_order(d, j)[t]))
            ops.append(("isend", peer, subtag(tag, j), words(j, t)))
            ops.append(("irecv", peer, subtag(tag, j), None))
        ops.append(("waitall", None, None, 2 * d))
    return ops


def _chunk(words, d, j):
    return words if j < 0 else chunk_sizes(words, d)[j]


def _expected(name, layout, me, root, sched):
    d, n = layout.d, layout.n
    if name in ("broadcast", "reduce"):
        kind = "distribute" if name == "broadcast" else "combine"
        return _tree_ops(layout, me, root, kind, sched,
                         lambda j, t: _chunk(M, d, j))
    if name == "scatter":  # the child's subtree: 2^(d-t-1) blocks
        return _tree_ops(layout, me, root, "distribute", sched,
                         lambda j, t: _chunk(M, d, j) << (d - t - 1))
    if name == "gather":  # everything collected before the send at t: 2^t blocks
        return _tree_ops(layout, me, root, "combine", sched,
                         lambda j, t: _chunk(M, d, j) << t)
    if name == "allgather":  # doubling: 2^t blocks
        return _exchange_ops(layout, me, sched, lambda j, t: _chunk(M, d, j) << t)
    if name == "alltoall":  # half of all items every step
        return _exchange_ops(layout, me, sched,
                             lambda j, t: _chunk(M, d, j) * n // 2)
    if name == "reduce_scatter":  # halving: n / 2^(t+1) blocks
        return _exchange_ops(layout, me, sched,
                             lambda j, t: _chunk(M, d, j) * n >> (t + 1))
    # allreduce of an n-word block: reduce-scatter of one-word pieces,
    # then their allgather
    piece = 1
    return _exchange_ops(
        layout, me, sched, lambda j, t: _chunk(piece, d, j) * n >> (t + 1)
    ) + _exchange_ops(
        layout, me, sched, lambda j, t: _chunk(piece, d, j) << t, tag=TAG + 1
    )


def _call(name, comm, root, sched):
    me, n = comm.rank, comm.size
    if name == "broadcast":
        return broadcast(comm, _block(root) if me == root else None, root, TAG, sched)
    if name == "reduce":
        return reduce(comm, _block(me), root, tag=TAG, schedule=sched)
    if name == "scatter":
        blocks = [_block(r) for r in range(n)] if me == root else None
        return scatter(comm, blocks, root, TAG, sched)
    if name == "gather":
        return gather(comm, _block(me), root, TAG, sched)
    if name == "allgather":
        return allgather(comm, _block(me), TAG, sched)
    if name == "alltoall":
        return alltoall(comm, [_block(me * n + r) for r in range(n)], TAG, sched)
    if name == "reduce_scatter":
        return reduce_scatter(comm, [_block(me * n + r) for r in range(n)],
                              tag=TAG, schedule=sched)
    return allreduce(comm, np.arange(n, dtype=float) + me, tag=TAG, schedule=sched)


ROOTED = ["broadcast", "reduce", "scatter", "gather"]
UNROOTED = ["allgather", "alltoall", "reduce_scatter", "allreduce"]


@pytest.mark.parametrize("cube", CUBES)
@pytest.mark.parametrize("sched", [Schedule.SBT, Schedule.ROTATED],
                         ids=["sbt", "rotated"])
@pytest.mark.parametrize("name", ROOTED + UNROOTED)
def test_each_rank_yields_the_ops_the_definitions_give(name, sched, cube):
    p, members, free_dims = CUBES[cube]
    layout = _Layout(members, free_dims)
    cfg = MachineConfig.create(p, t_s=10.0, t_w=1.0)
    for root in range(layout.n) if name in ROOTED else [0]:
        logs = {node: [] for node in members}

        def prog(ctx):
            if ctx.rank not in logs:
                return None
            comm = Comm(_Recorder(ctx, logs[ctx.rank]), members)
            return (yield from _call(name, comm, root, sched))

        run_spmd(cfg, prog, superstep=False)
        for me, node in enumerate(members):
            assert logs[node] == _expected(name, layout, me, root, sched), (
                f"{name} {sched.value} on the {cube}, root {root}, comm rank {me}"
            )
