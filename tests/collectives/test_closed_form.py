"""The collective closed form against the event path, case by case.

Conformance runs whole algorithms through ``superstep=True`` and
``superstep=False`` and compares digests — but the resolver answers any
refusal or exception while planning with the event-path fallback, so a
broken planner still passes there.  This matrix closes that hole: every
(kind, port model, subcube dimension, root) and the one-port fused pairs
run on inputs chosen to break a recurrence that is only almost right, and
the engine's own counters (``RunResult.collective_phases_*``,
``closed_form_refusals``) assert that the closed form *answered* every
phase — or, in the refusal cases at the end, that it refused under the
expected name and the fallback still equals the event path.  Both paths
are compared down to every channel's and every send port's free time,
busy time and reservation count.  A neighbour-exchange round is no phase:
the engine issues it, and its programs are held to the same comparison.

The inputs, per case:

* two groups at once (the machine's lowest bit picks the group), members
  listed in scrambled order, subcube dimensions 1..d of a (d+1)-cube;
* payload sizes the tree count does not divide, unequal across ranks
  where the collective allows it;
* non-dyadic ``t_s``/``t_w``/``t_c``, so a reordered float fold shows;
* a ``compute`` of rank-dependent length before the call (staggered
  entry times);
* a unicast through the group first: its sender's channel and port carry
  busy time in, and when d >= 2 it is forwarded by a middle node whose
  channel and send port are still held *after* that node has entered the
  collective.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.superstep as superstep_mod
from repro.collectives import (
    allgather,
    alltoall,
    broadcast,
    reduce,
    reduce_scatter,
)
from repro.collectives.chunking import chunk_slices
from repro.collectives.phase import (
    CollectiveCall,
    allgather_call,
    make_spec,
    parallel_pair,
)
from repro.mpi import Comm
from repro.sim import MachineConfig, PortModel
from repro.sim.engine import Engine
from repro.sim.process import ANY_SOURCE

PARAMS = {"t_s": 7.3, "t_w": 1.9, "t_c": 0.37}
WARM_WORDS = 12
WARM_HOP = PARAMS["t_s"] + PARAMS["t_w"] * WARM_WORDS

EXCHANGE = ("allgather", "alltoall", "reduce_scatter")
ROOTED = ("broadcast", "reduce")


def _members(d: int, low_bit: int) -> list[int]:
    """The group with the given lowest machine bit, in scrambled order."""
    nodes = [(s << 1) | low_bit for s in range(1 << d)]
    return nodes[1::2][::-1] + nodes[0::2]


def _vec(size: int, salt: int) -> np.ndarray:
    """Values whose sums depend on the order they are folded in."""
    return (np.arange(size, dtype=np.float64) + 1.0) * 0.1 * (salt + 1) + 1.0 / 3.0


def _call(kind: str, comm: Comm, root: int):
    me, n = comm.rank, comm.size
    if kind == "allgather":
        return allgather(comm, _vec(5 + me, me).reshape(1, -1))
    if kind == "alltoall":
        return alltoall(
            comm, [_vec(3 + (me + 2 * dst) % 5, me * n + dst) for dst in range(n)]
        )
    if kind == "reduce_scatter":
        return reduce_scatter(
            comm, [_vec(5 + dst, me * n + dst) for dst in range(n)]
        )
    if kind == "broadcast":
        data = _vec(25, me).reshape(5, 5) if me == root else None
        return broadcast(comm, data, root=root)
    return reduce(comm, _vec(25, me).reshape(5, 5), root=root)


def _program(kind: str, d: int, root: int):
    def prog(ctx):
        low = ctx.rank & 1
        comm = Comm(ctx, _members(d, low))
        # Warm-up unicast inside the group: two hops when the group has
        # two dimensions to cross, one otherwise.
        src = low
        span = 0b110 if d >= 2 else 0b010
        dst = src ^ span
        middles = {src ^ 0b010, src ^ 0b100} if d >= 2 else set()
        if ctx.rank == src:
            yield from ctx.send(dst, np.ones(WARM_WORDS), tag=99)
        elif ctx.rank == dst:
            yield from ctx.recv(src, tag=99)
        if ctx.rank in middles:
            # Enter the collective while the forwarded hop (which starts
            # at WARM_HOP, store-and-forward) still holds this node's
            # outgoing channel and send port.
            yield from ctx.compute(1.5 * WARM_HOP / PARAMS["t_c"])
        else:
            yield from ctx.compute(11.0 * (comm.rank % 3))
        value = yield from _call(kind, comm, root)
        return value, ctx.now

    return prog


def _same(a, b) -> bool:
    """Bitwise equality of nested list/tuple/array/None results."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


def _run(prog, p, port, superstep, **run_kw):
    """One path's observables, tracker columns included."""
    engine = Engine(
        MachineConfig.create(p, port_model=port, **PARAMS),
        superstep=superstep, **run_kw,
    )
    result = engine.run(prog)
    tracker = engine.tracker
    slots = dict(tracker._channel_ids)
    if port is PortModel.ONE_PORT:  # node u's send port is slot u
        slots.update({node: node for node in range(p)})
    resources = {
        key: (float(tracker._free[i]), float(tracker._busy[i]), int(tracker._nres[i]))
        for key, i in slots.items()
    }
    return result, resources


def _both_paths(prog, p, port, **run_kw):
    """Run ``prog`` on the default path and on the event path; the two
    agree bit for bit, down to every channel and send port."""
    fast, fast_resources = _run(prog, p, port, True, **run_kw)
    slow, slow_resources = _run(prog, p, port, False, **run_kw)
    assert fast.total_time == slow.total_time
    assert fast.stats == slow.stats
    assert fast.network == slow.network
    assert fast.trace_digest() == slow.trace_digest()
    assert fast_resources == slow_resources
    for rank in range(p):
        assert _same(fast.results[rank], slow.results[rank]), rank
    return fast, slow


def _assert_paths_agree(prog, p, port, refused=None, **run_kw):
    """Both paths agree bit for bit; the default one answered every
    declared phase in closed form — or, with ``refused`` set, refused under
    exactly that reason (plus the sub-task declarations a released fused
    pair repeats)."""
    fast, slow = _both_paths(prog, p, port, **run_kw)
    if refused is None:
        assert fast.collective_phases_closed_form > 0
        assert fast.collective_phases_event == 0, fast.closed_form_refusals
        assert fast.closed_form_refusals == {}
    else:
        assert set(fast.closed_form_refusals) - {"ctx.parallel sub-task"} == {
            refused
        }
    assert fast.collective_phases_event == sum(
        fast.closed_form_refusals.values()
    )
    assert slow.collective_phases_closed_form == 0  # the reference never parks
    assert set(slow.closed_form_refusals) == {"superstep disabled"}
    return fast


def _assert_rounds_agree(prog, p, port, **run_kw):
    """Both paths agree bit for bit on a program of neighbour-exchange
    rounds, none of which is a declared phase on either path."""
    fast, slow = _both_paths(prog, p, port, **run_kw)
    for run in (fast, slow):
        assert run.collective_phases_closed_form == run.collective_phases_event == 0
        assert run.closed_form_refusals == {}
    return fast


def _roots(d: int) -> list[int]:
    n = 1 << d
    return sorted({0, n // 2, n - 1})


CASES = [(kind, d, None) for kind in EXCHANGE for d in (1, 2, 3, 4)] + [
    (kind, d, root) for kind in ROOTED for d in (1, 2, 3, 4) for root in _roots(d)
]


@pytest.mark.parametrize(
    "kind,d,root", CASES,
    ids=[f"{k}-d{d}" + ("" if r is None else f"-root{r}") for k, d, r in CASES],
)
def test_closed_form_equals_event_path(port_model, kind, d, root):
    fast = _assert_paths_agree(_program(kind, d, root), 1 << (d + 1), port_model)
    # The collective did communicate (the matrix is not comparing no-ops).
    assert all(fast.stats[r].messages_sent + fast.stats[r].messages_received
               for r in range(1 << (d + 1)))


@pytest.mark.parametrize("d", [2, 3])
def test_timing_only_zero_reduce(port_model, d):
    """Timing-only runs reduce all-zero views; the multi-port closed form
    sizes those chunks from shapes alone and must still agree."""

    def prog(ctx):
        comm = Comm(ctx, range(1 << d))
        yield from ctx.compute(7.0 * (ctx.rank % 3))
        view = np.broadcast_to(0.0, (3, 5 + d))
        value = yield from reduce(comm, view, root=1)
        return value, ctx.now

    _assert_paths_agree(prog, 1 << d, port_model, timing_only=True)


# -- neighbour-exchange rounds: engine-issued, no phase ---------------------------


def _warm_up(ctx):
    """A two-hop unicast first, so channels and (one-port) send ports carry
    busy time into the phase, then a compute of rank-dependent length:
    staggered park times, the forwarder (rank 2) entering while its channel
    and port are still held, the destination as soon as the message lands."""
    if ctx.rank == 0:
        yield from ctx.send(0b110, np.ones(WARM_WORDS), tag=99)
    elif ctx.rank == 0b110:
        yield from ctx.recv(0, tag=99)
        return
    yield from ctx.compute(1.5 * WARM_HOP / PARAMS["t_c"] + 11.0 * (ctx.rank % 3))


def _exchange_round(ctx, dims: int, salt: int):
    """Every rank sends across every dimension, starting at a rank-dependent
    one (rows of the step table mix dimensions, receivers repeat within a
    row); even ranks send a second message over dimension 0 (one channel
    twice in a round); sizes differ per message."""
    me = ctx.rank
    sends, recvs = [], []
    for i in range(dims):
        k = (me + i) % dims
        sends.append((me ^ (1 << k), _vec(3 + (me + k + salt) % 5, me + salt), 10 + k))
        recvs.append((me ^ (1 << k), 10 + k))
    if me % 2 == 0:
        sends.append((me ^ 1, _vec(7, me + salt).reshape(1, 7), 20))
    else:
        recvs.insert(1, (me ^ 1, 20))
    return ctx.neighbor_exchange(sends, recvs)


@pytest.mark.parametrize("timing_only", [False, True], ids=["data", "timing_only"])
def test_neighbor_exchange_equals_event_path(port_model, timing_only):
    def prog(ctx):
        yield from _warm_up(ctx)
        first = yield from _exchange_round(ctx, 4, salt=0)
        yield from ctx.elapse(0.9 * (ctx.rank % 5))
        second = yield from _exchange_round(ctx, 4, salt=3)
        nothing = yield from ctx.neighbor_exchange([], [])
        return first, second, nothing, ctx.now

    fast = _assert_rounds_agree(prog, 16, port_model, timing_only=timing_only)
    assert fast.results[1][2] == []
    assert len(fast.results[1][0]) == 5 and len(fast.results[0][0]) == 4


def test_neighbor_exchange_runs_message_by_message_in_a_sub_task(port_model):
    """``ctx.parallel`` sub-tasks share their node's port with siblings: the
    round is answered ``FALLBACK`` and its loop runs."""

    def prog(ctx):
        def half(tag):
            return ctx.neighbor_exchange(
                [(ctx.rank ^ 1, _vec(4, ctx.rank + tag), tag)], [(ctx.rank ^ 1, tag)]
            )

        values = yield from ctx.parallel(half(1), half(2))
        return values, ctx.now

    _assert_rounds_agree(prog, 4, port_model)


# -- one-port fused pairs ----------------------------------------------------------


def _pair_comms(ctx, dims_a, dims_b):
    """The two subcubes through this rank spanning ``dims_a`` / ``dims_b``."""
    def members(dims):
        base = ctx.rank
        for k in dims:
            base &= ~(1 << k)
        out = []
        for s in range(1 << len(dims)):
            node = base
            for i, k in enumerate(dims):
                node |= ((s >> i) & 1) << k
            out.append(node)
        return out

    return Comm(ctx, members(dims_a)), Comm(ctx, members(dims_b))


def _pair_calls(kinds, comm_a, comm_b):
    calls = []
    for kind, comm, tag in zip(kinds, (comm_a, comm_b), (4, 5)):
        me, n = comm.rank, comm.size
        if kind == "allgather":
            calls.append(allgather_call(comm, _vec(12 + me % 3, me + tag), tag=tag))
            continue
        blocks = [_vec(8 + (me + dst) % 4, me * n + dst) for dst in range(n)]
        if kind == "reduce_scatter":
            blocks = [_vec(9 + dst, me * n + dst) for dst in range(n)]
        fn = alltoall if kind == "alltoall" else reduce_scatter
        op = {"op": np.add} if kind == "reduce_scatter" else {}
        calls.append(CollectiveCall(
            make_spec(kind, comm, blocks, tag, None, **op),
            lambda fn=fn, comm=comm, blocks=blocks, tag=tag: fn(comm, blocks, tag=tag),
        ))
    return calls


PAIRS = [
    (("allgather", "allgather"), (0, 1), (2, 3, 4)),
    (("allgather", "allgather"), (1, 3, 4), (0,)),
    (("alltoall", "reduce_scatter"), (2, 4), (0, 1, 3)),
]


def _pair_program(kinds, dims_a, dims_b, late_rank=None):
    def prog(ctx):
        yield from _warm_up(ctx)
        if ctx.rank == late_rank:
            yield from ctx.elapse(40.0 * WARM_HOP)
        comm_a, comm_b = _pair_comms(ctx, dims_a, dims_b)
        values = yield from parallel_pair(ctx, *_pair_calls(kinds, comm_a, comm_b))
        return values, ctx.now

    return prog


@pytest.mark.parametrize("timing_only", [False, True], ids=["data", "timing_only"])
@pytest.mark.parametrize(
    "kinds,dims_a,dims_b", PAIRS,
    ids=[f"{a}+{b}-d{len(da)}d{len(db)}" for (a, b), da, db in PAIRS],
)
def test_fused_pair_equals_event_path(port_model, kinds, dims_a, dims_b, timing_only):
    """Unequal round counts, staggered park times, pre-busied ports: on a
    one-port machine both schedules go through one port column."""
    fast = _assert_paths_agree(
        _pair_program(kinds, dims_a, dims_b), 32, port_model,
        timing_only=timing_only,
    )
    assert fast.collective_phases_closed_form == 32


# -- the stacked data plane: layouts, ops, dtypes -------------------------------


def _stacked_program(call, d: int):
    """Two scrambled groups (the machine's lowest bit picks one) entering at
    staggered times, then ``call(comm, low)`` with ``low`` that bit."""

    def prog(ctx):
        low = ctx.rank & 1
        comm = Comm(ctx, _members(d, low))
        yield from ctx.compute(11.0 * (comm.rank % 3) + 4.0 * low)
        value = yield from call(comm, low)
        return value, ctx.now

    return prog


def _ints(size: int, salt: int) -> np.ndarray:
    return np.arange(size, dtype=np.int64) * (salt + 1) - 7


def _uneven_rs(comm, low):
    """Column groups of a 3 × (2n + 1) partial: unequal, non-contiguous."""
    n = comm.size
    partial = _vec(3 * (2 * n + 1), comm.rank).reshape(3, 2 * n + 1)
    return reduce_scatter(
        comm, [partial[:, s] for s in chunk_slices(2 * n + 1, n)]
    )


def _two_layouts(kind):
    """The low-bit-1 group's blocks are 2 × 3, the other group's flat 5s."""

    def block(low, salt):
        return _vec(6, salt).reshape(2, 3) if low else _vec(5, salt)

    def call(comm, low):
        me, n = comm.rank, comm.size
        if kind == "allgather":
            return allgather(comm, block(low, me))
        blocks = [block(low, me * n + dst) for dst in range(n)]
        return (alltoall if kind == "alltoall" else reduce_scatter)(comm, blocks)

    return call


STACKED = {
    "reduce_scatter-uneven-2d": (_uneven_rs, 2),
    "reduce_scatter-tiny": (
        lambda comm, low: reduce_scatter(
            comm, [_vec(1, comm.rank * comm.size + dst) for dst in range(comm.size)]
        ), 3,
    ),
    "reduce-tiny": (lambda comm, low: reduce(comm, _vec(2, comm.rank), root=5), 3),
    "allgather-tiny": (lambda comm, low: allgather(comm, _vec(1, comm.rank)), 3),
    "alltoall-tiny": (
        lambda comm, low: alltoall(
            comm, [_vec(1, comm.rank + dst) for dst in range(comm.size)]
        ), 3,
    ),
    "reduce_scatter-maximum": (
        lambda comm, low: reduce_scatter(
            comm,
            [np.sin(_vec(4 + dst, comm.rank * comm.size + dst)) for dst in range(comm.size)],
            op=np.maximum,
        ), 2,
    ),
    "reduce-maximum": (
        lambda comm, low: reduce(
            comm, np.sin(_vec(9, comm.rank)).reshape(3, 3), root=2, op=np.maximum
        ), 2,
    ),
    "reduce_scatter-int": (
        lambda comm, low: reduce_scatter(
            comm, [_ints(3 + dst, comm.rank) for dst in range(comm.size)]
        ), 2,
    ),
    "reduce-int": (lambda comm, low: reduce(comm, _ints(7, comm.rank), root=1), 3),
    "allgather-int": (lambda comm, low: allgather(comm, _ints(4, comm.rank)), 2),
    "reduce_scatter-0d": (
        lambda comm, low: reduce_scatter(
            comm, [np.array(0.1 * comm.rank + dst / 3) for dst in range(comm.size)]
        ), 2,
    ),
    "reduce-0d": (lambda comm, low: reduce(comm, np.array(comm.rank / 3), root=3), 2),
    "allgather-0d": (lambda comm, low: allgather(comm, np.array(comm.rank / 7)), 2),
    "alltoall-0d": (
        lambda comm, low: alltoall(
            comm, [np.array(comm.rank + dst / 7) for dst in range(comm.size)]
        ), 2,
    ),
    "reduce_scatter-two-layouts": (_two_layouts("reduce_scatter"), 2),
    "alltoall-two-layouts": (_two_layouts("alltoall"), 2),
    "allgather-two-layouts": (_two_layouts("allgather"), 3),
    # parks staggered by comm rank and group, on both port models
    "reduce-staggered": (
        lambda comm, low: reduce(comm, _vec(10, comm.rank), root=comm.size - 1), 3,
    ),
}


@pytest.mark.parametrize("case", sorted(STACKED))
def test_stacked_data_plane_equals_event_path(port_model, case):
    call, d = STACKED[case]
    _assert_paths_agree(_stacked_program(call, d), 1 << (d + 1), port_model)


def _plus(a, b):
    """``+`` as a plain function: one object every rank passes (a group's
    members must agree on ``op``), but no ufunc."""
    return a + b


REFUSED = {
    "reduction op is not a ufunc": lambda comm, low: reduce_scatter(
        comm, [_vec(4, comm.rank + dst) for dst in range(comm.size)], op=_plus,
    ),
    # (3,) and (1, 3) blocks: one port broadcasts them into (1, 3) partials
    "a destination's blocks differ in shape": lambda comm, low: reduce_scatter(
        comm,
        [_vec(3, dst).reshape((1, 3) if comm.rank % 2 else (3,)) for dst in range(comm.size)],
    ),
    "blocks of mixed dtypes": lambda comm, low: allgather(
        comm, _vec(4, comm.rank).astype(np.float32 if comm.rank % 2 else np.float64)
    ),
    "payload is not an array": lambda comm, low: allgather(comm, float(comm.rank)),
}


@pytest.mark.parametrize("reason", sorted(REFUSED))
def test_stacked_data_plane_refuses_what_it_cannot_state(port_model, reason):
    _assert_paths_agree(
        _stacked_program(REFUSED[reason], 2), 8, port_model, refused=reason
    )


def test_an_op_that_changes_the_dtype_is_refused(port_model):
    """Integer blocks under ``true_divide``: the schedule's accumulator
    turns float after its first fold."""
    _assert_paths_agree(
        _stacked_program(
            lambda comm, low: reduce(comm, _ints(5, comm.rank) + 20, op=np.true_divide),
            2,
        ),
        8, port_model, refused="blocks of mixed dtypes",
    )


# -- refusals: named, and the fallback still equals the event path ---------------


def test_pair_whose_port_order_cannot_be_proven_is_refused():
    """One rank enters the pair long after the others: its partners' second
    rounds become ready b-first, the alternation a0 b0 a1 b1 does not hold,
    and the phase runs message by message."""
    prog = _pair_program(("allgather", "allgather"), (0, 1), (2, 3, 4), late_rank=5)
    fast = _assert_paths_agree(
        prog, 32, PortModel.ONE_PORT,
        refused="one-port pair: port order not provable",
    )
    assert fast.closed_form_refusals["ctx.parallel sub-task"] == 64


def test_rooted_pair_on_one_port_parks_and_batches():
    """A broadcast pair on one port is planned through one port column,
    like an exchange pair (a lifted pair's second declaration, whose lift
    may still be in flight, is refused instead: ``TestLiftedPairs``)."""

    def prog(ctx):
        comm_a, comm_b = _pair_comms(ctx, (0,), (1, 2))
        calls = []
        for comm, tag in ((comm_a, 4), (comm_b, 5)):
            data = _vec(6, ctx.rank) if comm.rank == 0 else None
            calls.append(CollectiveCall(
                make_spec("broadcast", comm, data, tag, None, root=0),
                lambda comm=comm, data=data, tag=tag: broadcast(comm, data, 0, tag),
            ))
        values = yield from parallel_pair(ctx, *calls)
        return values, ctx.now

    _assert_paths_agree(prog, 8, PortModel.ONE_PORT)


# -- neighbour-exchange rounds the closed form used to refuse ----------------------
#
# Named for the refusal each program once drew: the engine now issues every
# one of them, and only the same machine on both paths is left to assert.


def _round_agrees(port_model, sends_recvs, p=8, after=None):
    """One round per rank, entered at staggered times, then ``after``."""

    def prog(ctx):
        yield from ctx.compute(5.0 * (ctx.rank % 3))
        sends, recvs = sends_recvs(ctx.rank)
        got = yield from ctx.neighbor_exchange(sends, recvs)
        if after is not None:
            got = [got, (yield from after(ctx))]
        return got, ctx.now

    return _assert_rounds_agree(prog, p, port_model)


def test_exchange_beside_a_collective_is_refused(port_model):
    """Odd ranks run an allgather, even ranks a round: the allgather, the
    only phase, is answered in closed form once the rounds' traffic is
    done."""

    def prog(ctx):
        if ctx.rank & 1:
            comm = Comm(ctx, [1, 3, 5, 7])
            value = yield from allgather(comm, _vec(4, ctx.rank))
        else:
            peer = ctx.rank ^ 0b10
            value = yield from ctx.neighbor_exchange(
                [(peer, _vec(5, ctx.rank), 3)], [(peer, 3)]
            )
        return value, ctx.now

    fast, _slow = _both_paths(prog, 8, port_model)
    assert (fast.collective_phases_closed_form, fast.collective_phases_event) == (4, 0)
    assert fast.closed_form_refusals == {}


@pytest.mark.parametrize("hops", [0, 2], ids=["self", "two-hop"])
def test_exchange_with_a_non_neighbour_or_self_send_is_refused(port_model, hops):
    span = 0b011 if hops else 0

    def plan(rank):
        return [(rank ^ span, _vec(4, rank), 2)], [(rank ^ span, 2)]

    _round_agrees(port_model, plan)


def test_exchange_with_an_unmatched_tag_is_refused(port_model):
    """Rank 1 waits for a tag its neighbour only sends after the round."""

    def plan(rank):
        return [(rank ^ 1, _vec(4, rank), 5)], [(rank ^ 1, 6 if rank == 1 else 5)]

    def after(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, _vec(3, 9), tag=6)
        elif ctx.rank == 1:
            return (yield from ctx.recv(0, tag=5))

    _round_agrees(port_model, plan, after=after)


def test_exchange_with_a_wildcard_or_missing_receive_is_refused(port_model):
    def wildcard(rank):
        return [(rank ^ 1, _vec(4, rank), 5)], [(ANY_SOURCE, 5)]

    _round_agrees(port_model, wildcard)

    def missing(rank):
        # Odd ranks leave the message queued and pick it up afterwards.
        return [(rank ^ 1, _vec(4, rank), 5)], [] if rank & 1 else [(rank ^ 1, 5)]

    def after(ctx):
        if ctx.rank & 1:
            return (yield from ctx.recv(ctx.rank ^ 1, tag=5))
        yield from ()

    _round_agrees(port_model, missing, after=after)


def test_exchange_without_every_rank_is_refused(port_model):
    """Ranks that have already finished take no part in the round."""

    def prog(ctx):
        if ctx.rank >= 4:
            return None, ctx.now
        peer = ctx.rank ^ 1
        got = yield from ctx.neighbor_exchange([(peer, _vec(4, ctx.rank), 1)], [(peer, 1)])
        return got, ctx.now

    _assert_rounds_agree(prog, 8, port_model)


def test_planner_exception_is_counted_not_hidden(monkeypatch, port_model):
    """A planner that raises must not pass as "slow but correct": the run
    falls back, and says so under the exception's name."""

    def boom(*_args):
        raise RuntimeError("planner bug")

    monkeypatch.setitem(superstep_mod._STEP_TABLES, "allgather", boom)
    _assert_paths_agree(
        _program("allgather", 2, None), 8, port_model,
        refused="planner exception: RuntimeError",
    )
