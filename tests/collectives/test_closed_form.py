"""The collective closed form against the event path, case by case.

Conformance runs whole algorithms through ``superstep=True`` and
``superstep=False`` and compares digests — but the resolver answers any
exception while planning with the event-path fallback, so a broken
planner still passes there.  This matrix closes that hole: every
(kind, port model, subcube dimension, root) runs on inputs chosen to
break a recurrence that is only almost right, and a spy asserts that
``try_advance_collective`` *succeeded* every time it was asked.

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

import repro.sim.engine as engine_mod
from repro.collectives import (
    allgather,
    alltoall,
    broadcast,
    reduce,
    reduce_scatter,
)
from repro.mpi import Comm
from repro.sim import MachineConfig, PortModel, run_spmd

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


class _Spy:
    """Records what ``try_advance_collective`` answered the engine."""

    def __init__(self, monkeypatch):
        self.answers: list[bool] = []
        real = engine_mod.try_advance_collective

        def spied(engine, parked):
            out = real(engine, parked)
            self.answers.append(out is not None)
            return out

        monkeypatch.setattr(engine_mod, "try_advance_collective", spied)


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


def _assert_paths_agree(monkeypatch, prog, p, port, **run_kw):
    cfg = dict(port_model=port, **PARAMS)
    spy = _Spy(monkeypatch)
    fast = run_spmd(MachineConfig.create(p, **cfg), prog, superstep=True, **run_kw)
    assert spy.answers and all(spy.answers), (
        f"closed form refused or was never asked: {spy.answers}"
    )
    asked = len(spy.answers)
    slow = run_spmd(MachineConfig.create(p, **cfg), prog, superstep=False, **run_kw)
    assert len(spy.answers) == asked  # the reference run never parks
    assert fast.total_time == slow.total_time
    assert fast.stats == slow.stats
    assert fast.network == slow.network
    assert fast.trace_digest() == slow.trace_digest()
    for rank in range(p):
        assert _same(fast.results[rank], slow.results[rank]), rank
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
def test_closed_form_equals_event_path(monkeypatch, port_model, kind, d, root):
    fast = _assert_paths_agree(
        monkeypatch, _program(kind, d, root), 1 << (d + 1), port_model
    )
    # The collective did communicate (the matrix is not comparing no-ops).
    assert all(fast.stats[r].messages_sent + fast.stats[r].messages_received
               for r in range(1 << (d + 1)))


@pytest.mark.parametrize("d", [2, 3])
def test_timing_only_zero_reduce(monkeypatch, port_model, d):
    """Timing-only runs reduce all-zero views; the multi-port closed form
    sizes those chunks from shapes alone and must still agree."""

    def prog(ctx):
        comm = Comm(ctx, range(1 << d))
        yield from ctx.compute(7.0 * (ctx.rank % 3))
        view = np.broadcast_to(0.0, (3, 5 + d))
        value = yield from reduce(comm, view, root=1)
        return value, ctx.now

    _assert_paths_agree(monkeypatch, prog, 1 << d, port_model, timing_only=True)
