"""``ctx.local_matmuls``: a compute phase's products in one call.

The oracle is the per-pair loop the phase call replaced: one
``local_matmul`` per product, each yielding an ``ElapseOp`` (of any
duration) and then offering its block to a pending ``NodeCorruption``.
The phase call must be bit-identical to it: the product bytes, every
rank's ``flops`` and ``compute_time``, the trace and the engine's event
count.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import FaultPlan, MachineConfig, run_spmd
from repro.sim.engine import Engine
from repro.sim.ops import ElapseOp
from repro.sim.process import ProcessContext

P = 4
#: inner sizes of a phase's three products: (3, k) @ (k, 6) each
INNER = (2, 4, 5)


def _loop_matmul(ctx, A, B, C=None):
    """One product as the per-pair loop ran it: the product, an
    ``ElapseOp`` whatever its duration, then the corruption check."""
    m, k = A.shape
    n = B.shape[1]
    flops = 2.0 * m * k * n
    if ctx.engine.timing_only:
        yield ElapseOp(ctx.config.params.flops_time(flops), flops)
        return C if C is not None else np.broadcast_to(0.0, (m, n))
    if C is None:
        out = A @ B
    else:
        C += A @ B
        out = C
    yield ElapseOp(ctx.config.params.flops_time(flops), flops)
    ctx.engine.apply_node_corruption(ctx.rank, out)
    return out


def _per_pair(ctx, As, Bs, C):
    for A, B in zip(As, Bs):
        C = yield from _loop_matmul(ctx, A, B, C)
    return C


def _phase(ctx, As, Bs, C):
    return (yield from ctx.local_matmuls(As, Bs, C))


def _program(matmuls, start):
    """Exchange with the neighbour across dimension 0, run the compute
    phase, send the product back across: the phase sits between events."""

    def program(ctx):
        rng = np.random.default_rng(ctx.rank)
        As = [rng.standard_normal((3, k)) for k in INNER]
        Bs = [rng.standard_normal((k, 6)) for k in INNER]
        peer = ctx.rank ^ 1
        yield from ctx.exchange(peer, As[0], tag=1)
        C = None if start is None else np.full((3, 6), start)
        C = yield from matmuls(ctx, As, Bs, C)
        yield from ctx.exchange(peer, C, tag=2)
        return np.asarray(C).tobytes()

    return program


def _run(matmuls, t_c, timing_only, corruptions, start):
    plan = None
    if corruptions:
        plan = FaultPlan(seed=4)
        for at in corruptions:
            plan = plan.with_node_corruption(1, at=at)
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, t_c=t_c, faults=plan)
    return run_spmd(
        cfg, _program(matmuls, start), trace=True, timing_only=timing_only
    )


# The first exchange ends at 10 + 1·6 = 16; at t_c = 0.5 the products end
# 36, 108 and 198 later: a corruption at 60 lands on the second product.
# At t_c = 0 all three end at 16: of two corruptions due at 0, the first
# fires on the first product and the second on the second.
@pytest.mark.parametrize("corruptions", [(), (60.0,), (0.0, 0.0)],
                         ids=["clean", "at60", "two_at0"])
@pytest.mark.parametrize("timing_only", [False, True], ids=["values", "timing_only"])
@pytest.mark.parametrize("t_c", [0.0, 0.5])
@pytest.mark.parametrize("start", [None, 0.25], ids=["fresh", "accumulate"])
def test_phase_call_is_the_per_pair_loop(t_c, timing_only, corruptions, start):
    loop = _run(_per_pair, t_c, timing_only, corruptions, start)
    phase = _run(_phase, t_c, timing_only, corruptions, start)
    assert phase.results == loop.results
    for rank in range(P):
        assert phase.stats[rank].flops == loop.stats[rank].flops
        assert phase.stats[rank].compute_time == loop.stats[rank].compute_time
    assert phase.trace_lines() == loop.trace_lines()
    assert phase.events_processed == loop.events_processed
    assert phase.total_time == loop.total_time
    assert phase.network.corruption_events == loop.network.corruption_events
    # (timing-only runs skip corruption; at t_c = 0 the products end at
    # 16, before the corruption due at 60)
    quiet = timing_only or (corruptions == (60.0,) and t_c == 0.0)
    assert loop.network.corruption_events == (0 if quiet else len(corruptions))
    computes = sum(r.kind == "compute" for r in loop.trace)
    assert computes == (3 * P if t_c else 0)


def test_second_product_corruption_shows_in_the_block():
    """The ``at60`` case perturbs the second of three products only: the
    block differs from the clean run's, on rank 1 alone."""
    clean = _run(_phase, 0.5, False, (), None)
    hit = _run(_phase, 0.5, False, (60.0,), None)
    assert hit.network.corruption_events == 1
    assert hit.results[1] != clean.results[1]
    assert all(hit.results[r] == clean.results[r] for r in (0, 2, 3))
    (mark,) = [r for r in hit.trace if r.kind == "corrupt"]
    assert mark.start == 16.0 + 36.0 + 72.0


def _context(t_c, timing_only=False):
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, t_c=t_c)
    return ProcessContext(0, Engine(cfg, timing_only=timing_only))


@pytest.mark.parametrize("timing_only", [False, True])
def test_zero_time_work_yields_nothing(timing_only):
    """At t_c = 0 a product, a phase, ``compute`` and ``elapse(0)`` are
    booked in place: the first ``next()`` finishes the generator."""
    ctx = _context(0.0, timing_only)
    A, B = np.ones((2, 3)), np.ones((3, 4))
    for gen in (
        ctx.local_matmul(A, B),
        ctx.local_matmuls([A, A], [B, B]),
        ctx.compute(7.0),
        ctx.elapse(0.0),
    ):
        with pytest.raises(StopIteration):
            next(gen)
    assert ctx.stats.flops == 3 * 48.0 + 7.0
    assert ctx.stats.compute_time == 0.0


@pytest.mark.parametrize("t_c", [0.0, 0.5])
@pytest.mark.parametrize(
    "work, field",
    [(lambda ctx: ctx.elapse(float("nan")), "elapse duration"),
     (lambda ctx: ctx.compute(float("nan")), "flop count")],
    ids=["elapse", "compute"],
)
def test_nan_work_is_refused(work, field, t_c):
    ctx = _context(t_c)
    with pytest.raises(SimulationError, match=field):
        next(work(ctx))
    assert (ctx.stats.flops, ctx.stats.compute_time) == (0.0, 0.0)


def test_timed_work_still_yields_one_elapse_per_product():
    ctx = _context(0.5)
    A, B = np.ones((2, 3)), np.ones((3, 4))
    gen = ctx.local_matmuls([A, A], [B, B])
    assert [next(gen), gen.send(None)] == [ElapseOp(24.0, 48.0)] * 2
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value.tolist() == [[6.0] * 4] * 2
    assert next(ctx.compute(4.0)) == ElapseOp(2.0, 4.0)


def test_timing_only_hands_out_one_read_only_zero_view_per_shape():
    ctx = _context(0.0, timing_only=True)
    A, B = np.ones((2, 3)), np.ones((3, 4))
    views = []
    for _ in range(2):
        with pytest.raises(StopIteration) as stop:
            next(ctx.local_matmuls([A], [B]))
        views.append(stop.value.value)
    assert views[0] is views[1]
    assert views[0].shape == (2, 4) and not views[0].flags.writeable
    assert not views[0].any()


@pytest.mark.parametrize(
    "As, Bs, C, match",
    [
        ([np.ones((2, 3))], [], None, "as many A blocks as B blocks"),
        ([np.ones((2, 3)), np.ones((2, 2))], [np.ones((3, 4))] * 2, None,
         r"local_matmul shape mismatch: \(2, 2\) @ \(3, 4\)"),
        ([np.ones((2, 3))], [np.ones((3, 4))], np.ones((4, 2)),
         r"accumulator shape \(4, 2\) != product shape \(2, 4\)"),
    ],
    ids=["lengths", "shapes", "accumulator"],
)
def test_malformed_phase_is_refused(As, Bs, C, match):
    with pytest.raises(SimulationError, match=match):
        list(_context(0.0).local_matmuls(As, Bs, C))
