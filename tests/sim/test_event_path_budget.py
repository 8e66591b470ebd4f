"""The event path's fixed host cost per simulated message, as a count.

Wall-clock on a shared host swings far more than any per-message saving,
but the number of Python + C function calls ``cProfile`` sees for a fixed
run is exact: it repeats from run to run, so a ceiling a few percent
above today's value turns "a message got more expensive" into a
deterministic tier-1 failure.  Four runs are forced onto
the per-message event path the way real runs are — one by ``trace=True``
with cut-through routing, three by a protocol layer of ``repro.mpi``: a
lossy plan under :class:`~repro.mpi.ReliableContext`, a forced
:class:`~repro.mpi.IntegrityContext` (a checksum at send and at delivery),
and a plan with every kind of window, where the per-window fault table is
actually consulted.  Four more are kept from parking (traced cut-through
Cannon, a scenario, a watchdog, HJE traced) and pin that such a run's
rounds stay out of the generator loops.  The others pin how few of their
messages reach the event path at all: traced store-and-forward Cannon,
whose kernel the hop table plans, and runs with every knob at its
default.

The ceilings are calls ÷ ``total_messages()`` of the whole
``Algorithm.run`` (distribute + simulate + collect) on CPython 3.11,
plus ~5 %.  Interpreters that inline comprehensions count fewer calls;
none counts more.  Raise a ceiling only for a change that is meant to do
more work per message, and say so.
"""

import cProfile
import gc

import numpy as np
import pytest

from repro import MachineConfig, get_algorithm
import functools

from repro.mpi import IntegrityContext, ReliableContext
from repro.sim import FaultPlan, PortModel
from repro.sim.machine import RoutingMode
from repro.sim.scenario import random_heterogeneous

N = P = 16
_rng = np.random.default_rng(0)
A = _rng.standard_normal((N, N))
B = _rng.standard_normal((N, N))


def _traced(superstep=True, **machine):
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, **machine)
    return get_algorithm("cannon").run(
        A, B, cfg, trace=True, verify=True, superstep=superstep
    )


_traced_cut_through = functools.partial(_traced, routing=RoutingMode.CUT_THROUGH)


def _lossy_reliable():
    plan = FaultPlan(seed=3).with_drop_rate(0.05)
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, faults=plan)
    return get_algorithm("cannon").run(
        A, B, cfg, verify=True, context_factory=ReliableContext
    )


def _forced_integrity():
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0)
    return get_algorithm("cannon").run(
        A, B, cfg, verify=True,
        context_factory=functools.partial(IntegrityContext, force_protocol=True),
    )


def _windowed_reliable():
    """Every kind of window the fault table tabulates, open while the run
    is busy: a link fault, two overlapping degradations on one link, a
    drop window and a late fail-stop of a rank that has finished."""
    plan = (
        FaultPlan(seed=3)
        .with_link_fault(5, 1, start=10.0, end=400.0)
        .with_degraded_link(6, 14, 2.0, start=0.0, end=300.0)
        .with_degraded_link(14, 6, 1.5, start=100.0, end=600.0)
        .with_link_drop(10, 2, 0.5, start=50.0, end=500.0)
        .with_node_failure(12, at=450.0)
    )
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, faults=plan)
    return get_algorithm("cannon").run(
        A, B, cfg, verify=True, context_factory=ReliableContext
    )


def _calls(fn):
    # A cyclic collection inside the profiled run would add the calls of
    # every registered ``gc.callbacks`` hook (hypothesis installs one), and
    # when it fires depends on what earlier tests left behind.
    gc.collect()
    gc.disable()
    prof = cProfile.Profile()
    prof.enable()
    try:
        run = fn()
    finally:
        prof.disable()
        gc.enable()
    stats = prof.getstats()
    return sum(entry.callcount for entry in stats), run, stats


@pytest.mark.parametrize(
    "fn, messages, ceiling",
    [
        # 46.25 calls/message, the engine running the alignment and the
        # shift rounds itself, the task clock, hop and handle upkeep done
        # in place (52.59 before that; through ctx.shift_phase's loop,
        # store-and-forward: 82.07; before the loop: 89.69)
        (_traced_cut_through, 128, 48.6),
        # 73.42: no stale ack timer is an event, no ack builds a Handle of
        # its own (92.99 before; 136.24 before the fault table); 8
        # retransmissions
        (_lossy_reliable, 260, 77.1),
        # 79.18 (99.28 before; 166.24 before one pass per payload): the
        # envelope is copied once and checksummed twice per message, each
        # in one pass
        (_forced_integrity, 248, 83.2),
        # 79.37 (101.01 before; 148.35 before the fault table); 2 drops,
        # 4 reroutes, and from t = 450 every window has a dead node to
        # check hops against
        (_windowed_reliable, 251, 83.4),
    ],
    ids=[
        "cannon_traced_cut_through", "cannon_reliable_5pct_drops",
        "cannon_forced_integrity", "cannon_reliable_windowed_plan",
    ],
)
def test_calls_per_message_is_exact_and_bounded(fn, messages, ceiling):
    fn()  # fill lru_caches and lazy imports: they are paid once per process
    first, run, _ = _calls(fn)
    second, _, _ = _calls(fn)
    assert first == second, "the call count of a fixed run must repeat exactly"
    assert run.result.total_messages() == messages
    assert run.result.events_processed > messages  # every hop was an event
    per_message = first / messages
    assert per_message <= ceiling, (
        f"{per_message:.2f} calls per simulated message, ceiling {ceiling}"
    )


def _small(key, superstep, *, run_kw=None, **machine):
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, **machine)
    return get_algorithm(key).run(
        A, B, cfg, verify=True, superstep=superstep, **(run_kw or {})
    )


@pytest.mark.parametrize(
    "run, messages, events, isends, ceiling",
    [
        # Calls per message with the rounds engine-run (and, in brackets,
        # through the generator loops: the parent's cost of the same run,
        # and still superstep=False's); the ceiling is the former + 5 %.
        # Traced cut-through Cannon (no hop table plans cut-through hops):
        # its alignment is engine-run too, 46.25 (70.61; was 52.59 and
        # 81.69 before the task clock, hop and handle upkeep were done in
        # place; 58.23 (87.33) before that)
        (
            functools.partial(
                _small, "cannon", run_kw={"trace": True},
                routing=RoutingMode.CUT_THROUGH,
            ),
            128, 335, 0, 48.6,
        ),
        # 50.49 (74.85; was 56.94 (86.04); 77.93 (103.91; 82.53) before):
        # every hop is costed from the epoch's link table
        (
            functools.partial(
                _small, "cannon", scenario=random_heterogeneous(P, 2.0, seed=0)
            ),
            128, 363, 0, 53.1,
        ),
        # 43.23 (67.59; was 49.58 (78.68); 55.22 (81.20; 59.82) before): no
        # trace records
        (
            functools.partial(_small, "cannon", run_kw={"max_virtual_time": 1e9}),
            128, 335, 0, 45.4,
        ),
        # 51.99 (72.99; was 60.79 (83.51); 63.15 (85.87) before): the
        # 2 log sqrt(p) exchanges of a multiply step are one op, issued by
        # Engine._step; the declared grouped phase is answered FALLBACK, and
        # shift_loop runs it (62.97 and 79.90 while the program ran its own
        # loop, one frame shallower)
        (
            functools.partial(
                _small, "hje", run_kw={"trace": True},
                port_model=PortModel.MULTI_PORT,
            ),
            224, 536, 2 * 32, 54.6,
        ),
    ],
    ids=[
        "cannon_traced_cut_through", "cannon_scenario", "cannon_watchdog",
        "hje_multi_traced",
    ],
)
def test_a_run_that_cannot_park_keeps_its_rounds_out_of_the_generator(
    run, messages, events, isends, ceiling
):
    """n = p = 16, ``t_s=10, t_w=1``: a traced cut-through, scenario-backed
    or watchdogged run pays one event per hop, as many as ``superstep=False``
    pays — and no ``ctx.isend`` frame inside a phase but HJE's 32
    alignment sends, two profiler entries each (a grouped phase has no
    engine-run round: its loop runs it; Cannon's alignment is part of its
    engine-run phase).  The generator loops are the
    oracle, not what got faster: the same run through them costs at least
    15 calls per message more."""
    fast_fn = functools.partial(run, True)
    slow_fn = functools.partial(run, False)
    fast_fn(), slow_fn()
    first, fast, stats = _calls(fast_fn)
    second, _, _ = _calls(fast_fn)
    loop, slow, _ = _calls(slow_fn)
    assert first == second, "the call count of a fixed run must repeat exactly"
    assert fast.result.total_messages() == messages
    assert fast.result.events_processed == slow.result.events_processed == events
    assert fast.result.trace_digest() == slow.result.trace_digest()
    isend_frames = sum(
        entry.callcount for entry in stats
        if getattr(entry.code, "co_name", None) == "isend"
    )
    assert isend_frames == isends
    per_message = first / messages
    assert per_message <= ceiling, (
        f"{per_message:.2f} calls per simulated message, ceiling {ceiling}"
    )
    assert loop / messages >= per_message + 15


def test_traced_cannon_runs_its_kernel_in_the_hop_table():
    """n = p = 16, ``t_s=10, t_w=1``, traced: every rank parks before its
    alignment and the hop table plans the kernel, its hop and compute
    records emitted where the event path appends them; from the first rank
    to finish, the table's last events run on the event queue.  35 events,
    no message issued as one, the same trace as ``superstep=False``'s.
    2 904 calls plus ~5 % (7 324 with the alignment and rounds engine-run,
    335 events; 11 049 through the generator loops)."""
    _traced()
    first, run, stats = _calls(_traced)
    second, _, _ = _calls(_traced)
    assert first == second, "the call count of a fixed run must repeat exactly"
    result = run.result
    assert result.total_messages() == 128
    assert result.events_processed == 35
    assert result.closed_form_refusals == {}
    assert result.shift_rounds_closed_form == 16 * 4
    issued = sum(
        entry.callcount for entry in stats
        if getattr(entry.code, "co_name", None) == "_issue_send"
    )
    assert issued == 0
    assert result.trace_digest() == _traced(superstep=False).result.trace_digest()
    assert first <= 3_050, f"{first} calls, ceiling 3 050"


def _default_knobs():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    cfg = MachineConfig.create(256, t_s=150.0, t_w=3.0)
    return get_algorithm("cannon").run(a, b, cfg, verify=True)


def test_default_knob_cannon_leaves_the_event_path_at_the_first_quiet_point():
    """Cannon, n = 64 on p = 256, nothing forced: none of the 8192 messages
    is issued as an event.  The hop table plans the 512 of the contended
    skew and the round sends it overlaps, the closed form the rest from
    there.  The ceiling is 43 084 calls plus ~5 % (42 338 since the hop
    table also plans lifts; 100 138 while the skew
    and the 470 messages of the shift rounds that hazard releases ran
    before the network first fell quiet were events; 109 219 while sequence
    numbers were ``itertools.count`` objects; 143 524 before a
    first-touched link or route cost a handful of calls; before the
    resident op: 250 546 calls, 2 048 messages issued as events)."""
    _default_knobs()
    first, run, stats = _calls(_default_knobs)
    second, _, _ = _calls(_default_knobs)
    assert first == second, "the call count of a fixed run must repeat exactly"
    result = run.result
    assert result.total_messages() == 8192
    issued = sum(
        entry.callcount for entry in stats
        if getattr(entry.code, "co_name", None) == "_issue_send"
    )
    assert issued == 0
    assert result.shift_rounds_event == 0
    assert result.shift_rounds_closed_form == 256 * 16
    assert result.events_processed == 2 * 256
    assert first <= 45_200, f"{first} calls, ceiling 45 200"


def _default_run(key, p, **machine):
    def run():
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        cfg = MachineConfig.create(p, t_s=150.0, t_w=3.0, **machine)
        return get_algorithm(key).run(a, b, cfg, verify=True)

    return run


@pytest.mark.parametrize(
    "run, messages, issued_as_events, ceiling",
    [
        # One-port fused allgather pair, planned through one port column:
        # 121 389 calls (before the step tables: 439 733, all 2 048
        # messages as events).
        (_default_run("simple", 256), 2048, 0, 127_500),
        # Fox: the 16 broadcast-multiply-roll stages are one declared
        # broadcast shift phase, each rank parked once and every stage folded
        # in closed form: 42 822 calls (parent: 326 483, 16 row broadcasts
        # and 15 B-roll neighbour exchanges each parked and resolved apart;
        # before those: 554 248, 3 840 of 7 680 messages as events).
        (_default_run("fox", 256), 7680, 0, 45_000),
        # Multi-port HJE: the XOR alignment and every multiply step are one
        # declared grouped shift phase, folded in closed form: 6 971 calls
        # (parent: 65 122, the alignment's 192 messages evented and each
        # step a neighbour-exchange round; before those: 205 227, all 2 880).
        (_default_run("hje", 64, port_model=PortModel.MULTI_PORT), 2880, 0, 7_720),
        # One-port 3DD: the multi-hop lift is declared with the broadcast
        # pair it feeds, and the hop table plans both: 96 344 calls (parent:
        # 212 635, the pair refused inline and 960 messages, the lift's
        # and the pair's, issued as events).
        (_default_run("3dd", 512), 1408, 0, 101_200),
        # Multi-port 3D All: the alltoall, the fused allgather pair and the
        # reduce-scatter fold and deliver their values as stacked arrays:
        # 196 786 calls (parent: 468 260, replaying every phase's values
        # rank by rank in dicts).
        (
            _default_run("3d_all", 512, port_model=PortModel.MULTI_PORT),
            18432, 0, 206_600,
        ),
        # Multi-port DNS: the lift (replayed by the hop table), the broadcast
        # pair (folded from the frontier the lift leaves) and the reduce are
        # closed forms: 121 249 calls (parent: 127 314, phase 1's 128
        # multi-hop lifts issued as events).
        (
            _default_run("dns", 512, port_model=PortModel.MULTI_PORT),
            4160, 0, 127_400,
        ),
    ],
    ids=[
        "simple_p256", "fox_p256", "hje_p64_multi", "3dd_p512",
        "3d_all_p512_multi", "dns_p512_multi",
    ],
)
def test_default_knob_single_hop_phases_leave_the_event_path(
    run, messages, issued_as_events, ceiling
):
    """n = 64, ``t_s=150, t_w=3``, nothing forced: how many messages are
    still issued as events, and the run's call total with a ceiling ~5 %
    above it (before-numbers: the parent commit under this harness)."""
    run()
    first, result, stats = _calls(run)
    second, _, _ = _calls(run)
    assert first == second, "the call count of a fixed run must repeat exactly"
    assert result.result.total_messages() == messages
    issued = sum(
        entry.callcount for entry in stats
        if getattr(entry.code, "co_name", None) == "_issue_send"
    )
    assert issued == issued_as_events
    assert first <= ceiling, f"{first} calls, ceiling {ceiling}"


def test_default_knob_scenario_run_pays_for_its_routes_not_for_searching():
    """One-port 3DD, n = 64 on p = 512 with a fifth of the links slowed:
    every message is an event and is routed by cost.  1 400 of the 1 408
    are routed for the first time (1 368 to a neighbour), and 158 routes
    leave the native one; a search whose direct link is not worth a detour
    expands its source and stops, so together they settle 3 298 nodes
    where the unbounded search settled 21 956.  Cost-aware routes keep
    every collective phase on the event path (2 048 declarations, 8 123
    events).  280 644 calls plus ~5 %: the one epoch's link costs are read
    without a lookup per hop and per message, and a relaxed edge's cost and
    Hamming bound are computed inline (was 369 025; before the bounded
    search: 1 004 835 under this harness — 994 268 as the
    ``3dd_p512_hetero`` unit of ``benchmarks/perf`` — of which ~650 000
    were the searches, one ``factors`` call per relaxed edge)."""
    run = _default_run(
        "3dd", 512, scenario=random_heterogeneous(512, 2.0, seed=0)
    )
    run()
    first, result, _ = _calls(run)
    second, _, _ = _calls(run)
    assert first == second, "the call count of a fixed run must repeat exactly"
    res = result.result
    assert res.total_messages() == 1408
    assert res.route_searches == 1400
    assert res.adaptive_detours == 158
    assert res.route_nodes_settled <= 3_500
    assert res.closed_form_refusals == {"heterogeneous scenario": 2048}
    assert res.events_processed == 8123
    assert first <= 294_700, f"{first} calls, ceiling 294 700"


def test_first_touch_of_a_link_or_route_costs_a_handful_of_calls():
    """At large p most links and routes are touched once per run, so the
    cold path of ``reserve_hop`` and ``RouteCache.healthy`` is paid per
    message: 6 calls more than a warm one for a link, 2 for a neighbour's
    route and 11 for a ten-hop one."""
    from repro.sim.ports import ContentionTracker
    from repro.topology.routing import RouteCache

    cfg = MachineConfig.create(1024, t_s=150.0, t_w=3.0)
    tracker = ContentionTracker(cfg)
    routes = RouteCache(cfg.cube)

    def cold_minus_warm(fn):
        return _calls(fn)[0] - _calls(fn)[0]

    assert cold_minus_warm(lambda: tracker.reserve_hop(5, 7, 0.0, 1.0)) <= 6
    assert cold_minus_warm(lambda: routes.healthy(5, 7)) <= 2
    assert cold_minus_warm(lambda: routes.healthy(3, 1020)) <= 11
