"""Tests for the fault-injection subsystem: plan semantics, engine
behaviour under faults, and the determinism guarantee."""

import math

import numpy as np
import pytest

from repro.errors import (
    AlgorithmError,
    CommTimeoutError,
    LinkFailedError,
    SimulationError,
    UnreachableError,
)
from repro.sim import FaultPlan, MachineConfig, run_spmd
from repro.sim.faults import FaultState

CFG = MachineConfig.create(4, t_s=10.0, t_w=1.0)


def faulty(p: int, plan: FaultPlan, **kw) -> MachineConfig:
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, faults=plan, **kw)


def idle(ctx):
    if False:
        yield
    return None


class TestFaultPlanValidation:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not FaultPlan().with_drop_rate(0.1).is_empty

    def test_bad_drop_rate(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_drop_rate(1.5)
        with pytest.raises(SimulationError):
            FaultPlan().with_link_drop(0, 1, -0.1)

    def test_bad_window(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_link_fault(0, 1, start=5.0, end=5.0)
        with pytest.raises(SimulationError):
            FaultPlan().with_link_fault(0, 1, start=-1.0)

    def test_degradation_must_be_slowdown(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_degraded_link(0, 1, 0.5)

    def test_duplicate_node_failure(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_node_failure(2).with_node_failure(2, at=5.0)

    def test_plans_are_immutable_and_hashable(self):
        base = FaultPlan(seed=3)
        derived = base.with_link_fault(0, 1)
        assert base.is_empty and not derived.is_empty
        assert hash(derived) == hash(FaultPlan(seed=3).with_link_fault(0, 1))


class TestFaultPlanQueries:
    def test_link_fault_window_and_direction(self):
        plan = FaultPlan().with_link_fault(0, 1, start=10.0, end=20.0)
        assert plan.link_dead(0, 1, 10.0)
        assert plan.link_dead(1, 0, 15.0)  # undirected by default
        assert not plan.link_dead(0, 1, 20.0)  # half-open window
        assert not plan.link_dead(0, 1, 5.0)
        directed = FaultPlan().with_link_fault(0, 1, directed=True)
        assert directed.link_dead(0, 1, 0.0)
        assert not directed.link_dead(1, 0, 0.0)

    def test_node_failure_kills_incident_links(self):
        plan = FaultPlan().with_node_failure(2, at=50.0)
        assert not plan.link_dead(0, 2, 49.0)
        assert plan.link_dead(0, 2, 50.0)
        assert plan.link_dead(2, 0, 60.0)
        assert plan.node_failed(2, 50.0) and not plan.node_failed(2, 49.0)

    def test_drop_probability_composes(self):
        plan = FaultPlan().with_drop_rate(0.5).with_link_drop(0, 1, 0.5)
        assert plan.drop_probability(0, 1, 0.0) == pytest.approx(0.75)
        assert plan.drop_probability(2, 3, 0.0) == pytest.approx(0.5)

    def test_degradation_composes(self):
        plan = (FaultPlan()
                .with_degraded_link(0, 1, 2.0)
                .with_degraded_link(0, 1, 3.0, start=0.0, end=10.0))
        assert plan.degradation(0, 1, 5.0) == pytest.approx(6.0)
        assert plan.degradation(0, 1, 10.0) == pytest.approx(2.0)
        assert plan.degradation(2, 3, 0.0) == 1.0

    def test_roll_drop_is_seeded(self):
        plan = FaultPlan(seed=9).with_drop_rate(0.5)
        rolls = [FaultState(plan).roll_drop(0, 1, 0.0) for _ in range(2)]
        assert rolls[0] == rolls[1]
        # certain outcomes never consume the stream
        sure = FaultState(FaultPlan().with_drop_rate(1.0))
        assert sure.roll_drop(0, 1, 0.0) is True
        none = FaultState(FaultPlan())
        assert none.roll_drop(0, 1, 0.0) is False


class TestDrops:
    def test_dropped_message_times_out_receiver(self):
        """A 100%-drop link loses the message; the sender completes
        normally and the receiver's timed recv raises."""
        plan = FaultPlan().with_drop_rate(1.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(4))
                return "sent"
            if ctx.rank == 1:
                try:
                    yield from ctx.recv(0, timeout=200.0)
                except CommTimeoutError:
                    return "timed out"
                return "delivered"
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == "sent"
        assert res.results[1] == "timed out"
        assert res.network.messages_dropped == 1
        assert res.stats[1].messages_received == 0

    def test_drop_window_expires(self):
        plan = FaultPlan().with_link_drop(0, 1, 1.0, start=0.0, end=100.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.elapse(150.0)
                yield from ctx.send(1, np.ones(4))
            elif ctx.rank == 1:
                data = yield from ctx.recv(0, timeout=1000.0)
                return data.size
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[1] == 4
        assert res.network.messages_dropped == 0


class TestDegradation:
    def test_degraded_hop_costs_more(self):
        """t_s + factor*t_w*m on the degraded link, exact."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(5))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
                return ctx.now
            return None

        healthy = run_spmd(CFG, prog)
        assert healthy.results[1] == pytest.approx(15.0)
        plan = FaultPlan().with_degraded_link(0, 1, 3.0)
        degraded = run_spmd(faulty(4, plan), prog)
        assert degraded.results[1] == pytest.approx(10.0 + 3.0 * 5.0)

    def test_degradation_marks_trace(self):
        plan = FaultPlan().with_degraded_link(0, 1, 2.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(2))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        res = run_spmd(faulty(4, plan), prog, trace=True)
        hops = [r for r in res.trace if r.kind == "hop"]
        assert any(r.info.get("degraded") == 2.0 for r in hops)


class TestReroute:
    def test_detour_around_dead_link(self):
        """With 0<->1 dead on a 4-cube the message detours 0->2->3->1."""
        plan = FaultPlan().with_link_fault(0, 1)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(5))
            elif ctx.rank == 1:
                data = yield from ctx.recv(0)
                return (ctx.now, data.sum())
            return None

        res = run_spmd(faulty(4, plan), prog)
        arrival, total = res.results[1]
        assert total == 5.0
        assert arrival == pytest.approx(3 * 15.0)  # three hops, not one
        assert res.network.hops_rerouted == 1

    def test_healthy_routes_unperturbed(self):
        """A fault plan elsewhere never changes a fully-alive route."""
        plan = FaultPlan().with_link_fault(0, 1)

        def prog(ctx):
            if ctx.rank == 2:
                yield from ctx.send(3, np.ones(5))
            elif ctx.rank == 3:
                yield from ctx.recv(2)
                return ctx.now
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[3] == pytest.approx(15.0)
        assert res.network.hops_rerouted == 0

    def test_strict_mode_raises_link_failed(self):
        plan = FaultPlan().with_link_fault(0, 1).without_reroute()

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(2))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        with pytest.raises(LinkFailedError) as exc:
            run_spmd(faulty(4, plan), prog)
        assert (exc.value.u, exc.value.v) == (0, 1)

    def test_unreachable_when_disconnected(self):
        """Isolating node 1 (both its links dead) is a routing error."""
        plan = FaultPlan().with_link_fault(0, 1).with_link_fault(1, 3)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(2))
            return None

        with pytest.raises(UnreachableError) as exc:
            run_spmd(faulty(4, plan), prog)
        assert (exc.value.src, exc.value.dst) == (0, 1)

    def test_windowed_fault_heals(self):
        plan = FaultPlan().with_link_fault(0, 1, start=0.0, end=100.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.elapse(200.0)
                yield from ctx.send(1, np.ones(5))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[1] == pytest.approx(215.0)  # direct again
        assert res.network.hops_rerouted == 0

    @pytest.mark.xfail(
        strict=True, raises=AlgorithmError,
        reason="ROADMAP item 1, wrong product: result mismatch (max abs error "
        "7.87333).  Message 484 (26 -> 27, tag 1, issued at 290) and message "
        "566 (same source, destination and tag, issued at 349, after the heal) "
        "take routes from two route epochs, 26-30-31-27 and 26-10-11-27; no "
        "mid-flight splice is involved.  566 arrives first (406.2 against "
        "409), so the older receive matches it (MPI's non-overtaking rule, "
        "which nothing asserts).  The neighbouring fault (16, 18) is a golden "
        "trace and passes.",
    )
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_reroute_under_a_scenario_keeps_the_product(self, trace):
        """Cannon, n = 16 on p = 64, a fifth of the links slowed and one
        link down from t = 10 to 310: rerouting may cost time, never the
        answer.  The fix flips this test."""
        from repro import get_algorithm
        from repro.sim.scenario import random_heterogeneous

        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        cfg = MachineConfig.create(
            64, t_s=7, t_w=3, t_c=0.5,
            scenario=random_heterogeneous(64, 2.0, seed=1),
            faults=FaultPlan(seed=5).with_link_fault(10, 26, start=10.0, end=310.0),
        )
        get_algorithm("cannon").run(A, B, cfg, verify=True, trace=trace)


class TestNodeFailure:
    def test_failed_rank_reported_and_excluded(self):
        plan = FaultPlan().with_node_failure(3)

        def prog(ctx):
            yield from ctx.elapse(1.0)
            return ctx.rank

        res = run_spmd(faulty(4, plan), prog)
        assert res.failed_ranks == (3,)
        assert 3 not in res.results
        assert res.results[0] == 0 and res.results[2] == 2

    def test_message_to_failed_node_is_lost_not_error(self):
        plan = FaultPlan().with_node_failure(1)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(4))
                return "sent"
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == "sent"
        assert res.network.messages_dropped == 1

    def test_ack_tagged_message_in_flight_when_destination_dies(self):
        """The destination fail-stops while an ack-tagged message is on
        its final hop: the message must be counted lost — the dead node
        must NOT emit an ack (whose routing would raise an uncaught
        UnreachableError from the event loop).  The sender's timeout
        observes the silence instead."""
        plan = FaultPlan(seed=1).with_node_failure(1, at=0.5)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(4), tag=7, ack_tag=99)
                try:
                    yield from ctx.recv(1, 99, timeout=100.0)
                except CommTimeoutError:
                    return "no ack"
                return "impossible"
            yield from ctx.elapse(10_000.0)  # stays busy; dies at t=0.5
            return None

        res = run_spmd(faulty(2, plan), prog)
        assert res.results[0] == "no ack"
        assert res.failed_ranks == (1,)
        assert res.network.messages_dropped == 1

    def test_barrier_excludes_failed_ranks(self):
        """Survivors' barrier must not wait for a corpse."""
        plan = FaultPlan().with_node_failure(2)

        def prog(ctx):
            yield from ctx.barrier()
            return "past"

        res = run_spmd(faulty(4, plan), prog)
        assert all(res.results[r] == "past" for r in (0, 1, 3))

    def test_mid_run_failure(self):
        plan = FaultPlan().with_node_failure(1, at=50.0)

        def prog(ctx):
            if ctx.rank == 1:
                yield from ctx.elapse(30.0)
                yield from ctx.send(0, np.ones(2))  # before the failure
                yield from ctx.elapse(1000.0)       # never finishes
                return "survived"
            if ctx.rank == 0:
                data = yield from ctx.recv(1)
                return data.size
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == 2
        assert res.failed_ranks == (1,)
        assert res.stats[1].finish_time == pytest.approx(50.0)


class TestDeterminism:
    @staticmethod
    def _chatter(ctx):
        """Every rank exchanges with both neighbours twice, tolerating
        losses; exercises drops, reroutes and degradations together."""
        peers = [ctx.rank ^ 1, ctx.rank ^ 2]
        got = 0.0
        for round_ in range(2):
            for peer in peers:
                yield from ctx.send(peer, np.full(8, ctx.rank + 1.0),
                                    tag=round_)
            for peer in peers:
                try:
                    data = yield from ctx.recv(peer, tag=round_, timeout=500.0)
                    got += float(data.sum())
                except CommTimeoutError:
                    pass
        return got

    PLAN = (
        FaultPlan(seed=21)
        .with_drop_rate(0.3)
        .with_link_fault(0, 1, start=0.0, end=200.0)
        .with_degraded_link(2, 3, 2.0)
    )

    def test_bit_identical_runs(self):
        """The acceptance guarantee: same (config, plan, program) ->
        bit-identical RunResult, traces included."""
        cfg = faulty(4, self.PLAN)
        a = run_spmd(cfg, self._chatter, trace=True)
        b = run_spmd(cfg, self._chatter, trace=True)
        assert a.total_time == b.total_time
        assert a.results == b.results
        assert a.stats == b.stats
        assert a.network == b.network
        assert a.trace == b.trace
        assert a.failed_ranks == b.failed_ranks

    def test_bit_identical_without_plan(self):
        a = run_spmd(CFG, self._chatter, trace=True)
        b = run_spmd(CFG, self._chatter, trace=True)
        assert a.total_time == b.total_time
        assert a.trace == b.trace
        assert a.network.messages_dropped == 0

    def test_empty_plan_is_free(self):
        """faults=empty-plan must not change a healthy run's timing."""
        bare = run_spmd(CFG, self._chatter)
        with_empty = run_spmd(faulty(4, FaultPlan(seed=7)), self._chatter)
        assert bare.total_time == with_empty.total_time
        assert bare.results == with_empty.results


class TestConfigIntegration:
    def test_faults_embed_in_machine_config(self):
        plan = FaultPlan(seed=1).with_drop_rate(0.1)
        cfg = MachineConfig.create(8, faults=plan)
        assert cfg.faults == plan

    def test_infinite_window_is_permanent(self):
        plan = FaultPlan().with_link_fault(0, 1)
        assert plan.link_faults[0].end == math.inf
        assert plan.link_dead(0, 1, 1e18)


def _random_plan(seed: int) -> FaultPlan:
    """A seeded plan on the 4-cube built to collide: windows that share
    an edge, stacked degradations and drops on one link, directed and
    undirected records, open-ended windows, several fail-stops."""
    rng = np.random.default_rng(seed)
    times = [0.0, 5.0, 10.0, 12.5, 20.0, 40.0]  # few values: edges coincide

    def window():
        start = float(rng.choice(times))
        end = math.inf if rng.random() < 0.3 else start + float(rng.choice(times[1:]))
        return {"start": start, "end": end, "directed": bool(rng.random() < 0.5)}

    def link():
        u = int(rng.integers(16))
        return u, u ^ (1 << int(rng.integers(4)))

    plan = FaultPlan(seed=seed).with_drop_rate((0.0, 0.05, 1.0)[seed % 3])
    hot = link()  # every kind of record also lands on this one link, twice
    for _ in range(int(rng.integers(1, 4))):
        plan = plan.with_link_fault(*link(), **window())
    for u, v in (hot, hot[::-1], link(), link()):
        plan = plan.with_degraded_link(u, v, float(rng.choice([1.0, 1.7, 3.0])), **window())
        plan = plan.with_link_drop(u, v, float(rng.choice([0.0, 0.1, 0.3, 1.0])), **window())
        plan = plan.with_link_corruption(u, v, float(rng.choice([0.0, 0.5, 1.0])), **window())
    for node in rng.choice(16, size=int(rng.integers(0, 4)), replace=False):
        plan = plan.with_node_failure(int(node), at=float(rng.choice(times)))
    return plan


CHANNELS_4CUBE = [(u, u ^ (1 << d)) for u in range(16) for d in range(4)]


class TestWindowTable:
    """``FaultWindow`` is ``FaultPlan``'s point queries, tabulated: the plan's
    methods are the definition, the table has to agree with them
    everywhere — floats bitwise, corruptions in plan order."""

    @pytest.mark.parametrize("seed", range(54))
    def test_table_equals_plan_at_every_window_and_edge(self, seed):
        plan = _random_plan(seed)
        state = FaultState(plan)
        edges = sorted({
            t for records in (plan.link_faults, plan.drops, plan.degradations,
                              plan.corruptions)
            for rec in records for t in (rec.start, rec.end) if math.isfinite(t)
        } | {nf.time for nf in plan.node_failures})
        assert len(edges) >= 3
        probes = {0.0, edges[-1] + 1.0, 1e18}
        for lo, hi in zip(edges, edges[1:]):
            probes.add((lo + hi) / 2)
        for edge in edges:
            probes.update((edge, math.nextafter(edge, math.inf)))
            if edge > 0.0:
                probes.add(math.nextafter(edge, -math.inf))
        # Out of order on purpose: the last-hit window must be re-checked.
        for t in sorted(probes, key=lambda t: (t * 7919.0) % 13.0):
            win = state.window_at(t)
            assert win is state.window and win.lo <= t < win.hi
            for node in range(16):
                assert (node in win.dead_nodes) == plan.node_failed(node, t)
            for u, v in CHANNELS_4CUBE:
                dead = plan.link_dead(u, v, t)
                assert win.alive(u, v) == (not dead)
                assert win.dead or not dead
                assert win.tw_factor.get((u, v), 1.0) == plan.degradation(u, v, t)
                assert (
                    win.drop_p.get((u, v), win.base_drop_p)
                    == plan.drop_probability(u, v, t)
                )
                assert list(win.corruptions.get((u, v), ())) == [
                    lc for lc in plan.corruptions if lc.covers(u, v, t)
                ]

    def test_windows_are_built_once_and_only_where_asked(self):
        plan = (FaultPlan().with_link_fault(0, 1, start=10.0, end=20.0)
                .with_link_drop(2, 3, 0.5, start=15.0))
        state = FaultState(plan)
        first = state.window_at(12.0)
        assert (first.lo, first.hi) == (10.0, 15.0)
        assert state.window_at(14.0) is first
        assert state.window_at(17.0) is not first
        assert state.window_at(10.0) is first
        assert len(state._windows) == 3  # t = 0 (built with the state), 12, 17

    def test_route_epoch_ignores_edges_that_change_no_route(self):
        plan = (FaultPlan().with_link_fault(0, 1, start=10.0, end=20.0)
                .with_link_drop(2, 3, 0.5, start=15.0)
                .with_degraded_link(4, 5, 2.0, start=12.0, end=18.0))
        state = FaultState(plan)
        assert [state.route_epoch(t) for t in (0, 10, 12, 15, 18, 19.9, 20)] == [
            0, 1, 1, 1, 1, 1, 2
        ]

    def test_rolls_read_the_window_of_their_own_time(self):
        plan = (FaultPlan().with_link_drop(0, 1, 1.0, start=10.0, end=20.0)
                .with_link_corruption(0, 1, 1.0, start=20.0))
        state = FaultState(plan)
        assert [state.roll_drop(0, 1, t) for t in (25.0, 15.0, 5.0, 19.9)] == [
            False, True, False, True
        ]
        assert [len(state.roll_corruptions(1, 0, t)) for t in (25.0, 15.0, 20.0)] == [
            1, 0, 1
        ]
