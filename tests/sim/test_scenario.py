"""Tests for the NetworkScenario subsystem: per-link cost maps, named
profiles, condition-trace replay, engine hop costing, and adaptive
(cost-aware) routing with route caches keyed on the timeline's route
index."""

import math
import pickle

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.errors import SimulationError
from repro.sim import (
    FaultPlan,
    LinkCost,
    MachineConfig,
    NetworkScenario,
    RoutingMode,
    background_traffic,
    congested_dimension,
    hotspot,
    random_heterogeneous,
    run_spmd,
    scenario_from_json,
    uniform,
)
from repro.sim.faults import LinkTimeline
from tests.sim.test_faults import _random_scenario, check_timeline

PARAMS = {"t_s": 7.0, "t_w": 3.0}


def _cfg(p: int, scenario=None, **kw) -> MachineConfig:
    return MachineConfig.create(p, scenario=scenario, **PARAMS, **kw)


def _run_cannon(p: int, scenario=None, **kw):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 8))
    return get_algorithm("cannon").run(
        A, B, _cfg(p, scenario, **kw), verify=True, trace=True
    ).result


def _route_of(p, scenario, src, dst, nwords=4, faults=None, at=0.0):
    """The hop sequence one send takes under ``scenario`` (trace-derived)."""

    def prog(ctx):
        if ctx.rank == src:
            if at:
                yield from ctx.elapse(at)
            yield from ctx.send(dst, list(range(nwords)), nwords=nwords)
        elif ctx.rank == dst:
            yield from ctx.recv(src)
        return None

    res = run_spmd(_cfg(p, scenario, faults=faults), prog, trace=True)
    return [(r.rank, r.info["to"]) for r in res.trace if r.kind == "hop"]


class TestLinkCost:
    def test_covers_undirected_and_window(self):
        lc = LinkCost(0, 1, tw_factor=2.0, start=5.0, end=10.0)
        assert lc.covers(0, 1, 5.0) and lc.covers(1, 0, 9.9)
        assert not lc.covers(0, 1, 10.0)  # end-exclusive
        assert not lc.covers(0, 2, 7.0)

    def test_directed_entry_is_one_way(self):
        lc = LinkCost(0, 1, tw_factor=2.0, directed=True)
        assert lc.covers(0, 1, 0.0) and not lc.covers(1, 0, 0.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            LinkCost(0, 1, tw_factor=0.5)  # speed-ups are not a scenario
        with pytest.raises(SimulationError):
            LinkCost(0, 1, start=5.0, end=5.0)
        with pytest.raises(SimulationError):
            LinkCost(0, 1, start=-1.0)

    @pytest.mark.parametrize("field", ["ts_factor", "tw_factor"])
    def test_nan_factor_is_refused(self, field):
        with pytest.raises(SimulationError, match=field):
            LinkCost(0, 1, **{field: math.nan})


class TestNetworkScenario:
    def test_factors_compose_multiplicatively(self):
        sc = (
            NetworkScenario(name="t")
            .with_link_cost(0, 1, tw_factor=2.0)
            .with_link_cost(0, 1, tw_factor=3.0, ts_factor=5.0)
        )
        assert sc.factors(0, 1, 0.0) == (5.0, 6.0)
        assert sc.factors(1, 0, 0.0) == (5.0, 6.0)
        assert sc.factors(1, 3, 0.0) == (1.0, 1.0)

    def test_route_index_counts_cost_edges(self):
        sc = (
            NetworkScenario(name="t")
            .with_link_cost(0, 1, tw_factor=2.0, start=10.0, end=20.0)
            .with_link_cost(2, 3, tw_factor=2.0, start=15.0)
        )
        tl = LinkTimeline(_cfg(4, sc))
        assert tl.edges == [10.0, 15.0, 20.0]
        assert [tl.at(t).route for t in (0.0, 10.0, 15.0, 20.0)] == [0, 1, 2, 3]

    def test_window_factors_are_its_whole_cost_map(self):
        sc = (
            NetworkScenario(name="t")
            .with_link_cost(0, 1, tw_factor=2.0, start=10.0, end=20.0)
            .with_link_cost(0, 1, ts_factor=3.0, start=15.0, directed=True)
            .with_link_cost(2, 3, tw_factor=1.0)  # identity: never listed
        )
        tl = LinkTimeline(_cfg(4, sc))
        assert tl.at(0.0).factors == {}
        assert tl.at(10.0).factors == {(0, 1): (1.0, 2.0), (1, 0): (1.0, 2.0)}
        assert tl.at(15.0).factors == {(0, 1): (3.0, 2.0), (1, 0): (1.0, 2.0)}
        assert tl.at(20.0).factors == {(0, 1): (3.0, 1.0)}
        assert tl.at(20.0).weights == {(0, 1): 3.0 * 7.0 + 1.0 * 3.0}

    def test_uniform_detection(self):
        assert uniform().is_uniform
        assert NetworkScenario(links=(LinkCost(0, 1),)).is_uniform
        assert not hotspot(8, 0, 2.0).is_uniform
        assert random_heterogeneous(8, 0.0, seed=1).is_uniform

    def test_worst_case_factor_is_conservative(self):
        sc = (
            NetworkScenario(name="t")
            .with_link_cost(0, 1, tw_factor=2.0, start=0.0, end=10.0)
            .with_link_cost(0, 1, tw_factor=3.0, start=50.0, end=60.0)
            .with_link_cost(2, 3, ts_factor=4.0)
        )
        # Disjoint windows on (0,1) are still multiplied: 6 > 4.
        assert sc.worst_case_factor() == 6.0
        assert uniform().worst_case_factor() == 1.0

    def test_json_roundtrip_replays_identically(self):
        sc = background_traffic(16, jobs=3, seed=7)
        replayed = scenario_from_json(sc.to_json())
        assert replayed == sc
        for lc in sc.links:
            for t in (0.0, lc.start, (lc.start + min(lc.end, 1e6)) / 2):
                assert replayed.factors(lc.u, lc.v, t) == sc.factors(
                    lc.u, lc.v, t
                )

    def test_json_roundtrip_infinite_window(self):
        sc = hotspot(8, 3, 2.5)
        replayed = scenario_from_json(sc.to_json())
        assert replayed == sc
        assert all(math.isinf(lc.end) for lc in replayed.links)

    def test_json_rejects_unknown_version(self):
        with pytest.raises(SimulationError):
            scenario_from_json('{"version": 99, "links": []}')
        with pytest.raises(SimulationError):
            scenario_from_json('[1, 2, 3]')

    def test_pickle_roundtrip(self):
        sc = random_heterogeneous(16, 1.0, seed=3)
        back = pickle.loads(pickle.dumps(sc))
        assert back == sc
        lc = sc.links[0]
        assert back.factors(lc.u, lc.v, 0.0) == sc.factors(lc.u, lc.v, 0.0)

    def test_descriptor_distinguishes_scenarios(self):
        a = hotspot(8, 0, 2.0)
        b = hotspot(8, 0, 3.0)
        assert a.descriptor() != b.descriptor()
        assert a.descriptor() != a.with_adaptive_routing(False).descriptor()

    def test_hashable_inside_machine_config(self):
        cfg = _cfg(8, hotspot(8, 0, 2.0))
        assert hash(cfg) == hash(_cfg(8, hotspot(8, 0, 2.0)))


class TestProfiles:
    def test_hotspot_covers_all_incident_links(self):
        sc = hotspot(16, 5, 4.0)
        assert len(sc.links) == 4
        for d in range(4):
            assert sc.factors(5, 5 ^ (1 << d), 0.0) == (4.0, 4.0)
        assert sc.factors(0, 1, 0.0) == (1.0, 1.0)

    def test_congested_dimension_covers_the_cut(self):
        sc = congested_dimension(16, 2, 3.0)
        assert len(sc.links) == 8
        assert sc.factors(0, 4, 0.0) == (3.0, 3.0)
        assert sc.factors(0, 1, 0.0) == (1.0, 1.0)

    def test_random_heterogeneous_affected_set_stable_across_severity(self):
        low = random_heterogeneous(32, 0.5, seed=9)
        high = random_heterogeneous(32, 2.0, seed=9)
        assert {(lc.u, lc.v) for lc in low.links} == {
            (lc.u, lc.v) for lc in high.links
        }
        # Overhead grows continuously with severity on every link.
        for a, b in zip(low.links, high.links):
            assert b.tw_factor > a.tw_factor > 1.0

    def test_random_heterogeneous_seed_changes_pattern(self):
        a = random_heterogeneous(32, 1.0, seed=1)
        b = random_heterogeneous(32, 1.0, seed=2)
        assert a != b

    def test_background_traffic_is_windowed_and_replayable(self):
        a = background_traffic(8, jobs=2, seed=4)
        assert a == background_traffic(8, jobs=2, seed=4)
        assert all(math.isfinite(lc.end) for lc in a.links)

    def test_profile_validation(self):
        with pytest.raises(SimulationError):
            hotspot(8, 9, 2.0)
        with pytest.raises(SimulationError):
            congested_dimension(8, 5, 2.0)
        with pytest.raises(SimulationError):
            random_heterogeneous(8, -1.0)
        with pytest.raises(SimulationError):
            random_heterogeneous(7, 1.0)
        with pytest.raises(SimulationError):
            hotspot(8, 0, 0.5)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: hotspot(8, 0, math.nan), "factor"),
            (lambda: congested_dimension(8, 1, math.nan), "factor"),
            (lambda: background_traffic(8, factor=math.nan), "factor"),
            (lambda: background_traffic(8, horizon=math.nan), "horizon"),
            (lambda: random_heterogeneous(8, math.nan), "severity"),
        ],
        ids=["hotspot", "dimension", "background", "horizon", "random"],
    )
    def test_nan_profile_parameter_is_refused(self, build, field):
        with pytest.raises(SimulationError, match=field):
            build()


class TestEngineCosting:
    def test_uniform_scenario_bit_identical_to_none(self):
        base = _run_cannon(16)
        uni = _run_cannon(16, uniform())
        assert uni.total_time == base.total_time
        assert uni.trace_digest() == base.trace_digest()

    def test_degraded_links_stretch_hop_times(self):
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, ts_factor=2.0, tw_factor=3.0
        ).with_adaptive_routing(False)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, [0.0] * 4, nwords=4)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        res = run_spmd(_cfg(4, sc), prog, trace=True)
        # 2·t_s + 3·t_w·4 = 14 + 36 = 50 instead of 7 + 12 = 19.
        assert res.total_time == pytest.approx(50.0)
        hop = next(r for r in res.trace if r.kind == "hop")
        assert hop.info["slow"] == (2.0, 3.0)

    def test_stacked_entries_compose_on_one_hop(self):
        sc = (
            NetworkScenario(name="t")
            .with_link_cost(0, 1, tw_factor=2.0)
            .with_link_cost(0, 1, tw_factor=3.0, directed=True)
            .with_adaptive_routing(False)
        )

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, [0.0] * 4, nwords=4)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        res = run_spmd(_cfg(4, sc), prog)
        # t_s + t_w·(2·3)·4 = 7 + 72 = 79: the multipliers stack.
        assert res.total_time == pytest.approx(79.0)

    def test_windowed_cost_only_applies_inside_the_window(self):
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, tw_factor=10.0, start=0.0, end=5.0
        ).with_adaptive_routing(False)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.elapse(6.0)
                yield from ctx.send(1, [0.0] * 4, nwords=4)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        res = run_spmd(_cfg(4, sc), prog)
        assert res.total_time == pytest.approx(6.0 + 7.0 + 12.0)

    def test_heterogeneity_slows_a_full_algorithm(self):
        base = _run_cannon(16)
        slow = _run_cannon(16, hotspot(16, 0, 4.0))
        assert slow.total_time > base.total_time

    def test_cut_through_header_delay_scales(self):
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, ts_factor=3.0
        ).with_adaptive_routing(False)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(3, [0.0] * 4, nwords=4)
            elif ctx.rank == 3:
                yield from ctx.recv(0)
            return None

        res = run_spmd(
            _cfg(8, sc, routing=RoutingMode.CUT_THROUGH), prog
        )
        # Hop 0-1: starts at 0, header forwarded at 3·t_s = 21; hop 1-3
        # runs 21..21+19.  (Uniform pipeline would finish at 7+19 = 26.)
        assert res.total_time == pytest.approx(40.0)


class TestAdaptiveRouting:
    @pytest.mark.parametrize("adaptive, arrival, detours", [
        (True, 303.0, 1),  # three nominal hops around the slow link
        (False, 10_001.0, 0),  # t_s + 100·t_w·100 on the slow link
    ])
    def test_adaptive_routing_is_the_one_detour_rule(
        self, adaptive, arrival, detours
    ):
        """A ×100 ``t_w`` link on a 16-node cube (``t_s = t_w = 1``): one
        100-word message ``0 -> 1`` is detoured or pays, and the
        scenario's ``adaptive_routing`` alone decides which."""
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, tw_factor=100.0
        ).with_adaptive_routing(adaptive)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, list(range(100)), nwords=100)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        cfg = MachineConfig.create(16, t_s=1.0, t_w=1.0, scenario=sc)
        res = run_spmd(cfg, prog)
        assert res.total_time == arrival
        assert res.adaptive_detours == detours

    @pytest.mark.parametrize("adaptive, pinned", [
        (True, (6480.0, 499, 1005, 37, 1)),
        (False, (5670.0, 0, 0, 0, 1)),
    ])
    def test_route_counters_of_faults_under_moving_costs(self, adaptive, pinned):
        """A link fault, a drop window and a corruption window under
        background traffic: the route caches search, settle and detour
        exactly as many times as when routes were keyed on a fault epoch
        and a cost epoch apiece (Cannon, n = 16, p = 64)."""
        rng = np.random.default_rng(0)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        plan = (FaultPlan().with_link_fault(10, 26, start=10, end=310)
                .with_link_drop(1, 0, 0.0, start=5, end=200)
                .with_link_corruption(2, 3, 0.0, start=7, end=90))
        sc = background_traffic(64, seed=1).with_adaptive_routing(adaptive)
        cfg = MachineConfig.create(64, t_s=150, t_w=3, faults=plan, scenario=sc)
        res = get_algorithm("cannon").run(A, B, cfg).result
        assert (
            res.total_time, res.route_searches, res.route_nodes_settled,
            res.adaptive_detours, res.network.hops_rerouted,
        ) == pinned

    def test_detour_around_expensive_link(self):
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, ts_factor=10.0, tw_factor=10.0
        )
        assert _route_of(8, sc, 0, 3) == [(0, 2), (2, 3)]

    def test_oblivious_mode_keeps_ecube(self):
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, ts_factor=10.0, tw_factor=10.0
        ).with_adaptive_routing(False)
        assert _route_of(8, sc, 0, 3) == [(0, 1), (1, 3)]

    def test_degradation_window_changes_chosen_detour(self):
        """RouteCache invalidation keys on the window's route index: the same
        (src, dst) pair routes differently on the two sides of a
        degradation window edge."""
        sc = NetworkScenario(name="t").with_link_cost(
            0, 1, ts_factor=10.0, tw_factor=10.0, start=0.0, end=50.0
        )
        during = _route_of(8, sc, 0, 3, at=0.0)
        after = _route_of(8, sc, 0, 3, at=100.0)
        assert during == [(0, 2), (2, 3)]
        assert after == [(0, 1), (1, 3)]

    def test_adaptive_detour_avoids_dead_links_too(self):
        sc = NetworkScenario(name="t").with_link_cost(
            0, 2, ts_factor=5.0, tw_factor=5.0
        )
        plan = FaultPlan(seed=0).with_link_fault(0, 1, start=0.0)
        # E-cube 0-1-3 is dead at its first hop and the other minimal route
        # 0-2-3 pays the degraded link: 5·10 + 10 = 60 in one-word hop
        # costs.  Four healthy hops cost 40 and four such routes tie
        # (0-4-5-1-3, 0-4-5-7-3, 0-4-6-7-3, 0-4-6-2-3): of 3's equal-cost
        # predecessors 1, 2 and 7, node 1 settles first and stays its parent.
        hops = _route_of(8, sc, 0, 3, faults=plan)
        assert hops == [(0, 4), (4, 5), (5, 1), (1, 3)]

    def test_adaptive_route_prefers_cheap_longer_path_when_worth_it(self):
        # One-word hop costs: degraded 0-2 = 5·(7+3) = 50 per hop entry;
        # healthy hop = 10.  Path 0-2-3 costs 50+10 = 60; path 0-4-6-2?
        # For dst=2: direct 0-2 degraded (50) vs 0-4-6-2 (30): detour wins.
        sc = NetworkScenario(name="t").with_link_cost(
            0, 2, ts_factor=5.0, tw_factor=5.0
        )
        hops = _route_of(8, sc, 0, 2)
        assert len(hops) == 3
        assert (0, 2) not in hops

    def test_adaptive_routing_is_deterministic(self):
        sc = random_heterogeneous(16, 2.0, seed=11)
        a = _run_cannon(16, sc)
        b = _run_cannon(16, sc)
        assert a.trace_digest() == b.trace_digest()

    def test_strict_fault_mode_still_raises_on_dead_link(self):
        from repro.errors import LinkFailedError

        sc = NetworkScenario(name="t").with_link_cost(0, 2, tw_factor=2.0)
        plan = FaultPlan(seed=0, reroute=False).with_link_fault(
            0, 1, start=0.0
        )

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, [0.0], nwords=1)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        with pytest.raises(LinkFailedError):
            run_spmd(_cfg(8, sc, faults=plan), prog)


class TestCostTable:
    """The same arm as ``test_faults.TestWindowTable``, on the timeline a
    fault-free heterogeneous machine runs: the scenario alone."""

    @pytest.mark.parametrize("seed", range(54))
    def test_table_equals_point_query_at_every_epoch_and_edge(self, seed):
        check_timeline(None, _random_scenario(seed))
