"""Tests for dimension-ordered (e-cube) routing and cost-aware routing."""

import heapq

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError, UnreachableError
from repro.sim import MachineConfig, MachineParams
from repro.sim.faults import LinkTimeline
from repro.sim.scenario import (
    LinkCost,
    NetworkScenario,
    congested_dimension,
    hotspot,
    random_heterogeneous,
)
from repro.topology.hypercube import Hypercube
from repro.topology.routing import (
    RouteCache,
    cheapest_hops,
    cheapest_path,
    ecube_dimensions,
    ecube_hops,
    ecube_next_hop,
    ecube_path,
)
from repro.topology.torus import Torus2D

node = st.integers(min_value=0, max_value=2**10 - 1)


class TestNextHop:
    def test_corrects_lowest_bit_first(self):
        assert ecube_next_hop(0b000, 0b101) == 0b001
        assert ecube_next_hop(0b001, 0b101) == 0b101

    def test_at_destination_rejected(self):
        with pytest.raises(TopologyError):
            ecube_next_hop(5, 5)


class TestPath:
    def test_trivial_path(self):
        assert ecube_path(3, 3) == [3]

    def test_example(self):
        assert ecube_path(0b000, 0b110) == [0b000, 0b010, 0b110]

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            ecube_path(-1, 2)

    @given(node, node)
    def test_path_length_is_hamming_distance(self, a, b):
        assert len(ecube_path(a, b)) == bin(a ^ b).count("1") + 1

    @given(node, node)
    def test_consecutive_nodes_are_neighbors(self, a, b):
        path = ecube_path(a, b)
        for u, v in zip(path, path[1:]):
            assert bin(u ^ v).count("1") == 1

    @given(node, node)
    def test_endpoints(self, a, b):
        path = ecube_path(a, b)
        assert path[0] == a and path[-1] == b

    @given(node, node)
    def test_dimensions_ascending(self, a, b):
        dims = ecube_dimensions(a, b)
        assert list(dims) == sorted(dims)

    @given(node, node)
    def test_no_node_revisited(self, a, b):
        path = ecube_path(a, b)
        assert len(set(path)) == len(path)


class TestHops:
    def test_empty_for_self(self):
        assert ecube_hops(4, 4) == []

    @given(node, node)
    def test_hops_chain(self, a, b):
        hops = ecube_hops(a, b)
        if hops:
            assert hops[0][0] == a
            assert hops[-1][1] == b
            for (u1, v1), (u2, v2) in zip(hops, hops[1:]):
                assert v1 == u2

    def test_deterministic(self):
        assert ecube_hops(5, 10) == ecube_hops(5, 10)


# ---------------------------------------------------------------------------
# Cost-aware routing: the bounded search against a plain Dijkstra
# ---------------------------------------------------------------------------


def _oracle(topology, src, dest, costs, nominal, alive=None):
    """The unpruned search ``cheapest_path`` must agree with, route for
    route: ``(distance, node)`` heap order, the topology's neighbour order,
    a new parent only on a strict improvement.  It exists only here."""
    if src == dest:
        return [src]
    dist = {src: 0.0}
    parent = {src: src}
    settled = set()
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        if node == dest:
            break
        settled.add(node)
        for nxt in topology.neighbors(node):
            if nxt in settled:
                continue
            if alive is not None and not alive(node, nxt):
                continue
            nd = d + costs.get((node, nxt), nominal)
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    if dest not in parent:
        raise UnreachableError(src, dest)
    path = [dest]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


#: a dyadic pair, a pair whose sums round, and the golden traces' pair
COSTS = [(150.0, 3.0), (0.1, 0.7), (7.0, 3.0)]


def _table(topology, scenario, t_s, t_w):
    """The engine's link-cost table of the scenario's (only) window."""
    config = MachineConfig(topology, MachineParams(t_s, t_w), scenario=scenario)
    return LinkTimeline(config).window.weights


def _cube_maps(p):
    maps = [
        NetworkScenario(name="none"),
        NetworkScenario(name="hot-link").with_link_cost(
            0, 1, ts_factor=10.0, tw_factor=10.0
        ),
        hotspot(p, node=5, factor=4.0),
        congested_dimension(p, 1, 4.0),
    ]
    maps += [
        random_heterogeneous(p, severity, fraction=fraction, seed=7)
        for fraction in (0.2, 0.7)
        for severity in (0.3, 2.0, 8.0)
    ]
    return maps


def _torus_maps(torus):
    links = sorted(
        {(min(u, v), max(u, v)) for u in torus.nodes() for v in torus.neighbors(u)}
    )

    def slowed(name, chosen, factor):
        return NetworkScenario(name=name, links=tuple(
            LinkCost(u, v, ts_factor=factor(i), tw_factor=factor(i))
            for i, (u, v) in enumerate(chosen)
        ))

    maps = [
        NetworkScenario(name="none"),
        slowed("hot-link", links[:1], lambda i: 10.0),
        slowed("hotspot", [lk for lk in links if 5 in lk], lambda i: 4.0),
        # every link along a row: the torus's "congested dimension"
        slowed(
            "rows",
            [(u, v) for u, v in links
             if torus.coords_of(u)[0] == torus.coords_of(v)[0]],
            lambda i: 4.0,
        ),
    ]
    for fraction in (0.2, 0.7):
        for severity in (0.3, 2.0, 8.0):
            rng = np.random.default_rng(7)
            chosen = [lk for lk in links if rng.random() < fraction]
            draws = 1.0 + severity * (0.5 + rng.random(len(chosen)))
            maps.append(slowed(
                f"random:s{severity:g}f{fraction:g}", chosen,
                lambda i, draws=draws: float(draws[i]),
            ))
    return maps


def _alive_filters(topology, src, dest):
    """No filter, and one without the middle link of the native route."""
    native = topology.route_hops(src, dest)
    if not native:
        return [None]
    u, v = native[len(native) // 2]
    return [None, lambda a, b: (a, b) != (u, v) and (a, b) != (v, u)]


TOPOLOGIES = [
    (Hypercube(4), _cube_maps(16)),
    (Hypercube(5), _cube_maps(32)),
    (Torus2D(4, 4), _torus_maps(Torus2D(4, 4))),
]


class TestCheapestPath:
    @pytest.mark.parametrize(
        "topology, maps", TOPOLOGIES, ids=["4-cube", "5-cube", "4x4-torus"]
    )
    @pytest.mark.parametrize("t_s, t_w", COSTS)
    def test_every_pair_routes_as_the_unpruned_search(
        self, topology, maps, t_s, t_w
    ):
        """Exhaustive: every (src, dst), every map, with every link alive
        and with a hop of the native route dead.  Most of these maps tie
        many routes, so this is a test of the tie-breaking."""
        nominal = t_s + t_w
        for scenario in maps:
            costs = _table(topology, scenario, t_s, t_w)
            for src in topology.nodes():
                for dest in topology.nodes():
                    for alive in _alive_filters(topology, src, dest):
                        got = cheapest_path(
                            topology, src, dest, costs, nominal, alive
                        )
                        want = _oracle(topology, src, dest, costs, nominal, alive)
                        assert got == want, (
                            f"{scenario.name}: {src} -> {dest} "
                            f"{'with a dead native hop' if alive else ''}"
                        )

    @pytest.mark.parametrize("t_s, t_w", COSTS)
    def test_sampled_pairs_of_the_9_cube(self, t_s, t_w):
        cube = Hypercube(9)
        nominal = t_s + t_w
        rng = np.random.default_rng(20)
        for scenario in (
            random_heterogeneous(512, 2.0, seed=0),
            random_heterogeneous(512, 8.0, fraction=0.7, seed=1),
            congested_dimension(512, 4, 4.0),
        ):
            costs = _table(cube, scenario, t_s, t_w)
            for src, dest in rng.integers(512, size=(40, 2)):
                src, dest = int(src), int(dest)
                # neighbours are what the engine mostly routes
                for dst in (dest, src ^ (1 << (dest % 9))):
                    for alive in _alive_filters(cube, src, dst):
                        assert cheapest_path(
                            cube, src, dst, costs, nominal, alive
                        ) == _oracle(cube, src, dst, costs, nominal, alive)

    def test_source_is_destination(self):
        cube = Hypercube(3)
        assert cheapest_path(cube, 5, 5, {}, 10.0) == [5]
        assert cheapest_hops(cube, 5, 5, {}, 10.0) == []
        assert RouteCache(cube).cheapest(5, 5, {}, 10.0, 0) == ()

    def test_hops_pair_up_the_path(self):
        cube = Hypercube(3)
        costs = {(0, 1): 100.0, (1, 0): 100.0}
        assert cheapest_path(cube, 0, 3, costs, 10.0) == [0, 2, 3]
        assert cheapest_hops(cube, 0, 3, costs, 10.0) == [(0, 2), (2, 3)]

    def test_unreachable_when_alive_disconnects_the_pair(self):
        cube = Hypercube(3)

        def isolated_6(a, b):
            return 6 not in (a, b)

        for src, dest in ((0, 6), (6, 0), (7, 6)):
            with pytest.raises(UnreachableError):
                cheapest_path(cube, src, dest, {}, 10.0, isolated_6)
        torus = Torus2D(4, 4)
        with pytest.raises(UnreachableError):
            cheapest_path(torus, 0, 5, {}, 10.0, lambda a, b: 5 not in (a, b))
        # ... and the failure is not cached as a route
        routes = RouteCache(cube)
        with pytest.raises(UnreachableError):
            routes.cheapest(0, 6, {}, 10.0, 0, isolated_6)
        assert routes.cheapest(0, 6, {}, 10.0, 0) == ((0, 2), (2, 6))

    def test_a_direct_link_not_worth_a_detour_expands_one_node(self):
        """The bound at work: the three-hop detour around a link costs at
        least ``3 * nominal``, so below that the search settles the source
        and stops; above it, it walks the eight detours' 2 x 8 inner nodes
        and nothing else of the 512."""
        cube = Hypercube(9)
        nominal = 153.0
        for factor, expanded, detoured in ((1.0, 1, 0), (2.9, 1, 0), (3.5, 17, 1)):
            routes = RouteCache(cube)
            costs = {(8, 9): factor * nominal}
            hops = routes.cheapest(8, 9, costs, nominal, 0)
            assert hops == tuple(
                cheapest_hops(cube, 8, 9, costs, nominal)
            )
            assert (len(hops) == 3) == bool(detoured)
            assert routes.searches == 1
            assert routes.nodes_settled == expanded
            assert routes.detours == detoured
            routes.cheapest(8, 9, costs, nominal, 0)  # served from the cache
            assert routes.searches == 1

    def test_a_minimal_route_in_another_dimension_order_is_a_detour(self):
        cube = Hypercube(3)
        routes = RouteCache(cube)
        costs = {(0, 1): 11.0, (1, 0): 11.0}
        assert routes.cheapest(0, 3, costs, 10.0, 0) == ((0, 2), (2, 3))
        assert routes.cheapest(0, 6, costs, 10.0, 0) == routes.healthy(0, 6)
        assert (routes.searches, routes.detours) == (2, 1)

    def test_dead_native_hop_disables_the_bound_not_the_answer(self):
        cube = Hypercube(4)
        dead = {(0, 1), (1, 0)}
        path = cheapest_path(
            cube, 0, 1, {}, 10.0, lambda a, b: (a, b) not in dead
        )
        assert path == [0, 2, 3, 1]
