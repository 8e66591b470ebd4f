"""Dimension-ordered (e-cube) routing on the hypercube, healthy and faulty.

Messages between non-neighbouring nodes are forwarded store-and-forward
along the e-cube path: correct the differing address bits in ascending
dimension order.  The path length equals the Hamming distance, so a
point-to-point transfer of ``m`` words over distance ``h`` costs
``h * (t_s + t_w * m)`` — exactly the store-and-forward accounting the paper
uses (e.g. the ``log ∛p (t_s + t_w n²/p^{2/3})`` first phase of 3DD).

E-cube routing is deterministic and deadlock-free; determinism matters here
because the simulator must produce identical timings on every run.

Fault tolerance
---------------
When a :class:`~repro.sim.faults.FaultPlan` kills links, the e-cube next
hop may be dead.  :func:`fault_tolerant_hops` then detours
deterministically: it first tries the *alternative dimension orderings* —
among the address bits still to correct, take the lowest whose link is
alive (every such step still shortens the path, so the route stays
minimal whenever a minimal surviving route exists along distance-reducing
links).  If every profitable link at some node is dead, it falls back to a
breadth-first search over the surviving graph (neighbours visited in
ascending dimension order, so the result is unique and reproducible) and
raises :class:`~repro.errors.UnreachableError` when the surviving graph
disconnects source from destination.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Callable, Mapping

from repro.errors import TopologyError, UnreachableError
from repro.topology.hypercube import Hypercube
from repro.util.bits import set_bits

__all__ = [
    "ecube_path",
    "ecube_next_hop",
    "ecube_hops",
    "ecube_next_hop_avoiding",
    "fault_tolerant_path",
    "fault_tolerant_hops",
    "cheapest_path",
    "cheapest_hops",
    "RouteCache",
]

LinkPredicate = Callable[[int, int], bool]
#: one-word hop cost of every channel that differs from the nominal one
LinkCosts = Mapping[tuple[int, int], float]


def ecube_next_hop(current: int, dest: int) -> int:
    """The next node on the e-cube path from ``current`` to ``dest``."""
    diff = current ^ dest
    if diff == 0:
        raise TopologyError(f"no next hop: already at destination {dest}")
    lowest = diff & -diff
    return current ^ lowest


def ecube_path(src: int, dest: int) -> list[int]:
    """All nodes on the e-cube path from ``src`` to ``dest``, inclusive."""
    if src < 0 or dest < 0:
        raise TopologyError("node addresses must be non-negative")
    path = [src]
    cur = src
    while cur != dest:
        cur = ecube_next_hop(cur, dest)
        path.append(cur)
    return path


def ecube_hops(src: int, dest: int) -> list[tuple[int, int]]:
    """The (from, to) hop pairs of the e-cube path; empty for ``src == dest``."""
    nodes = ecube_path(src, dest)
    return list(zip(nodes[:-1], nodes[1:]))


def ecube_dimensions(src: int, dest: int) -> tuple[int, ...]:
    """Dimensions crossed by the e-cube route, in traversal order."""
    return set_bits(src ^ dest)


# ---------------------------------------------------------------------------
# Fault-tolerant routing
# ---------------------------------------------------------------------------


def ecube_next_hop_avoiding(
    current: int, dest: int, alive: LinkPredicate
) -> int | None:
    """The first distance-reducing next hop whose link is alive.

    Tries the differing address bits in ascending dimension order (the
    e-cube order first, then its deterministic alternatives).  Returns
    ``None`` when every profitable link out of ``current`` is dead — the
    caller must then detour through a non-minimal route.
    """
    diff = current ^ dest
    if diff == 0:
        raise TopologyError(f"no next hop: already at destination {dest}")
    for dim in set_bits(diff):
        nxt = current ^ (1 << dim)
        if alive(current, nxt):
            return nxt
    return None


def _bfs_path(topology, src: int, dest: int, alive: LinkPredicate) -> list[int] | None:
    """Deterministic shortest surviving path, or ``None`` if disconnected.

    Neighbours are expanded in the topology's order (ascending dimension
    for hypercubes), so ties always break the same way.
    """
    if src == dest:
        return [src]
    parent: dict[int, int] = {src: src}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for nxt in topology.neighbors(node):
            if nxt in parent or not alive(node, nxt):
                continue
            parent[nxt] = node
            if nxt == dest:
                path = [dest]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(nxt)
    return None


def fault_tolerant_path(
    topology, src: int, dest: int, alive: LinkPredicate
) -> list[int]:
    """All nodes on a deterministic surviving route ``src -> dest``.

    Strategy: greedy alternative-dimension-order routing (hypercubes only;
    each step corrects one address bit over a live link), with a BFS detour
    over the surviving graph when the greedy router is stuck or the
    topology is not a hypercube.  Raises
    :class:`~repro.errors.UnreachableError` when no surviving route exists.
    """
    if src == dest:
        return [src]
    # Fast path: the topology's native route, untouched when fully alive,
    # so enabling a fault plan never perturbs healthy routes.
    native = topology.route_hops(src, dest)
    if all(alive(u, v) for u, v in native):
        return [src] + [v for _u, v in native]
    if hasattr(topology, "link_dimension"):  # hypercube-shaped address space
        path = [src]
        cur = src
        while cur != dest:
            nxt = ecube_next_hop_avoiding(cur, dest, alive)
            if nxt is None:
                path = None
                break
            path.append(nxt)
            cur = nxt
        if path is not None:
            return path
    path = _bfs_path(topology, src, dest, alive)
    if path is None:
        raise UnreachableError(src, dest)
    return path


def fault_tolerant_hops(
    topology, src: int, dest: int, alive: LinkPredicate
) -> list[tuple[int, int]]:
    """The (from, to) hop pairs of :func:`fault_tolerant_path`."""
    nodes = fault_tolerant_path(topology, src, dest, alive)
    return list(zip(nodes[:-1], nodes[1:]))


# ---------------------------------------------------------------------------
# Cost-aware routing (heterogeneous / degraded networks)
# ---------------------------------------------------------------------------
#
# The cheapest route is the parent chain of ``dest`` in a Dijkstra search
# whose every tie is broken deterministically (see ``cheapest_path``).  The
# search is *bounded*, and the bound never changes that chain:
#
# * Link costs are a table ``costs`` of the channels that differ from the
#   ``nominal`` one-word hop cost ``t_s + t_w``; every entry is
#   ``>= nominal`` because :class:`~repro.sim.scenario.LinkCost` rejects
#   factors below 1.  So ``h(x) = distance(x, dest) * nominal`` is a lower
#   bound on what is left to pay from ``x``, and a *consistent* one: one
#   hop changes the distance by at most 1 and costs at least ``nominal``.
# * The native route is one candidate, so its cost under the table — summed
#   left to right from 0.0, exactly as the search would sum it — is an
#   upper bound ``U`` on the optimum (``inf``, i.e. no pruning at all, when
#   ``alive`` kills one of its hops).
# * A relaxation ``(nd, x)`` with ``nd + h(x) > U`` is not pushed.  Whatever
#   is reached through such an entry stays over ``U`` (consistency), so it
#   can be neither ``dest``'s final distance nor an optimal predecessor of
#   a node that is within ``U``: every optimal predecessor of an unpruned
#   node is itself unpruned.  Unpruned nodes keep their distances, so they
#   leave the ``(distance, node)`` heap in the same order, relax their
#   neighbours in the same ascending order and win or lose the same strict
#   comparisons: the chain of ``dest`` is unchanged, ties included.
# * Floats: a path's cost is a left-to-right sum of up to ``diameter``
#   terms, each addition (and the one product in ``h``) rounding by at most
#   2^-53 relative, and non-dyadic ``t_s``/``t_w`` do round.  The nodes
#   that can matter — those within ``U`` in exact arithmetic — therefore
#   evaluate to at most ``U * (1 + ~1e-14)``.  Pruning only above
#   ``U * (1 + 1e-9)`` keeps all of them and their optimal predecessors;
#   an entry that survives in the gap is a node a full search would also
#   hold, at a distance that cannot tie with anything within ``U``.

#: relative slack on the pruning bound (far above rounding, far below any
#: difference between two routes' costs that a scenario can express)
_BOUND_SLACK = 1e-9


def _cheapest_search(
    topology,
    src: int,
    dest: int,
    native,
    costs: LinkCosts,
    nominal: float,
    alive: LinkPredicate | None,
) -> tuple[list[int], int]:
    """The bounded Dijkstra: ``(route nodes, nodes expanded)``.

    ``native`` is ``topology.route_hops(src, dest)`` (the caller may hold
    it cached).
    """
    limit = 0.0
    for hop in native:
        if alive is not None and not alive(*hop):
            limit = math.inf
            break
        limit += costs[hop] if hop in costs else nominal
    limit *= 1.0 + _BOUND_SLACK
    # Per relaxed edge its cost and, on a hypercube, the Hamming distance
    # left are computed inline: one hop flips one address bit, so that
    # distance is the expanded node's, one less or one more; its neighbours
    # are the node XOR each bit, ascending (``map`` makes no call per node).
    hamming = topology.__class__ is Hypercube
    bits = [1 << k for k in range(topology.dimension)] if hamming else None
    distance = topology.distance
    dist: dict[int, float] = {src: 0.0}
    parent: dict[int, int] = {src: src}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        if node == dest:
            break
        settled.add(node)
        if hamming:
            diff = node ^ dest
            here = diff.bit_count()
        for nxt in map(node.__xor__, bits) if hamming else topology.neighbors(node):
            if nxt in settled:
                continue
            hop = (node, nxt)
            nd = d + (costs[hop] if hop in costs else nominal)
            # Cheapest test first; all four are pure, so their order is free.
            if nd > limit or (nxt in dist and nd >= dist[nxt]):
                continue
            if hamming:
                togo = here - 1 if diff & (nxt ^ node) else here + 1
            else:
                togo = distance(nxt, dest)
            if nd + togo * nominal > limit:
                continue
            if alive is not None and not alive(node, nxt):
                continue
            dist[nxt] = nd
            parent[nxt] = node
            heapq.heappush(heap, (nd, nxt))
    if dest not in parent:
        raise UnreachableError(src, dest)
    path = [dest]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path, len(settled)


def cheapest_path(
    topology,
    src: int,
    dest: int,
    costs: LinkCosts,
    nominal: float,
    alive: LinkPredicate | None = None,
) -> list[int]:
    """Deterministic minimum-cost route ``src -> dest`` under a cost table.

    Channel ``u -> v`` costs ``costs.get((u, v), nominal)``; every entry of
    ``costs`` must be ``>= nominal`` (the scenario layer passes the degraded
    one-word hop costs ``ts_factor·t_s + tw_factor·t_w`` of one window and
    ``nominal = t_s + t_w``; its factors are ``>= 1`` by construction).

    Dijkstra over the (optionally ``alive``-filtered) topology with fully
    deterministic tie-breaking: heap entries order by ``(distance, node)``
    so equal-cost frontiers expand lowest-node-first, neighbours are
    visited in the topology's order (ascending dimension on hypercubes),
    and a node's parent only changes on a *strict* cost improvement — the
    same inputs always yield the same path, which the simulator requires.
    Nodes that provably cannot lie on a route as cheap as the native one
    are never expanded (the section comment above argues that this leaves
    the answer untouched), so a neighbour whose link is not worth a detour
    costs one expansion.  Raises :class:`~repro.errors.UnreachableError`
    when ``alive`` disconnects the pair.
    """
    native = topology.route_hops(src, dest)
    return _cheapest_search(topology, src, dest, native, costs, nominal, alive)[0]


def cheapest_hops(
    topology,
    src: int,
    dest: int,
    costs: LinkCosts,
    nominal: float,
    alive: LinkPredicate | None = None,
) -> list[tuple[int, int]]:
    """The (from, to) hop pairs of :func:`cheapest_path`."""
    nodes = cheapest_path(topology, src, dest, costs, nominal, alive)
    return list(zip(nodes[:-1], nodes[1:]))


# ---------------------------------------------------------------------------
# Route caching
# ---------------------------------------------------------------------------


class RouteCache:
    """Memoized routes for one topology: the engine's per-message fast path.

    Routing is deterministic, so the hop list for a ``(src, dst)`` pair
    never changes on a healthy machine — yet the engine used to recompute
    the e-cube walk for *every* message.  :meth:`healthy` computes each
    pair once and returns an immutable tuple shared by all transfers.

    Under a fault plan or a scenario the link state is a piecewise-constant
    function of time, tabulated per run by
    :class:`~repro.sim.faults.LinkTimeline`.  Its windows carry one
    ``route`` index that counts only the edges that can change a route (a
    link-fault edge, a fail-stop, and a cost edge under adaptive routing),
    and :meth:`detour` and :meth:`cheapest` memoize per ``(src, dst,
    route)``: within one index the alive predicate and the cost table are
    constant, so a cached route is exactly what a new search would find.
    ``searches``, ``nodes_settled`` and ``detours`` count what that cost:
    cache misses, the nodes their searches expanded, and the routes found
    that leave the native one.

    The cache is scoped to whoever owns it (the engine builds one per
    run), so no staleness can leak between machines or fault plans.
    """

    __slots__ = (
        "topology", "_healthy", "_detours", "_cheapest",
        "searches", "nodes_settled", "detours",
    )

    def __init__(self, topology):
        self.topology = topology
        self._healthy: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._detours: dict[
            tuple[int, int, int], tuple[tuple[int, int], ...]
        ] = {}
        self._cheapest: dict[
            tuple[int, int, int], tuple[tuple[int, int], ...]
        ] = {}
        self.searches = 0
        self.nodes_settled = 0
        self.detours = 0

    def healthy(self, src: int, dst: int) -> tuple[tuple[int, int], ...]:
        """The topology's native route ``src -> dst`` (cached, immutable)."""
        key = (src, dst)
        hops = self._healthy.get(key)
        if hops is None:
            hops = tuple(self.topology.route_hops(src, dst))
            self._healthy[key] = hops
        return hops

    def detour(
        self, src: int, dst: int, alive: LinkPredicate, route: int
    ) -> tuple[tuple[int, int], ...]:
        """A surviving route ``src -> dst`` under ``alive``, cached per
        ``route`` index.

        ``alive`` must be constant within ``route`` (the caller reads both
        from one timeline window).  Raises
        :class:`~repro.errors.UnreachableError`, uncached, when the
        surviving graph disconnects the pair.
        """
        key = (src, dst, route)
        hops = self._detours.get(key)
        if hops is None:
            hops = tuple(fault_tolerant_hops(self.topology, src, dst, alive))
            self._detours[key] = hops
        return hops

    def cheapest(
        self,
        src: int,
        dst: int,
        costs: LinkCosts,
        nominal: float,
        route: int,
        alive: LinkPredicate | None = None,
    ) -> tuple[tuple[int, int], ...]:
        """The minimum-cost route ``src -> dst``, cached per ``route`` index.

        ``costs`` / ``nominal`` (see :func:`cheapest_path`) and ``alive``,
        when given, must be constant within ``route`` (the caller reads
        them all from one timeline window).  Raises
        :class:`~repro.errors.UnreachableError`, uncached, when ``alive``
        disconnects the pair.
        """
        key = (src, dst, route)
        hops = self._cheapest.get(key)
        if hops is None:
            native = self.healthy(src, dst)
            nodes, expanded = _cheapest_search(
                self.topology, src, dst, native, costs, nominal, alive
            )
            hops = tuple(zip(nodes[:-1], nodes[1:]))
            self.searches += 1
            self.nodes_settled += expanded
            if hops != native:
                self.detours += 1
            self._cheapest[key] = hops
        return hops
