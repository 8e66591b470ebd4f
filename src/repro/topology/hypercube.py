"""The 2-ary n-cube (binary hypercube) and its subcubes.

A *d*-dimensional hypercube has ``2**d`` nodes addressed ``0 .. 2**d - 1``;
two nodes are neighbours iff their addresses differ in exactly one bit.  A
*subcube* is the set of nodes obtained by fixing some address bits and
letting the remaining ``k`` bits range freely — itself a k-cube.  The
algorithms in the paper rely on the fact that every row, column, or line of
a Gray-code-embedded grid is such a subcube, so collective operations within
a row/column/line enjoy full hypercube connectivity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import TopologyError
from repro.util.bits import ilog2, is_power_of_two

__all__ = ["Hypercube", "Subcube", "subcube_layout", "subcube_tables"]


class Hypercube:
    """A binary hypercube of ``2**dimension`` nodes.

    Parameters
    ----------
    dimension:
        Number of cube dimensions (``log2`` of the node count).  ``0`` is
        allowed and denotes the single-node "cube".
    """

    __slots__ = ("_dimension",)

    @staticmethod
    @functools.cache
    def __new__(cls, dimension: int) -> "Hypercube":
        # One instance per dimension, so a cube compares and hashes by
        # identity: the per-rank memos keyed on a cube cost no Python call.
        if dimension < 0:
            raise TopologyError(f"hypercube dimension must be >= 0, got {dimension}")
        cube = object.__new__(cls)
        cube._dimension = int(dimension)
        return cube

    def __getnewargs__(self) -> tuple[int]:
        return (self._dimension,)  # unpickling returns the shared instance

    @classmethod
    @functools.cache
    def with_nodes(cls, num_nodes: int) -> "Hypercube":
        """The hypercube with exactly ``num_nodes`` (a power of two)."""
        if not is_power_of_two(num_nodes):
            raise TopologyError(
                f"hypercube node count must be a power of two, got {num_nodes}"
            )
        return cls(ilog2(num_nodes))

    @property
    def dimension(self) -> int:
        """Number of dimensions (links per node)."""
        return self._dimension

    @property
    def num_nodes(self) -> int:
        return 1 << self._dimension

    @property
    def num_links(self) -> int:
        """Number of undirected links: ``d * 2**(d-1)``."""
        return self._dimension << (self._dimension - 1) if self._dimension else 0

    def nodes(self) -> range:
        """Iterable over all node addresses."""
        return range(self.num_nodes)

    def contains(self, node: int) -> bool:
        """True iff ``node`` is a valid address in this cube."""
        return 0 <= node < self.num_nodes

    def _check_node(self, node: int) -> None:
        if not self.contains(node):
            raise TopologyError(
                f"node {node} outside {self.num_nodes}-node hypercube"
            )

    def neighbor(self, node: int, dim: int) -> int:
        """The neighbour of ``node`` across dimension ``dim``."""
        if not 0 <= node < 1 << self._dimension:
            self._check_node(node)
        if not 0 <= dim < self._dimension:
            raise TopologyError(
                f"dimension {dim} out of range for a {self._dimension}-cube"
            )
        return node ^ (1 << dim)

    def neighbors(self, node: int) -> list[int]:
        """All ``dimension`` neighbours of ``node``, ascending dimension."""
        # The range check is inline (as in are_neighbors / route_hops):
        # every expansion of the BFS detour and the cheapest-path search
        # starts here.
        if not 0 <= node < 1 << self._dimension:
            self._check_node(node)
        return [node ^ (1 << d) for d in range(self._dimension)]

    def are_neighbors(self, a: int, b: int) -> bool:
        """True iff ``a`` and ``b`` share a hypercube link."""
        n = 1 << self._dimension
        if not (0 <= a < n and 0 <= b < n):
            self._check_node(a)
            self._check_node(b)
        diff = a ^ b
        # exactly one differing address bit
        return diff != 0 and diff & (diff - 1) == 0

    def distance(self, a: int, b: int) -> int:
        """Shortest-path (Hamming) distance between two nodes."""
        n = 1 << self._dimension
        if not (0 <= a < n and 0 <= b < n):
            self._check_node(a)
            self._check_node(b)
        return (a ^ b).bit_count()

    def link_dimension(self, a: int, b: int) -> int:
        """The dimension of the link joining neighbours ``a`` and ``b``."""
        if not self.are_neighbors(a, b):
            raise TopologyError(f"nodes {a} and {b} are not hypercube neighbours")
        return ilog2(a ^ b)

    def route_hops(self, src: int, dst: int) -> list[tuple[int, int]]:
        """Store-and-forward route between any two nodes: the e-cube path.

        Part of the duck-typed topology surface the simulator engine uses
        (shared with :class:`repro.topology.torus.Torus2D`).
        """
        n = 1 << self._dimension
        if not (0 <= src < n and 0 <= dst < n):
            self._check_node(src)
            self._check_node(dst)
        # :func:`repro.topology.routing.ecube_hops`, inlined: a cold route
        # cache pays this once per (src, dst), and at large p most pairs
        # are routed exactly once.
        hops = []
        diff = src ^ dst
        while diff:
            lowest = diff & -diff
            hops.append((src, src ^ lowest))
            src ^= lowest
            diff ^= lowest
        return hops

    def subcube(self, free_dims: tuple[int, ...] | list[int], anchor: int) -> "Subcube":
        """The subcube spanned by ``free_dims`` through node ``anchor``."""
        return Subcube(self, tuple(free_dims), anchor)

    def split(self, split_dims: tuple[int, ...] | list[int]) -> list["Subcube"]:
        """Partition the cube into ``2**len(split_dims)`` disjoint subcubes.

        The returned subcubes have the *other* dimensions free; subcube ``i``
        fixes the split dimensions to the bits of ``i``.
        """
        split_dims = tuple(split_dims)
        for d in split_dims:
            if not 0 <= d < self._dimension:
                raise TopologyError(f"split dimension {d} out of range")
        if len(set(split_dims)) != len(split_dims):
            raise TopologyError(f"duplicate split dimensions in {split_dims}")
        free = tuple(d for d in range(self._dimension) if d not in split_dims)
        cubes = []
        for i in range(1 << len(split_dims)):
            anchor = 0
            for k, d in enumerate(split_dims):
                if (i >> k) & 1:
                    anchor |= 1 << d
            cubes.append(Subcube(self, free, anchor))
        return cubes

    def __repr__(self) -> str:
        return f"Hypercube(dimension={self._dimension})"


@dataclass(frozen=True)
class Subcube:
    """A subcube of a parent hypercube.

    ``free_dims`` are the dimensions allowed to vary; all other address bits
    are frozen to the corresponding bits of ``anchor``.  Members are ordered
    by the integer formed by their free-dimension bits, which makes a
    subcube usable as a little hypercube in its own right (member index ⇄
    node address conversions are :meth:`member` and :meth:`index_of`).
    """

    parent: Hypercube
    free_dims: tuple[int, ...]
    anchor: int

    def __post_init__(self):
        d = self.parent.dimension
        seen = set()
        for dim in self.free_dims:
            if not 0 <= dim < d:
                raise TopologyError(f"free dimension {dim} out of range for {d}-cube")
            if dim in seen:
                raise TopologyError(f"duplicate free dimension {dim}")
            seen.add(dim)
        self.parent._check_node(self.anchor)
        # Normalize the anchor: clear the free bits so equal subcubes compare equal.
        mask = 0
        for dim in self.free_dims:
            mask |= 1 << dim
        object.__setattr__(self, "anchor", self.anchor & ~mask)

    @property
    def dimension(self) -> int:
        return len(self.free_dims)

    @property
    def num_nodes(self) -> int:
        return 1 << len(self.free_dims)

    def member(self, index: int) -> int:
        """Parent-node address of the ``index``-th member."""
        if not 0 <= index < self.num_nodes:
            raise TopologyError(
                f"member index {index} out of range for {self.num_nodes}-node subcube"
            )
        node = self.anchor
        for k, dim in enumerate(self.free_dims):
            if (index >> k) & 1:
                node |= 1 << dim
        return node

    def index_of(self, node: int) -> int:
        """Member index of a parent node (raises if not a member)."""
        if not self.contains(node):
            raise TopologyError(f"node {node} not in subcube {self}")
        idx = 0
        for k, dim in enumerate(self.free_dims):
            if (node >> dim) & 1:
                idx |= 1 << k
        return idx

    def contains(self, node: int) -> bool:
        if not self.parent.contains(node):
            return False
        mask = 0
        for dim in self.free_dims:
            mask |= 1 << dim
        return (node & ~mask) == self.anchor

    def members(self) -> Iterator[int]:
        for i in range(self.num_nodes):
            yield self.member(i)

    def __repr__(self) -> str:
        return (
            f"Subcube(free_dims={self.free_dims}, anchor={self.anchor:#b}, "
            f"parent_dim={self.parent.dimension})"
        )


# The subcube-index maps of an ordered member list.  Every member of a grid
# line builds the same communicator, every group of a collective phase over
# that line plans with the same maps, and parallel lines differ only in
# their subcube's anchor.  So the maps are computed once per process and
# *layout* (the members' offsets from their anchor), looked up once per
# member tuple, and shared, read-only (arrays ``writeable=False``).


@functools.cache
def _arange(n: int) -> np.ndarray:
    everyone = np.arange(n)
    everyone.flags.writeable = False
    return everyone


@functools.lru_cache(maxsize=4096)
def subcube_layout(offsets: tuple[int, ...], free_dims: tuple[int, ...]) -> tuple | None:
    """``(sub, cr_of_sub, partners, everyone, sub_key, cr_key)`` of members
    at ``offsets`` (in their order, the *comm ranks*) from the anchor of the
    subcube spanning ``free_dims``, or ``None`` if they are not that
    subcube (an offset outside it, or two on one subcube index).

    ``sub[i]``: member ``i``'s subcube index (its ``free_dims`` bits,
    packed in that order); ``cr_of_sub``: its inverse; ``partners[k, i]``:
    the member across subcube dimension ``k``; ``everyone``:
    ``arange(size)``, one array per size; ``sub_key`` and ``cr_key``:
    ``sub`` and ``cr_of_sub`` as tuples.  The arrays are shared and
    read-only.
    """
    rel = np.array(offsets, dtype=np.intp)
    d = len(free_dims)
    if len(rel) != 1 << d:
        return None
    bits = 1 << np.array(free_dims, dtype=np.intp)
    everyone = _arange(len(rel))
    sub = ((rel[:, None] & bits) != 0) @ (1 << everyone[:d])
    cr_of_sub = np.full(len(rel), -1, dtype=np.intp)
    cr_of_sub[sub] = everyone
    if (rel & ~bits.sum()).any() or (cr_of_sub < 0).any():
        return None
    partners = cr_of_sub[sub ^ (1 << everyone[:d, None])]
    for table in (sub, cr_of_sub, partners):
        table.flags.writeable = False
    return (
        sub, cr_of_sub, partners, everyone,
        tuple(sub.tolist()), tuple(cr_of_sub.tolist()),
    )


@functools.lru_cache(maxsize=65536)
def subcube_tables(members: tuple[int, ...], free_dims: tuple[int, ...]) -> tuple | None:
    """``(sub, cr_of_sub, partners, everyone, node_ids, sub_key)``: the
    :func:`subcube_layout` of ``members`` and the members as a read-only
    array, or ``None`` if they are not the subcube spanning ``free_dims``."""
    if not members:
        return None
    mask = sum([1 << k for k in free_dims])
    anchor = members[0] & ~mask
    layout = subcube_layout(tuple([m ^ anchor for m in members]), free_dims)
    if layout is None:
        return None
    node_ids = np.array(members, dtype=np.intp)
    node_ids.flags.writeable = False
    return (*layout[:4], node_ids, layout[4])
