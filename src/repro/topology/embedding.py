"""Gray-code embeddings of rings and grids into hypercubes.

All the paper's algorithms run on a *virtual* 1-D ring, 2-D mesh, or 3-D
mesh of processors laid over the physical hypercube.  The standard
binary-reflected Gray-code embedding maps grid coordinate ``x`` to cube bits
``gray_code(x)``, so that adjacent grid positions are cube neighbours
(dilation 1) and — crucially for the collective-communication costs — every
grid row/column/line occupies a full subcube of the hypercube.

Dimension-bit layout
--------------------
For a 2-D ``q × q`` grid on a ``2k``-cube (``q = 2**k``) we assign the low
``k`` cube dimensions to the grid's *column* coordinate ``j`` and the high
``k`` dimensions to the *row* coordinate ``i``.  For a 3-D ``q × q × q``
grid on a ``3k``-cube the low bits hold ``z`` (k), then ``y`` (k), then
``x`` (k).  Axis order in coordinates is always ``(row, col)`` for 2-D and
``(x, y, z)`` for 3-D, matching the paper's ``p_{i,j}`` / ``p_{i,j,k}``
subscripts.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

from repro.errors import TopologyError
from repro.topology.hypercube import Hypercube, Subcube
from repro.util.bits import gray_code, gray_code_inverse, ilog2, is_power_of_two

__all__ = [
    "RingEmbedding",
    "Grid2DEmbedding",
    "Grid3DEmbedding",
    "Grid3DRectEmbedding",
    "SubcubeGrid2D",
    "largest_live_subcube",
]

# line_members memo shared by every embedding instance of the same shape:
# a grid line's node list depends only on the grid signature, the axis, and
# the fixed coordinates, and every rank on the line asks for the same list
# (p·3 asks for p·3/q distinct lines on a 3-D grid).  Values are tuples;
# the public methods return fresh lists.
_line_cache: dict[tuple, tuple[int, ...]] = {}


def largest_live_subcube(
    cube: Hypercube,
    alive: Iterable[int],
    *,
    require: Callable[[Subcube], bool] | None = None,
) -> Subcube | None:
    """Largest subcube of ``cube`` whose members are all in ``alive``.

    Used by communicator recovery: after fail-stops, the survivors must be
    regrouped onto a machine that is still a hypercube so the paper's
    Gray-code embeddings keep their dilation-1 guarantee.  The search is a
    pure function of its arguments and enumerates candidates in a fixed
    order — descending dimension, then lexicographic free-dimension sets,
    then ascending anchor — so every surviving rank computes the *same*
    subcube from the same alive-set without further communication.

    ``require`` optionally rejects candidates (e.g. "dimension divisible
    by 3" for the 3-D algorithms); the first acceptable candidate wins.
    Returns ``None`` when no alive node forms an acceptable subcube.
    """
    alive_set = frozenset(alive)
    for node in alive_set:
        cube._check_node(node)
    k = cube.dimension
    all_dims = range(k)
    for d in range(k, -1, -1):
        for free_dims in combinations(all_dims, d):
            free_mask = 0
            for dim in free_dims:
                free_mask |= 1 << dim
            fixed_dims = [dim for dim in all_dims if dim not in free_dims]
            for bits in range(1 << (k - d)):
                anchor = 0
                for pos, dim in enumerate(fixed_dims):
                    if bits >> pos & 1:
                        anchor |= 1 << dim
                sub = Subcube(cube, free_dims, anchor)
                if all(m in alive_set for m in sub.members()):
                    if require is None or require(sub):
                        return sub
    return None


class RingEmbedding:
    """A ``2**k``-node ring embedded into a ``k``-cube with dilation 1."""

    __slots__ = ("cube", "_k")

    def __init__(self, cube: Hypercube):
        self.cube = cube
        self._k = cube.dimension

    @property
    def length(self) -> int:
        return self.cube.num_nodes

    def node_at(self, position: int) -> int:
        """Cube node of the ring position (positions wrap modulo length)."""
        return gray_code(position % self.length)

    def position_of(self, node: int) -> int:
        self.cube._check_node(node)
        return gray_code_inverse(node)

    def shift(self, position: int, by: int) -> int:
        """Cube node that is ``by`` ring-steps after ``position``."""
        return self.node_at(position + by)


def _check_side(q: int, what: str) -> int:
    if not is_power_of_two(q):
        raise TopologyError(f"{what} side must be a power of two, got {q}")
    return ilog2(q)


class Grid2DEmbedding:
    """A ``rows × cols`` grid embedded in a hypercube via Gray codes.

    ``rows`` and ``cols`` must be powers of two and their product must equal
    the cube size.  Each row and each column of the grid is a subcube, so a
    row-wise collective among ``cols`` processors runs on a ``log cols``-cube.
    """

    __slots__ = ("cube", "rows", "cols", "_kr", "_kc")

    def __init__(self, cube: Hypercube, rows: int, cols: int):
        self._kr = _check_side(rows, "grid row")
        self._kc = _check_side(cols, "grid column")
        if self._kr + self._kc != cube.dimension:
            raise TopologyError(
                f"{rows}x{cols} grid does not tile a {cube.num_nodes}-node cube"
            )
        self.cube = cube
        self.rows = rows
        self.cols = cols

    @classmethod
    def square(cls, cube: Hypercube) -> "Grid2DEmbedding":
        """The ``√p × √p`` embedding (cube dimension must be even)."""
        if cube.dimension % 2:
            raise TopologyError(
                f"square 2-D grid needs an even cube dimension, got {cube.dimension}"
            )
        q = 1 << (cube.dimension // 2)
        return cls(cube, q, q)

    def node_at(self, row: int, col: int) -> int:
        """Cube node of grid position ``(row, col)`` (coordinates wrap)."""
        row %= self.rows
        col %= self.cols
        return (gray_code(row) << self._kc) | gray_code(col)

    def coords_of(self, node: int) -> tuple[int, int]:
        self.cube._check_node(node)
        col_bits = node & ((1 << self._kc) - 1)
        row_bits = node >> self._kc
        return gray_code_inverse(row_bits), gray_code_inverse(col_bits)

    def row_subcube(self, row: int) -> Subcube:
        """The subcube holding grid row ``row`` (column coordinate free)."""
        anchor = self.node_at(row, 0)
        return Subcube(self.cube, tuple(range(self._kc)), anchor)

    def col_subcube(self, col: int) -> Subcube:
        """The subcube holding grid column ``col`` (row coordinate free)."""
        anchor = self.node_at(0, col)
        return Subcube(self.cube, tuple(range(self._kc, self._kc + self._kr)), anchor)

    def row_members(self, row: int) -> list[int]:
        """Cube nodes of row ``row`` ordered by column coordinate."""
        return [self.node_at(row, c) for c in range(self.cols)]

    def col_members(self, col: int) -> list[int]:
        return [self.node_at(r, col) for r in range(self.rows)]


class Grid3DRectEmbedding:
    """A rectangular ``sx × sy × sz`` grid on a hypercube, Gray-coded per axis.

    Power-of-two sides that need not be equal (:class:`Grid3DEmbedding` is
    the member whose are) — needed by the rectangular 3D All variant
    sketched at the end of §4.2.2, which trades the cubic ``∛p³`` grid for
    ``∜p × √p × ∜p`` to reach more processors.  Axis order matches the
    paper's ``p_{i,j,k}``: ``(x, y, z)``.
    """

    __slots__ = ("cube", "sx", "sy", "sz", "_kx", "_ky", "_kz")

    def __init__(self, cube: Hypercube, sx: int, sy: int, sz: int):
        self._kx = _check_side(sx, "grid x")
        self._ky = _check_side(sy, "grid y")
        self._kz = _check_side(sz, "grid z")
        if self._kx + self._ky + self._kz != cube.dimension:
            raise TopologyError(
                f"{sx}x{sy}x{sz} grid does not tile a {cube.num_nodes}-node cube"
            )
        self.cube = cube
        self.sx, self.sy, self.sz = sx, sy, sz

    def node_at(self, x: int, y: int, z: int) -> int:
        x %= self.sx
        y %= self.sy
        z %= self.sz
        return (
            (gray_code(x) << (self._ky + self._kz))
            | (gray_code(y) << self._kz)
            | gray_code(z)
        )

    def coords_of(self, node: int) -> tuple[int, int, int]:
        self.cube._check_node(node)
        z_bits = node & ((1 << self._kz) - 1)
        y_bits = (node >> self._kz) & ((1 << self._ky) - 1)
        x_bits = node >> (self._ky + self._kz)
        return (
            gray_code_inverse(x_bits),
            gray_code_inverse(y_bits),
            gray_code_inverse(z_bits),
        )

    def line_members(self, axis: str, x: int = 0, y: int = 0, z: int = 0) -> list[int]:
        """Cube nodes along ``axis``, ordered by that grid coordinate."""
        sig = ("rect", self.cube.dimension, self._kx, self._ky, self._kz)
        if axis == "x":
            key = sig + ("x", y % self.sy, z % self.sz)
        elif axis == "y":
            key = sig + ("y", x % self.sx, z % self.sz)
        elif axis == "z":
            key = sig + ("z", x % self.sx, y % self.sy)
        else:
            raise TopologyError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
        cached = _line_cache.get(key)
        if cached is None:
            if axis == "x":
                cached = tuple(self.node_at(c, y, z) for c in range(self.sx))
            elif axis == "y":
                cached = tuple(self.node_at(x, c, z) for c in range(self.sy))
            else:
                cached = tuple(self.node_at(x, y, c) for c in range(self.sz))
            _line_cache[key] = cached
        return list(cached)


class SubcubeGrid2D:
    """A square 2-D grid Gray-embedded into a *subcube* of a larger machine.

    Berntsen's algorithm runs Cannon inside each of the ``∛p`` subcubes of
    ``p^{2/3}`` processors; this helper lays a ``p^{1/3} × p^{1/3}`` grid on
    such a subcube.  Grid coordinate ``(row, col)`` maps to the subcube
    member whose member-index bits are ``gray(row) << k | gray(col)``, so
    rows and columns are themselves sub-subcubes with dilation-1 rings.
    """

    __slots__ = ("subcube", "side", "_k")

    def __init__(self, subcube: Subcube):
        if subcube.dimension % 2:
            raise TopologyError(
                f"square grid needs an even subcube dimension, got {subcube.dimension}"
            )
        self.subcube = subcube
        self._k = subcube.dimension // 2
        self.side = 1 << self._k

    def node_at(self, row: int, col: int) -> int:
        row %= self.side
        col %= self.side
        return self.subcube.member((gray_code(row) << self._k) | gray_code(col))

    def coords_of(self, node: int) -> tuple[int, int]:
        idx = self.subcube.index_of(node)
        col_bits = idx & ((1 << self._k) - 1)
        row_bits = idx >> self._k
        return gray_code_inverse(row_bits), gray_code_inverse(col_bits)

    def row_members(self, row: int) -> list[int]:
        return [self.node_at(row, c) for c in range(self.side)]

    def col_members(self, col: int) -> list[int]:
        return [self.node_at(r, col) for r in range(self.side)]


class Grid3DEmbedding(Grid3DRectEmbedding):
    """A ``q × q × q`` grid on a ``3k``-cube (``q = 2**k``), Gray-coded per axis.

    The equal-sides member of :class:`Grid3DRectEmbedding` (``node_at``,
    ``coords_of`` and ``line_members`` are its).  Coordinates follow the
    paper's ``p_{i,j,k}`` convention: the first coordinate is ``x``
    (= ``i``), the second ``y`` (= ``j``), the third ``z`` (= ``k``).
    Lines along each axis are subcubes.
    """

    __slots__ = ("side",)

    def __init__(self, cube: Hypercube):
        # Not super().__init__: one divisibility test replaces its three
        # side checks, and every rank of every 3-D algorithm builds one.
        if cube.dimension % 3:
            raise TopologyError(
                f"3-D grid needs a cube dimension divisible by 3, got {cube.dimension}"
            )
        self.cube = cube
        self._kx = self._ky = self._kz = cube.dimension // 3
        self.side = self.sx = self.sy = self.sz = 1 << self._kx

    def _axis_dims(self, axis: str) -> tuple[int, ...]:
        k = self._kx
        if axis == "z":
            return tuple(range(0, k))
        if axis == "y":
            return tuple(range(k, 2 * k))
        if axis == "x":
            return tuple(range(2 * k, 3 * k))
        raise TopologyError(f"axis must be 'x', 'y' or 'z', got {axis!r}")

    def line_subcube(self, axis: str, x: int = 0, y: int = 0, z: int = 0) -> Subcube:
        """Subcube of the grid line along ``axis`` through ``(x, y, z)``."""
        anchor = self.node_at(x, y, z)
        return Subcube(self.cube, self._axis_dims(axis), anchor)

    def plane_members(self, axis: str, value: int) -> list[int]:
        """All nodes with the ``axis`` coordinate fixed to ``value``.

        Ordered lexicographically by the remaining two coordinates.
        """
        q = self.side
        if axis == "x":
            return [self.node_at(value, b, c) for b in range(q) for c in range(q)]
        if axis == "y":
            return [self.node_at(a, value, c) for a in range(q) for c in range(q)]
        if axis == "z":
            return [self.node_at(a, b, value) for a in range(q) for b in range(q)]
        raise TopologyError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
