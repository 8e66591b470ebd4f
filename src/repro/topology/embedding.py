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

import functools
from itertools import combinations
from typing import Callable, Iterable

from repro.errors import TopologyError
from repro.topology.hypercube import Hypercube, Subcube
from repro.util.bits import ilog2, is_power_of_two

__all__ = [
    "RingEmbedding",
    "Grid2DEmbedding",
    "Grid3DEmbedding",
    "Grid3DRectEmbedding",
    "SubcubeGrid2D",
    "largest_live_subcube",
]

# Per-rank set-up reads shared tables.  A grid embedding is immutable and a
# pure function of its arguments, so each grid class builds one instance per
# distinct argument tuple in a cached ``__new__`` (as ``Hypercube`` does per
# dimension, so a cube key matches by identity), and every rank of every
# run on that machine shape shares it.  Each instance caches its rows, columns or lines as
# tuples in ``_lines`` the first time a rank asks (p·3 asks for p·3/q
# distinct lines on a 3-D grid); the public ``*_members`` methods return
# fresh lists, internal callers read the tuples.  Grid coordinate ``x`` maps
# to ``x ^ x >> 1`` (``gray_code``) inline, and back through a per-width
# ``_gray_inverse`` table (``gray_code_inverse``).


@functools.cache
def _gray_inverse(bits: int) -> tuple[int, ...]:
    """``gray_code_inverse(g)`` at index ``g``, for every ``bits``-bit ``g``."""
    inverse = [0] * (1 << bits)
    for i in range(1 << bits):
        inverse[i ^ i >> 1] = i
    return tuple(inverse)


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
        position %= self.length
        return position ^ position >> 1

    def position_of(self, node: int) -> int:
        self.cube._check_node(node)
        return _gray_inverse(self._k)[node]

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

    __slots__ = ("cube", "rows", "cols", "_kr", "_kc", "_inverse", "_lines")

    @staticmethod
    @functools.cache
    def __new__(cls, cube: Hypercube, rows: int, cols: int) -> "Grid2DEmbedding":
        kr = _check_side(rows, "grid row")
        kc = _check_side(cols, "grid column")
        if kr + kc != cube.dimension:
            raise TopologyError(
                f"{rows}x{cols} grid does not tile a {cube.num_nodes}-node cube"
            )
        grid = object.__new__(cls)
        grid.cube, grid.rows, grid.cols, grid._kr, grid._kc = cube, rows, cols, kr, kc
        grid._inverse = _gray_inverse(max(kr, kc))
        grid._lines = {}
        return grid

    @classmethod
    @functools.cache
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
        return (row ^ row >> 1) << self._kc | col ^ col >> 1

    def coords_of(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.rows << self._kc:
            self.cube._check_node(node)
        inverse = self._inverse
        return inverse[node >> self._kc], inverse[node & (self.cols - 1)]

    def row_subcube(self, row: int) -> Subcube:
        """The subcube holding grid row ``row`` (column coordinate free)."""
        anchor = self.node_at(row, 0)
        return Subcube(self.cube, tuple(range(self._kc)), anchor)

    def col_subcube(self, col: int) -> Subcube:
        """The subcube holding grid column ``col`` (row coordinate free)."""
        anchor = self.node_at(0, col)
        return Subcube(self.cube, tuple(range(self._kc, self._kc + self._kr)), anchor)

    def _row(self, row: int) -> tuple[int, ...]:
        key = ("row", row % self.rows)
        line = self._lines.get(key)
        if line is None:
            line = self._lines[key] = tuple(self.node_at(row, c) for c in range(self.cols))
        return line

    def _col(self, col: int) -> tuple[int, ...]:
        key = ("col", col % self.cols)
        line = self._lines.get(key)
        if line is None:
            line = self._lines[key] = tuple(self.node_at(r, col) for r in range(self.rows))
        return line

    def row_members(self, row: int) -> list[int]:
        """Cube nodes of row ``row`` ordered by column coordinate."""
        return list(self._row(row))

    def col_members(self, col: int) -> list[int]:
        return list(self._col(col))


class Grid3DRectEmbedding:
    """A rectangular ``sx × sy × sz`` grid on a hypercube, Gray-coded per axis.

    Power-of-two sides that need not be equal (:class:`Grid3DEmbedding` is
    the member whose are) — needed by the rectangular 3D All variant
    sketched at the end of §4.2.2, which trades the cubic ``∛p³`` grid for
    ``∜p × √p × ∜p`` to reach more processors.  Axis order matches the
    paper's ``p_{i,j,k}``: ``(x, y, z)``.
    """

    __slots__ = ("cube", "sx", "sy", "sz", "_kx", "_ky", "_kz", "_inverse", "_lines")

    @staticmethod
    @functools.cache
    def __new__(cls, cube: Hypercube, sx: int, sy: int, sz: int) -> "Grid3DRectEmbedding":
        kx = _check_side(sx, "grid x")
        ky = _check_side(sy, "grid y")
        kz = _check_side(sz, "grid z")
        if kx + ky + kz != cube.dimension:
            raise TopologyError(
                f"{sx}x{sy}x{sz} grid does not tile a {cube.num_nodes}-node cube"
            )
        grid = object.__new__(cls)
        grid.cube, grid.sx, grid.sy, grid.sz = cube, sx, sy, sz
        grid._kx, grid._ky, grid._kz = kx, ky, kz
        grid._inverse = _gray_inverse(max(kx, ky, kz))
        grid._lines = {}
        return grid

    def node_at(self, x: int, y: int, z: int) -> int:
        x %= self.sx
        y %= self.sy
        z %= self.sz
        return (
            (x ^ x >> 1) << (self._ky + self._kz)
            | (y ^ y >> 1) << self._kz
            | z ^ z >> 1
        )

    def coords_of(self, node: int) -> tuple[int, int, int]:
        if not 0 <= node < self.sx << (self._ky + self._kz):
            self.cube._check_node(node)
        inverse = self._inverse
        return (
            inverse[node >> (self._ky + self._kz)],
            inverse[node >> self._kz & (self.sy - 1)],
            inverse[node & (self.sz - 1)],
        )

    def _line(self, axis: str, x: int, y: int, z: int) -> tuple[int, ...]:
        if axis == "x":
            key = ("x", y % self.sy, z % self.sz)
        elif axis == "y":
            key = ("y", x % self.sx, z % self.sz)
        elif axis == "z":
            key = ("z", x % self.sx, y % self.sy)
        else:
            raise TopologyError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
        line = self._lines.get(key)
        if line is None:
            if axis == "x":
                line = tuple(self.node_at(c, y, z) for c in range(self.sx))
            elif axis == "y":
                line = tuple(self.node_at(x, c, z) for c in range(self.sy))
            else:
                line = tuple(self.node_at(x, y, c) for c in range(self.sz))
            self._lines[key] = line
        return line

    def line_members(self, axis: str, x: int = 0, y: int = 0, z: int = 0) -> list[int]:
        """Cube nodes along ``axis``, ordered by that grid coordinate."""
        return list(self._line(axis, x, y, z))


class SubcubeGrid2D:
    """A square 2-D grid Gray-embedded into a *subcube* of a larger machine.

    Berntsen's algorithm runs Cannon inside each of the ``∛p`` subcubes of
    ``p^{2/3}`` processors; this helper lays a ``p^{1/3} × p^{1/3}`` grid on
    such a subcube.  Grid coordinate ``(row, col)`` maps to the subcube
    member whose member-index bits are ``gray(row) << k | gray(col)``, so
    rows and columns are themselves sub-subcubes with dilation-1 rings.
    """

    __slots__ = ("subcube", "side", "_k", "_inverse")

    def __init__(self, subcube: Subcube):
        if subcube.dimension % 2:
            raise TopologyError(
                f"square grid needs an even subcube dimension, got {subcube.dimension}"
            )
        self.subcube = subcube
        self._k = subcube.dimension // 2
        self.side = 1 << self._k
        self._inverse = _gray_inverse(self._k)

    def node_at(self, row: int, col: int) -> int:
        row %= self.side
        col %= self.side
        return self.subcube.member((row ^ row >> 1) << self._k | col ^ col >> 1)

    def coords_of(self, node: int) -> tuple[int, int]:
        idx = self.subcube.index_of(node)
        return self._inverse[idx >> self._k], self._inverse[idx & (self.side - 1)]


class Grid3DEmbedding(Grid3DRectEmbedding):
    """A ``q × q × q`` grid on a ``3k``-cube (``q = 2**k``), Gray-coded per axis.

    The equal-sides member of :class:`Grid3DRectEmbedding` (``node_at``,
    ``coords_of`` and ``line_members`` are its).  Coordinates follow the
    paper's ``p_{i,j,k}`` convention: the first coordinate is ``x``
    (= ``i``), the second ``y`` (= ``j``), the third ``z`` (= ``k``).
    Lines along each axis are subcubes.
    """

    __slots__ = ("side",)

    @staticmethod
    @functools.cache
    def __new__(cls, cube: Hypercube) -> "Grid3DEmbedding":
        if cube.dimension % 3:
            raise TopologyError(
                f"3-D grid needs a cube dimension divisible by 3, got {cube.dimension}"
            )
        q = 1 << cube.dimension // 3
        grid = Grid3DRectEmbedding.__new__(cls, cube, q, q, q)
        grid.side = q
        return grid

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
