"""Exhaustive checks of the shared tables behind every Gray-code embedding.

For every cube dimension 0…14 and every shape on it (2-D ``rows × cols``
splits, 3-D rectangular splits, the cubic 3-D grid, the ring) and for
``SubcubeGrid2D`` on every even subcube of a 6-cube:

* ``node_at`` with wrapped coordinates equals the ``gray_code`` definition;
* ``coords_of`` equals the ``gray_code_inverse`` definition, and a node
  outside the machine still raises :class:`TopologyError`;
* every row, column and line equals the definition and is a member list
  :class:`Comm` accepts.

Grids are shared per machine shape and cache their lines, so a caller that
mutates the list it was handed must not change the next caller's answer.

One cut: above dimension 10 the 3-D rectangular splits are the
``q1 × q2 × q1`` ones :class:`~repro.algorithms.all3d_rect.All3DRectAlgorithm`
builds, not all of them.  A split with a short side has ``p`` lines of one
or two nodes: every split of dimensions 11–14 takes about a minute on a
2-vCPU host, this file about ten seconds.  Each test drops the grids and
communicator structures it built, which would otherwise hold some 300 MB
for the rest of the session.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.mpi.communicator import Comm, _subcube_structure
from repro.topology.embedding import (
    Grid2DEmbedding,
    Grid3DEmbedding,
    Grid3DRectEmbedding,
    RingEmbedding,
    SubcubeGrid2D,
)
from repro.topology.hypercube import Hypercube, subcube_layout, subcube_tables
from repro.util.bits import gray_code, gray_code_inverse

MAX_DIM = 14
#: every 3-D rectangular split up to this dimension (see the module doc)
ALL_3D_SPLITS = 10
_GRAY = [np.array([gray_code(i) for i in range(1 << k)]) for k in range(MAX_DIM + 1)]
_INVERSE = np.array([gray_code_inverse(g) for g in range(1 << MAX_DIM)])


@pytest.fixture(autouse=True)
def _drop_shared_tables():
    yield
    for memo in (
        Grid2DEmbedding.__new__, Grid2DEmbedding.square,
        Grid3DRectEmbedding.__new__, Grid3DEmbedding.__new__, _subcube_structure,
        subcube_layout, subcube_tables,
    ):
        memo.cache_clear()


def _comm_accepts(lines):
    for line in lines:
        Comm(SimpleNamespace(rank=line[-1]), line)


def _out_of_range(coords_of, p):
    for node in (-1, p, p + 5):
        with pytest.raises(TopologyError):
            coords_of(node)


def _check_lines(members, lines, expected):
    """``members(*fixed)`` for every tuple of fixed coordinates in
    ``lines`` against the rows of ``expected``; then mutate every answer
    and ask again."""
    got = [members(*fixed) for fixed in lines]
    assert got == expected.tolist()
    _comm_accepts(got)
    for line in got:
        line.append(-1)
        line[0] = -1
    assert [members(*fixed) for fixed in lines] == expected.tolist()


@pytest.mark.parametrize("dim", range(MAX_DIM + 1))
def test_ring(dim):
    cube = Hypercube(dim)
    ring = RingEmbedding(cube)
    p = 1 << dim
    assert [ring.node_at(i - p) for i in range(p)] == _GRAY[dim].tolist()
    assert [ring.position_of(g) for g in range(p)] == _INVERSE[:p].tolist()
    _out_of_range(ring.position_of, p)


@pytest.mark.parametrize("dim", range(MAX_DIM + 1))
def test_every_2d_split(dim):
    cube = Hypercube(dim)
    p = 1 << dim
    for kr in range(dim + 1):
        kc = dim - kr
        rows, cols = 1 << kr, 1 << kc
        grid = Grid2DEmbedding(cube, rows, cols)
        expected = _GRAY[kr][:, None] << kc | _GRAY[kc][None, :]
        got = [grid.node_at(r + rows, c - 2 * cols)
               for r in range(rows) for c in range(cols)]
        assert got == expected.ravel().tolist()
        nodes = np.arange(p)
        want = zip(_INVERSE[nodes >> kc].tolist(), _INVERSE[nodes & cols - 1].tolist())
        assert [grid.coords_of(n) for n in range(p)] == list(want)
        _out_of_range(grid.coords_of, p)
        _check_lines(grid.row_members, [(r,) for r in range(rows)], expected)
        _check_lines(grid.col_members, [(c,) for c in range(cols)], expected.T)
        if kr == kc:
            assert Grid2DEmbedding.square(cube) is grid


def _check_3d(grid, dim, kx, ky, kz):
    sx, sy, sz = 1 << kx, 1 << ky, 1 << kz
    p = 1 << dim
    expected = (
        _GRAY[kx][:, None, None] << ky + kz
        | _GRAY[ky][None, :, None] << kz
        | _GRAY[kz][None, None, :]
    )
    got = [grid.node_at(x - sx, y + sy, z + 3 * sz)
           for x in range(sx) for y in range(sy) for z in range(sz)]
    assert got == expected.ravel().tolist()
    nodes = np.arange(p)
    want = zip(
        _INVERSE[nodes >> ky + kz].tolist(),
        _INVERSE[nodes >> kz & sy - 1].tolist(),
        _INVERSE[nodes & sz - 1].tolist(),
    )
    assert [grid.coords_of(n) for n in range(p)] == list(want)
    _out_of_range(grid.coords_of, p)
    line = grid.line_members
    _check_lines(
        lambda y, z: line("x", 0, y, z),
        [(y, z) for y in range(sy) for z in range(sz)],
        expected.transpose(1, 2, 0).reshape(-1, sx),
    )
    _check_lines(
        lambda x, z: line("y", x, 0, z),
        [(x, z) for x in range(sx) for z in range(sz)],
        expected.transpose(0, 2, 1).reshape(-1, sy),
    )
    _check_lines(
        lambda x, y: line("z", x, y, 0),
        [(x, y) for x in range(sx) for y in range(sy)],
        expected.reshape(-1, sz),
    )


def _3d_splits(dim):
    for kx in range(dim + 1):
        for ky in range(dim - kx + 1):
            kz = dim - kx - ky
            if dim <= ALL_3D_SPLITS or kx == kz >= 1:
                yield kx, ky, kz


@pytest.mark.parametrize("dim", range(MAX_DIM + 1))
def test_every_3d_split(dim):
    cube = Hypercube(dim)
    for kx, ky, kz in _3d_splits(dim):
        grid = Grid3DRectEmbedding(cube, 1 << kx, 1 << ky, 1 << kz)
        _check_3d(grid, dim, kx, ky, kz)


@pytest.mark.parametrize("dim", range(0, MAX_DIM + 1, 3))
def test_cubic_3d_grid(dim):
    grid = Grid3DEmbedding(Hypercube(dim))
    k = dim // 3
    assert grid.side == 1 << k
    assert grid is Grid3DEmbedding(Hypercube(dim))
    _check_3d(grid, dim, k, k, k)


def _even_subcubes(cube):
    dim = cube.dimension
    for mask in range(1 << dim):
        free = tuple(d for d in range(dim) if mask >> d & 1)
        if len(free) % 2 == 0:
            for anchor in range(1 << dim):
                if anchor & mask == 0:
                    yield cube.subcube(free, anchor)


def test_subcube_grids_of_a_6_cube():
    cube = Hypercube(6)
    seen = 0
    for sub in _even_subcubes(cube):
        grid = SubcubeGrid2D(sub)
        k = sub.dimension // 2
        side = 1 << k
        indices = _GRAY[k][:, None] << k | _GRAY[k][None, :]
        expected = np.array([sub.member(i) for i in indices.ravel().tolist()])
        expected = expected.reshape(side, side)
        got = [grid.node_at(r - side, c + side)
               for r in range(side) for c in range(side)]
        assert got == expected.ravel().tolist()
        for node in sub.members():
            idx = sub.index_of(node)
            assert grid.coords_of(node) == (
                gray_code_inverse(idx >> k), gray_code_inverse(idx & side - 1)
            )
        _comm_accepts([tuple(row) for row in expected.tolist()])
        _comm_accepts([tuple(col) for col in expected.T.tolist()])
        for node in range(-1, 65):
            if not sub.contains(node):
                with pytest.raises(TopologyError):
                    grid.coords_of(node)
        seen += 1
    # C(6,0)·64 + C(6,2)·16 + C(6,4)·4 + C(6,6)·1
    assert seen == 365
