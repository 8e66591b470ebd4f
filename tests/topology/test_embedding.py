"""Tests for Gray-code ring/grid embeddings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.embedding import (
    Grid2DEmbedding,
    Grid3DEmbedding,
    Grid3DRectEmbedding,
    RingEmbedding,
    SubcubeGrid2D,
)
from repro.topology.hypercube import Hypercube


class TestRing:
    def test_positions_cover_cube(self):
        ring = RingEmbedding(Hypercube(3))
        assert sorted(ring.node_at(i) for i in range(8)) == list(range(8))

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_adjacent_positions_are_neighbors(self, d, data):
        cube = Hypercube(d)
        ring = RingEmbedding(cube)
        pos = data.draw(st.integers(min_value=0, max_value=ring.length - 1))
        assert cube.are_neighbors(ring.node_at(pos), ring.node_at(pos + 1))

    def test_position_roundtrip(self):
        ring = RingEmbedding(Hypercube(4))
        for pos in range(16):
            assert ring.position_of(ring.node_at(pos)) == pos

    def test_shift_wraps(self):
        ring = RingEmbedding(Hypercube(3))
        assert ring.shift(7, 1) == ring.node_at(0)
        assert ring.shift(0, -1) == ring.node_at(7)


class TestGrid2D:
    def test_square_needs_even_dimension(self):
        with pytest.raises(TopologyError):
            Grid2DEmbedding.square(Hypercube(3))

    def test_shape_must_tile_cube(self):
        with pytest.raises(TopologyError):
            Grid2DEmbedding(Hypercube(4), 2, 4)
        with pytest.raises(TopologyError):
            Grid2DEmbedding(Hypercube(4), 4, 8)

    def test_nonpow2_side_rejected(self):
        with pytest.raises(TopologyError):
            Grid2DEmbedding(Hypercube(4), 3, 4)

    def test_coords_roundtrip(self):
        grid = Grid2DEmbedding.square(Hypercube(6))
        seen = set()
        for r in range(8):
            for c in range(8):
                node = grid.node_at(r, c)
                assert grid.coords_of(node) == (r, c)
                seen.add(node)
        assert seen == set(range(64))

    def test_rectangular_grid(self):
        grid = Grid2DEmbedding(Hypercube(5), 4, 8)
        assert grid.rows == 4 and grid.cols == 8
        nodes = {grid.node_at(r, c) for r in range(4) for c in range(8)}
        assert nodes == set(range(32))

    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_grid_neighbors_are_cube_neighbors(self, k, data):
        cube = Hypercube(2 * k)
        grid = Grid2DEmbedding.square(cube)
        q = grid.rows
        r = data.draw(st.integers(min_value=0, max_value=q - 1))
        c = data.draw(st.integers(min_value=0, max_value=q - 1))
        node = grid.node_at(r, c)
        # ring neighbours along both axes (wrapping)
        assert cube.are_neighbors(node, grid.node_at(r, c + 1)) or q == 2
        assert cube.are_neighbors(node, grid.node_at(r + 1, c)) or q == 2
        if q > 2:
            assert cube.are_neighbors(node, grid.node_at(r, c - 1))
            assert cube.are_neighbors(node, grid.node_at(r - 1, c))

    def test_row_members_form_subcube(self):
        grid = Grid2DEmbedding.square(Hypercube(6))
        for r in range(8):
            sub = grid.row_subcube(r)
            assert sorted(sub.members()) == sorted(grid.row_members(r))

    def test_col_members_form_subcube(self):
        grid = Grid2DEmbedding.square(Hypercube(6))
        for c in range(8):
            sub = grid.col_subcube(c)
            assert sorted(sub.members()) == sorted(grid.col_members(c))

    def test_rows_partition_cube(self):
        grid = Grid2DEmbedding.square(Hypercube(4))
        nodes = sorted(n for r in range(4) for n in grid.row_members(r))
        assert nodes == list(range(16))


class TestGrid3D:
    def test_requires_dimension_divisible_by_3(self):
        with pytest.raises(TopologyError):
            Grid3DEmbedding(Hypercube(4))

    @pytest.mark.parametrize("dim", [3, 6, 9])
    def test_is_the_equal_sides_rectangular_grid(self, dim):
        cube = Hypercube(dim)
        grid = Grid3DEmbedding(cube)
        q = grid.side
        rect = Grid3DRectEmbedding(cube, q, q, q)
        assert (grid.sx, grid.sy, grid.sz) == (q, q, q) and q ** 3 == cube.num_nodes
        for node in range(cube.num_nodes):
            x, y, z = rect.coords_of(node)
            assert grid.coords_of(node) == (x, y, z)
            assert grid.node_at(x, y, z) == rect.node_at(x, y, z) == node
        for axis in "xyz":
            assert grid.line_members(axis, 1, 0, 1) == rect.line_members(axis, 1, 0, 1)

    def test_coords_roundtrip(self):
        grid = Grid3DEmbedding(Hypercube(6))
        seen = set()
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    node = grid.node_at(x, y, z)
                    assert grid.coords_of(node) == (x, y, z)
                    seen.add(node)
        assert seen == set(range(64))

    def test_line_members_are_subcubes(self):
        grid = Grid3DEmbedding(Hypercube(6))
        for axis in "xyz":
            sub = grid.line_subcube(axis, 1, 2, 3)
            members = grid.line_members(axis, 1, 2, 3)
            assert sorted(sub.members()) == sorted(members)
            assert len(members) == 4

    def test_line_ordering_matches_coordinate(self):
        grid = Grid3DEmbedding(Hypercube(6))
        members = grid.line_members("y", 2, 0, 3)
        for y, node in enumerate(members):
            assert grid.coords_of(node) == (2, y, 3)

    def test_axis_lines_are_rings(self):
        cube = Hypercube(9)
        grid = Grid3DEmbedding(cube)
        members = grid.line_members("z", 3, 5, 0)
        for a, b in zip(members, members[1:] + [members[0]]):
            assert cube.are_neighbors(a, b)

    def test_plane_members(self):
        grid = Grid3DEmbedding(Hypercube(6))
        plane = grid.plane_members("z", 2)
        assert len(plane) == 16
        assert all(grid.coords_of(n)[2] == 2 for n in plane)

    def test_bad_axis(self):
        grid = Grid3DEmbedding(Hypercube(3))
        with pytest.raises(TopologyError):
            grid.line_members("w", 0, 0, 0)
        with pytest.raises(TopologyError):
            grid.plane_members("w", 0)
        with pytest.raises(TopologyError):
            grid.line_subcube("w")


class TestSubcubeGrid2D:
    def test_layout_within_subcube(self):
        cube = Hypercube(6)
        subs = cube.split([4, 5])
        grid = SubcubeGrid2D(subs[2])
        nodes = {grid.node_at(r, c) for r in range(4) for c in range(4)}
        assert nodes == set(subs[2].members())

    def test_coords_roundtrip(self):
        cube = Hypercube(6)
        grid = SubcubeGrid2D(cube.split([4, 5])[1])
        for r in range(4):
            for c in range(4):
                assert grid.coords_of(grid.node_at(r, c)) == (r, c)

    def test_ring_adjacency_within_subcube(self):
        cube = Hypercube(6)
        grid = SubcubeGrid2D(cube.split([4, 5])[3])
        for r in range(4):
            for c in range(4):
                assert cube.are_neighbors(
                    grid.node_at(r, c), grid.node_at(r, c + 1)
                )
                assert cube.are_neighbors(
                    grid.node_at(r, c), grid.node_at(r + 1, c)
                )

    def test_odd_subcube_dimension_rejected(self):
        cube = Hypercube(3)
        with pytest.raises(TopologyError):
            SubcubeGrid2D(cube.split([2])[0].parent.subcube((0, 1, 2), 0))
