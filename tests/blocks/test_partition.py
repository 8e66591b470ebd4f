"""Tests for the block grid behind every layout (Figs. 1, 8 and 9).

:class:`BlockGridContract` states what a ``rows × cols`` grid guarantees;
each test class below it runs the contract on one of the paper's five
shapes (``n = 8``, ``q = 2``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blocks import BlockGrid, f_index
from repro.errors import DistributionError

N, Q = 8, 2


def numbered(n):
    return np.arange(float(n * n)).reshape(n, n)


class TestFIndex:
    def test_matches_paper(self):
        # f(i, j) = i * cbrt(p) + j, Fig. 8 with p = 8 (q = 2)
        assert f_index(0, 0, 2) == 0
        assert f_index(0, 1, 2) == 1
        assert f_index(1, 0, 2) == 2
        assert f_index(1, 1, 2) == 3

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 8))
    def test_bijective_over_grid(self, i, j, q):
        if i < q and j < q:
            c = f_index(i, j, q)
            assert (c // q, c % q) == (i, j)


class BlockGridContract:
    """One shape of the grid: ``rows × cols`` blocks of an ``N × N`` matrix."""

    rows: int
    cols: int

    def grid(self, n=N):
        return BlockGrid(n, self.rows, self.cols)

    def indices(self):
        return [(i, j) for i in range(self.rows) for j in range(self.cols)]

    def test_shapes(self):
        assert self.grid().block_shape == (N // self.rows, N // self.cols)

    def test_block_values(self):
        grid, M = self.grid(), numbered(N)
        h, w = grid.block_shape
        for i, j in self.indices():
            block = grid.extract(M, (i, j))
            assert np.array_equal(block, M[i * h:(i + 1) * h, j * w:(j + 1) * w])
            assert block.flags.c_contiguous

    def test_roundtrip(self):
        for n in (N, 2 * N, 3 * N):
            grid, M = self.grid(n), numbered(n)
            blocks = {ix: grid.extract(M, ix) for ix in self.indices()}
            assert np.array_equal(grid.assemble(blocks), M)

    def test_blocks_are_copies(self):
        M = numbered(N)
        self.grid().extract(M, (0, 0))[:] = -1
        assert M[0, 0] == 0.0

    def test_indivisible_rejected(self):
        with pytest.raises(DistributionError):
            self.grid(N + 1)
        with pytest.raises(DistributionError):
            BlockGrid(N, 0, self.cols)

    def test_out_of_range(self):
        grid, M = self.grid(), numbered(N)
        block = np.zeros(grid.block_shape)
        for ix in ((self.rows, 0), (0, self.cols), (-1, 0)):
            with pytest.raises(DistributionError):
                grid.extract(M, ix)
            with pytest.raises(DistributionError):
                grid.assemble({ix: block})

    def test_wrong_shape_on_assemble(self):
        with pytest.raises(DistributionError):
            self.grid().assemble({(0, 0): np.zeros((3, 3))})


class TestBlockPartition2D(BlockGridContract):
    """Figure 1: ``q × q`` square blocks ``M_{ij}``."""

    rows, cols = Q, Q

    @given(st.sampled_from([(4, 2), (8, 2), (8, 4), (16, 4)]))
    def test_roundtrip_many_shapes(self, shape):
        n, q = shape
        grid, M = BlockGrid(n, q, q), numbered(n)
        blocks = {(i, j): grid.extract(M, (i, j)) for i in range(q) for j in range(q)}
        assert np.array_equal(grid.assemble(blocks), M)


class TestColumnGroups(BlockGridContract):
    """Berntsen's and 2-D Diagonal's ``q`` column groups of ``A``."""

    rows, cols = 1, Q


class TestRowGroups(BlockGridContract):
    """Their ``q`` row groups of ``B``."""

    rows, cols = Q, 1


class TestFig8(BlockGridContract):
    """Figure 8: ``q × q²`` blocks ``A_{k, f(i,j)}``."""

    rows, cols = Q, Q * Q


class TestFig9(BlockGridContract):
    """Figure 9: ``q² × q`` blocks ``B_{f(i,j), k}``."""

    rows, cols = Q * Q, Q

    def test_fig8_fig9_transpose_relation(self):
        """Fig. 9 of M^T equals the transpose of Fig. 8 blocks of M."""
        M = numbered(N)
        fig8 = BlockGrid(N, Q, Q * Q)
        fig9 = self.grid()
        for k in range(Q):
            for c in range(Q * Q):
                assert np.array_equal(
                    fig9.extract(M.T, (c, k)), fig8.extract(M, (k, c)).T
                )

    def test_row_group_identity(self):
        """Row group j of Fig-8 block (m, f(i,l)) = Fig-9 block (f(m,j), ...).

        The identity underpinning 3D All's proof of correctness: stacking
        the j-th row groups of blocks A_{m, f(i, 0..q-1)} horizontally
        yields the Fig. 9 block A_{f(m,j), i}.
        """
        M = numbered(N)
        fig8 = BlockGrid(N, Q, Q * Q)
        fig9 = self.grid()
        for m in range(Q):
            for j in range(Q):
                for i in range(Q):
                    parts = []
                    for l in range(Q):
                        block = fig8.extract(M, (m, f_index(i, l, Q)))
                        rows = np.array_split(block, Q, axis=0)
                        parts.append(rows[j])
                    assert np.array_equal(
                        np.hstack(parts), fig9.extract(M, (f_index(m, j, Q), i))
                    )
