"""Tests for the matrix block partitions (Figs. 1, 8 and 9)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blocks import (
    BlockPartition2D,
    ColumnGroups,
    PartitionFig8,
    PartitionFig9,
    RowGroups,
    f_index,
)
from repro.errors import DistributionError


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


class TestBlockPartition2D:
    def test_block_values(self):
        part = BlockPartition2D(4, 2)
        assert part.block_shape == (2, 2)
        M = numbered(4)
        assert np.array_equal(part.extract(M, 0, 0), [[0, 1], [4, 5]])
        assert np.array_equal(part.extract(M, 1, 1), [[10, 11], [14, 15]])

    def test_roundtrip(self):
        part = BlockPartition2D(8, 4)
        M = numbered(8)
        blocks = {
            (i, j): part.extract(M, i, j) for i in range(4) for j in range(4)
        }
        assert np.array_equal(part.assemble(blocks), M)

    def test_indivisible_rejected(self):
        with pytest.raises(DistributionError):
            BlockPartition2D(10, 4)

    def test_out_of_range_rejected(self):
        part = BlockPartition2D(4, 2)
        with pytest.raises(DistributionError):
            part.extract(numbered(4), 2, 0)

    def test_wrong_shape_on_assemble(self):
        part = BlockPartition2D(4, 2)
        with pytest.raises(DistributionError):
            part.assemble({(0, 0): np.zeros((3, 3))})

    def test_blocks_are_copies(self):
        part = BlockPartition2D(4, 2)
        M = numbered(4)
        blk = part.extract(M, 0, 0)
        blk[:] = -1
        assert M[0, 0] == 0.0

    @given(st.sampled_from([(4, 2), (8, 2), (8, 4), (16, 4)]))
    def test_roundtrip_many_shapes(self, shape):
        n, q = shape
        part = BlockPartition2D(n, q)
        M = numbered(n)
        blocks = {(i, j): part.extract(M, i, j) for i in range(q) for j in range(q)}
        assert np.array_equal(part.assemble(blocks), M)


class TestGroups:
    def test_column_group_values(self):
        groups = ColumnGroups(4, 2)
        M = numbered(4)
        assert np.array_equal(groups.extract(M, 1), M[:, 2:])

    def test_row_group_values(self):
        groups = RowGroups(4, 2)
        M = numbered(4)
        assert np.array_equal(groups.extract(M, 0), M[:2, :])

    def test_roundtrips(self):
        M = numbered(8)
        cols = ColumnGroups(8, 4)
        rows = RowGroups(8, 2)
        assert np.array_equal(
            cols.assemble({j: cols.extract(M, j) for j in range(4)}), M
        )
        assert np.array_equal(
            rows.assemble({i: rows.extract(M, i) for i in range(2)}), M
        )

    def test_bad_group_count(self):
        with pytest.raises(DistributionError):
            ColumnGroups(8, 3)
        with pytest.raises(DistributionError):
            RowGroups(8, 0)

    def test_out_of_range(self):
        with pytest.raises(DistributionError):
            ColumnGroups(8, 4).extract(numbered(8), 4)
        with pytest.raises(DistributionError):
            RowGroups(8, 4).extract(numbered(8), -1)


class TestFig8:
    def test_shapes(self):
        part = PartitionFig8(8, 2)  # q=2: 2 row blocks x 4 col blocks
        assert part.block_shape == (4, 2)

    def test_block_values(self):
        part = PartitionFig8(8, 2)
        M = numbered(8)
        assert np.array_equal(part.extract(M, 0, 0), M[:4, :2])
        assert np.array_equal(part.extract(M, 1, 3), M[4:, 6:])

    def test_roundtrip(self):
        part = PartitionFig8(8, 2)
        M = numbered(8)
        blocks = {
            (k, c): part.extract(M, k, c) for k in range(2) for c in range(4)
        }
        assert np.array_equal(part.assemble(blocks), M)

    def test_indivisible_rejected(self):
        with pytest.raises(DistributionError):
            PartitionFig8(6, 2)  # 6 % 4 != 0

    def test_out_of_range(self):
        part = PartitionFig8(8, 2)
        with pytest.raises(DistributionError):
            part.extract(numbered(8), 2, 0)
        with pytest.raises(DistributionError):
            part.extract(numbered(8), 0, 4)


class TestFig9:
    def test_shapes(self):
        part = PartitionFig9(8, 2)  # q=2: 4 row blocks x 2 col blocks
        assert part.block_shape == (2, 4)

    def test_block_values(self):
        part = PartitionFig9(8, 2)
        M = numbered(8)
        assert np.array_equal(part.extract(M, 0, 0), M[:2, :4])
        assert np.array_equal(part.extract(M, 3, 1), M[6:, 4:])

    def test_roundtrip(self):
        part = PartitionFig9(8, 2)
        M = numbered(8)
        blocks = {
            (r, k): part.extract(M, r, k) for r in range(4) for k in range(2)
        }
        assert np.array_equal(part.assemble(blocks), M)

    def test_fig8_fig9_transpose_relation(self):
        """Fig. 9 of M^T equals the transpose of Fig. 8 blocks of M."""
        n, q = 8, 2
        M = numbered(n)
        fig8 = PartitionFig8(n, q)
        fig9 = PartitionFig9(n, q)
        for k in range(q):
            for c in range(q * q):
                assert np.array_equal(
                    fig9.extract(M.T, c, k), fig8.extract(M, k, c).T
                )

    def test_row_group_identity(self):
        """Row group j of Fig-8 block (m, f(i,l)) = Fig-9 block (f(m,j), ...).

        The identity underpinning 3D All's proof of correctness: stacking
        the j-th row groups of blocks A_{m, f(i, 0..q-1)} horizontally
        yields the Fig. 9 block A_{f(m,j), i}.
        """
        n, q = 8, 2
        M = numbered(n)
        fig8 = PartitionFig8(n, q)
        fig9 = PartitionFig9(n, q)
        for m in range(q):
            for j in range(q):
                for i in range(q):
                    parts = []
                    for l in range(q):
                        block = fig8.extract(M, m, f_index(i, l, q))
                        rows = np.array_split(block, q, axis=0)
                        parts.append(rows[j])
                    assert np.array_equal(
                        np.hstack(parts), fig9.extract(M, f_index(m, j, q), i)
                    )
