"""The 2-D Diagonal algorithm (§4.1.1, Algorithm 2).

On a ``q × q`` grid (``q = √p``) only the diagonal processors ``p_{j,j}``
hold data initially: the ``j``-th column group of ``A`` (``n × n/q``) and
the ``j``-th row group of ``B`` (``n/q × n``).  Column ``j`` of processors
computes the outer product ``A_j · B_j``:

1. ``p_{j,j}`` *scatters* ``B_j`` by column groups along the x-direction
   (processor ``p_{i,j}`` receives the ``n/q × n/q`` piece ``B_j^{(i)}``)
   and *broadcasts* ``A_j`` along the same direction — concurrently, so a
   multi-port machine overlaps them.
2. Every processor computes ``I_{ij} = A_j · B_j^{(i)}`` (an ``n × n/q``
   slab — everyone does the same ``2n³/p`` flops).
3. All-to-one reduction along the y-direction sums ``C[:, group i] =
   Σ_j I_{ij}`` onto the diagonal processor ``p_{i,i}``, so ``C`` ends up
   aligned exactly like ``A`` was.

This is the paper's stepping stone to the 3-D Diagonal algorithm; it is
presented for exposition (it needs ``n²/√p`` words per processor).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import GridView2D, TAG_A, TAG_B, TAG_C, require_square_grid
from repro.blocks.partition import BlockGrid
from repro.collectives import broadcast, reduce, scatter
from repro.collectives.chunking import chunk_slices
from repro.errors import AlgorithmError
from repro.topology.embedding import Grid2DEmbedding
from repro.topology.hypercube import Hypercube

__all__ = ["Diagonal2DAlgorithm"]


class Diagonal2DAlgorithm(MatmulAlgorithm):
    """The 2-D Diagonal stepping-stone algorithm (see module doc)."""

    key = "diagonal2d"
    name = "2-D Diagonal"
    paper_section = "4.1.1"

    def check_applicable(self, n: int, p: int) -> None:
        require_square_grid(n, p, self.name)

    def placement(self, n: int, cube: Hypercube):
        # p_{j,j} holds column group j of A and row group j of B, and ends
        # with column group j of C.
        grid = Grid2DEmbedding.square(cube)
        q = grid.rows
        columns = BlockGrid(n, 1, q)
        return columns, BlockGrid(n, q, 1), columns, [
            (grid.node_at(j, j), (0, j), (j, 0), (0, j)) for j in range(q)
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView2D.create(ctx)
        q = view.q
        i, j = view.row, view.col  # I am p_{i,j}
        on_diagonal = i == j

        # -- phase 1: scatter B pieces and broadcast A along the column -------
        # col_comm members are ordered by row coordinate; the root is the
        # diagonal member, comm rank j.
        ctx.phase("distribute")
        b_pieces = None
        a_group = local.get("A")
        if on_diagonal:
            b_block = local["B"]
            b_pieces = [
                np.ascontiguousarray(b_block[:, cols])
                for cols in chunk_slices(b_block.shape[1], q)
            ]
        my_b_piece, a_group = yield from ctx.parallel(
            scatter(view.col_comm, b_pieces, root=j, tag=TAG_B),
            broadcast(view.col_comm, a_group, root=j, tag=TAG_A),
        )
        ctx.note_memory(a_group.size + my_b_piece.size + a_group.shape[0] * my_b_piece.shape[1])

        # -- phase 2: local outer-product slab --------------------------------
        ctx.phase("compute")
        partial = yield from ctx.local_matmul(a_group, my_b_piece)

        # -- phase 3: reduce along the row onto the diagonal ------------------
        ctx.phase("reduce")
        c_group = yield from reduce(view.row_comm, partial, root=i, tag=TAG_C)
        if on_diagonal:
            if c_group is None:
                raise AlgorithmError(f"diagonal node p_{i},{j} got no C group")
            return c_group
        return None
