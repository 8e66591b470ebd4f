"""Fox-Otto-Hey algorithm ([4] in the paper's references; baseline).

The paper's §1 lists Fox, Otto and Hey's "Matrix algorithms on a hypercube
I" among the prior distributed matmul algorithms but does not carry it
into Table 2 (Cannon dominates it on hypercubes).  Implemented here as a
baseline: broadcast-multiply-roll on the ``√p × √p`` grid.

At step ``k`` (``k = 0 … √p-1``):

1. in every row ``i``, the processor holding ``A_{i, i+k}`` (column
   ``(i + k) mod √p``) broadcasts it across the row,
2. every processor multiplies the broadcast block with its current ``B``
   block and accumulates,
3. ``B`` blocks roll up one position along the columns.

Per step this costs a one-to-all broadcast (``log √p`` start-ups) plus a
unit shift, so Fox pays ``O(√p·log √p)`` start-ups against Cannon's
``O(√p)`` — the reason the paper's lineup skips it; the relation is pinned
in ``tests/algorithms/test_fox.py``.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import GridView2D, TAG_A, TAG_B, require_square_grid
from repro.blocks.partition import BlockPartition2D
from repro.collectives import broadcast
from repro.topology.embedding import Grid2DEmbedding
from repro.topology.hypercube import Hypercube

__all__ = ["FoxAlgorithm"]


class FoxAlgorithm(MatmulAlgorithm):
    """Fox-Otto-Hey broadcast-multiply-roll baseline (see module doc)."""

    key = "fox"
    name = "Fox-Otto-Hey"
    paper_section = "1 (reference [4])"

    def check_applicable(self, n: int, p: int) -> None:
        require_square_grid(n, p, self.name)

    def distribute_inputs(self, A, B, cube: Hypercube):
        grid = Grid2DEmbedding.square(cube)
        part = BlockPartition2D(A.shape[0], grid.rows)
        return {
            grid.node_at(i, j): {
                "A": part.extract(A, i, j),
                "B": part.extract(B, i, j),
            }
            for i in range(grid.rows)
            for j in range(grid.cols)
        }

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView2D.create(ctx)
        q = view.q
        i, j = view.row, view.col
        a_block, b_block = local["A"], local["B"]
        ctx.note_memory(4 * a_block.size)  # A, roaming A, B, C

        up = view.grid.node_at(i - 1, j)
        down = view.grid.node_at(i + 1, j)

        ctx.phase("fox")
        c_block = None
        for k in range(q):
            # 1. broadcast A_{i, i+k} across row i from its holder.
            root = (i + k) % q  # row_comm is ordered by column coordinate
            roaming = a_block if j == root else None
            roaming = yield from broadcast(
                view.row_comm, roaming, root=root, tag=TAG_A
            )
            # 2. multiply-accumulate with the resident B block.
            c_block = yield from ctx.local_matmul(roaming, b_block, c_block)
            # 3. roll B up one position along the column.
            if k < q - 1:
                (b_block,) = yield from ctx.neighbor_exchange(
                    [(up, b_block, TAG_B)], [(down, TAG_B)]
                )
        return c_block

    def collect_output(self, n: int, cube: Hypercube, results):
        grid = Grid2DEmbedding.square(cube)
        part = BlockPartition2D(n, grid.rows)
        return part.assemble(
            {
                (i, j): results[grid.node_at(i, j)]
                for i in range(grid.rows)
                for j in range(grid.cols)
            }
        )
