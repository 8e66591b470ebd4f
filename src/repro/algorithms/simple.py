"""Algorithm Simple (§3.1): row/column all-to-all broadcasts.

``A`` and ``B`` are block partitioned ``√p × √p`` (Fig. 1) with ``A_{ij}``
and ``B_{ij}`` on ``p_{ij}``.  Every row performs an all-to-all broadcast of
its ``A`` blocks and every column an all-to-all broadcast of its ``B``
blocks; afterwards ``p_{ij}`` holds row ``i`` of ``A``-blocks and column
``j`` of ``B``-blocks and computes ``C_{ij} = Σ_k A_{ik} B_{kj}`` locally.

The two phases are issued concurrently: a one-port machine serializes them
(Table 2's ``(log p, 2·(n²/√p)(1-1/√p))``) while a multi-port machine
overlaps them and uses rotated-tree allgathers
(``(½·log p, (n²/(√p·log√p))(1-1/√p))``).  The price is space: ``2n²/√p``
words per processor (Table 3).
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    GridView2D, TAG_A, TAG_B, require_square_grid, square_placement,
)
from repro.collectives.phase import allgather_call, parallel_pair

__all__ = ["SimpleAlgorithm"]


class SimpleAlgorithm(MatmulAlgorithm):
    """Algorithm Simple: row/column all-to-all broadcasts (see module doc)."""

    key = "simple"
    name = "Simple"
    paper_section = "3.1"

    def check_applicable(self, n: int, p: int) -> None:
        require_square_grid(n, p, self.name)

    placement = staticmethod(square_placement)

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView2D.create(ctx)
        q = view.q
        a_block, b_block = local["A"], local["B"]
        block_words = a_block.size

        ctx.phase("broadcasts")
        a_row, b_col = yield from parallel_pair(
            ctx,
            allgather_call(view.row_comm, a_block, tag=TAG_A),
            allgather_call(view.col_comm, b_block, tag=TAG_B),
        )
        # Resident: full A-row + full B-column + the C block being built.
        ctx.note_memory(2 * q * block_words + block_words)

        ctx.phase("compute")
        return (yield from ctx.local_matmuls(a_row, b_col))
