"""The 3-D All_Trans algorithm (§4.2.1, Algorithm 4).

The 2-D Diagonal scheme extended to use *every* column of the 3-D grid:
``A`` is partitioned ``∛p × p^{2/3}`` (Fig. 8) and ``B`` — transposed in
spirit — ``p^{2/3} × ∛p`` (Fig. 9); ``p_{i,j,k}`` holds ``A_{k,f(i,j)}``
and ``B_{f(i,j),k}`` with ``f(i,j) = i·∛p + j``.

1. **Collect B rows**: ``p_{i,j,k}`` sends ``B_{f(i,j),k}`` to
   ``p_{k,j,k}`` — an all-to-one collection along the x-direction (the
   inverse of a one-to-all personalized broadcast).
2. **Broadcasts**: all processors all-to-all broadcast their ``A`` blocks
   along the x-direction, while ``p_{k,j,k}`` one-to-all broadcasts its
   collected ``B_{f(*,j),k}`` along the z-direction; the two overlap on
   multi-port nodes.  Afterwards ``p_{i,j,k}`` holds ``A_{k,f(*,j)}`` and
   ``B_{f(*,j),i}`` and computes the outer-product block
   ``I_{k,i} = Σ_l A_{k,f(l,j)}·B_{f(l,j),i}``.
3. **All-to-all reduction** along the y-direction scatters column groups of
   ``I_{k,i}`` so that ``p_{i,j,k}`` accumulates ``C_{k,f(i,j)}`` — aligned
   like ``A``.

Cost (Table 2): ``(4/3·log p, (n²/p^{2/3})(3(1-1/∛p) + log p/3))``
one-port; the 3D All variant below strictly improves the last term.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    GridView3D,
    TAG_A,
    TAG_B,
    TAG_C,
    TAG_D,
    require_fig8_grid,
)
from repro.blocks.partition import BlockGrid, f_index
from repro.collectives import allgather, broadcast, gather, reduce_scatter
from repro.collectives.chunking import chunk_slices
from repro.topology.embedding import Grid3DEmbedding
from repro.topology.hypercube import Hypercube

__all__ = ["AllTransAlgorithm"]


class AllTransAlgorithm(MatmulAlgorithm):
    """The 3D All_Trans algorithm (see module doc)."""

    key = "3d_all_trans"
    name = "3D All_Trans"
    paper_section = "4.2.1"

    def check_applicable(self, n: int, p: int) -> None:
        require_fig8_grid(n, p, self.name)

    def placement(self, n: int, cube: Hypercube):
        # p_{i,j,k} holds the Fig. 8 block A_{k,f(i,j)} and the Fig. 9
        # block B_{f(i,j),k}, and ends with C_{k,f(i,j)}.
        grid = Grid3DEmbedding(cube)
        q = grid.side
        fig8 = BlockGrid(n, q, q * q)
        return fig8, BlockGrid(n, q * q, q), fig8, [
            (grid.node_at(i, j, k), (k, c), (c, k), (k, c))
            for i in range(q) for j in range(q) for c in [f_index(i, j, q)]
            for k in range(q)
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView3D.create(ctx)
        q = view.q
        i, j, k = view.x, view.y, view.z

        a_block = local["A"]  # A_{k, f(i,j)}:  (n/q, n/q^2)
        b_block = local["B"]  # B_{f(i,j), k}:  (n/q^2, n/q)

        # -- phase 1: gather B blocks to the x-line member x == k -------------
        ctx.phase("collect-B")
        b_set = yield from gather(view.x_comm, b_block, root=k, tag=TAG_B)
        # On the root (i == k): b_set[l] = B_{f(l,j),k}, stacked for transit.
        b_root = np.stack(b_set) if b_set is not None else None

        # -- phase 2: allgather A along x, broadcast B-set along z ------------
        # My z-line root for the B-set is the member z == i (node p_{i,j,i}),
        # which gathered B_{f(*,j),i} in phase 1.
        ctx.phase("broadcasts")
        a_list, b_stack = yield from ctx.parallel(
            allgather(view.x_comm, a_block, tag=TAG_C),
            broadcast(view.z_comm, b_root, root=i, tag=TAG_D),
        )
        ctx.note_memory(q * a_block.size + q * b_block.size + (n // q) ** 2)

        # -- compute I_{k,i} = sum_l A_{k,f(l,j)} B_{f(l,j),i} ----------------
        ctx.phase("compute")
        partial = yield from ctx.local_matmuls(a_list, b_stack)

        # -- phase 3: all-to-all reduction along y ----------------------------
        # Column group l of I_{k,i} belongs to p_{i,l,k} (as C_{k,f(i,l)}).
        ctx.phase("reduce")
        pieces = [
            np.ascontiguousarray(partial[:, cols])
            for cols in chunk_slices(partial.shape[1], q)
        ]
        c_block = yield from reduce_scatter(view.y_comm, pieces, tag=TAG_A)
        return c_block
