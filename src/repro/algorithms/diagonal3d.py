"""The 3-D Diagonal algorithm — 3DD (§4.1.2, Algorithm 3).

One of the paper's two new algorithms.  ``A`` and ``B`` are ``∛p × ∛p``
block partitioned and both mapped onto the diagonal plane ``x = y``:
``p_{i,i,k}`` holds ``A_{k,i}`` and ``B_{k,i}`` — identical distributions,
unlike DNS or Berntsen.  Plane ``y = j`` computes the outer product of
column-set ``j`` of ``A`` with row-set ``j`` of ``B``.

1. **Point-to-point**: ``p_{i,i,k}`` sends ``B_{k,i}`` to ``p_{i,k,k}``
   (a z-diagonal move within the plane ``x = i``).
2. **Broadcasts**: ``p_{i,i,k}`` broadcasts ``A_{k,i}`` along the
   x-direction; ``p_{i,k,k}`` broadcasts its received ``B_{k,i}`` along the
   z-direction.  Both overlap on multi-port nodes.  Afterwards
   ``p_{i,j,k}`` holds ``A_{k,j}`` and ``B_{j,i}``.
3. **Compute + reduce**: each processor forms ``A_{k,j}·B_{j,i}`` and an
   all-to-one reduction along the y-direction accumulates
   ``C_{k,i} = Σ_j A_{k,j} B_{j,i}`` on ``p_{i,i,k}`` — aligned exactly
   like the inputs.

Cost (Table 2): ``(4/3·log p, (n²/p^{2/3})·(4/3·log p))`` one-port,
``(log p, 3n²/p^{2/3})`` multi-port.  Applicable for ``p ≤ n³``
(``n² ≥ p^{2/3} log ∛p`` for full multi-port bandwidth); 3DD is the only
algorithm of the eight that reaches into the ``n² < p ≤ n³`` region.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    GridView3D,
    TAG_A,
    TAG_B,
    TAG_C,
    TAG_D,
    require_cubic_grid,
)
from repro.blocks.partition import BlockGrid
from repro.collectives import reduce
from repro.collectives.phase import Lift, broadcast_call, parallel_pair
from repro.errors import AlgorithmError
from repro.topology.embedding import Grid3DEmbedding
from repro.topology.hypercube import Hypercube

__all__ = ["Diagonal3DAlgorithm"]


class Diagonal3DAlgorithm(MatmulAlgorithm):
    """The paper's new 3-D Diagonal (3DD) algorithm (see module doc)."""

    key = "3dd"
    name = "3-D Diagonal"
    paper_section = "4.1.2"

    def check_applicable(self, n: int, p: int) -> None:
        require_cubic_grid(n, p, self.name)

    def placement(self, n: int, cube: Hypercube):
        # p_{i,i,k} holds A_{k,i} and B_{k,i} and ends with C_{k,i}.
        grid = Grid3DEmbedding(cube)
        q = grid.side
        blocks = BlockGrid(n, q, q)
        return blocks, blocks, blocks, [
            (grid.node_at(i, i, k), ix, ix, ix)
            for i in range(q) for k in range(q) for ix in [(k, i)]
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView3D.create(ctx)
        grid, q = view.grid, view.q
        i, j, k = view.x, view.y, view.z
        block_words = (n // q) ** 2

        # -- phase 1: move B within the diagonal plane ------------------------
        # (declared with phase 2 as the pair's lift: p_{i,j,j} receives the
        # B_{j,i} it then broadcasts)
        ctx.phase("point-to-point")
        lift = Lift(
            sends=((grid.node_at(i, k, k), local["B"], TAG_B),) if i == j else (),
            recvs=((grid.node_at(i, i, j), TAG_B, 1),) if j == k else (),
            phase="broadcasts",
        )

        # -- phase 2: broadcast A along x, B along z (overlapped) -------------
        # My x-line {p_{*,j,k}} root is the diagonal member x = j (p_{j,j,k},
        # holding A_{k,j}); my z-line {p_{i,j,*}} root is z = j (p_{i,j,j},
        # holding B_{j,i} from phase 1).
        a_src = local.get("A") if i == j else None
        a_block, b_block = yield from parallel_pair(
            ctx,
            broadcast_call(view.x_comm, a_src, root=j, tag=TAG_C),
            broadcast_call(view.z_comm, None, root=j, tag=TAG_D),
            lift=lift,
        )
        ctx.note_memory(3 * block_words)  # A, B, and the partial-C block

        # -- compute -----------------------------------------------------------
        ctx.phase("compute")
        partial = yield from ctx.local_matmul(a_block, b_block)

        # -- phase 3: reduce along y onto the diagonal plane -------------------
        ctx.phase("reduce")
        c_block = yield from reduce(view.y_comm, partial, root=i, tag=TAG_A)
        if i == j:
            if c_block is None:
                raise AlgorithmError(f"p_({i},{j},{k}) missing C block")
            return c_block
        return None
