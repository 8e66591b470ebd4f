"""Dekel-Nassimi-Sahni (§3.5): the 3-D mesh algorithm.

On the ``∛p × ∛p × ∛p`` grid, ``A`` and ``B`` start block-partitioned on
the ``z = 0`` plane (``p_{i,j,0}`` holds ``A_{ij}`` and ``B_{ij}``).
Three phases:

1. ``p_{i,j,0}`` sends ``A_{ij}`` to ``p_{i,j,j}`` and ``B_{ij}`` to
   ``p_{i,j,i}`` — both point-to-point along the z-direction, so they
   cannot overlap even on a multi-port machine (same links).
2. ``p_{i,j,j}`` broadcasts ``A_{ij}`` along the y-direction and
   ``p_{i,j,i}`` broadcasts ``B_{ij}`` along the x-direction; these two
   *can* overlap on multi-port nodes.  Afterwards ``p_{i,j,k}`` holds
   ``A_{ik}`` and ``B_{kj}`` and multiplies them.
3. All-to-one reduction along the z-direction accumulates
   ``C_{ij} = Σ_k A_{ik} B_{kj}`` back on the ``z = 0`` plane.

Costs: Table 2's ``(5/3·log p, (n²/p^{2/3})·(5/3·log p))`` one-port and
``(4/3·log p, 4n²/p^{2/3})`` multi-port rows.
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
from repro.topology.embedding import Grid3DEmbedding
from repro.topology.hypercube import Hypercube

__all__ = ["DNSAlgorithm"]


class DNSAlgorithm(MatmulAlgorithm):
    """Dekel-Nassimi-Sahni 3-D mesh algorithm (see module doc)."""

    key = "dns"
    name = "DNS"
    paper_section = "3.5"

    def check_applicable(self, n: int, p: int) -> None:
        require_cubic_grid(n, p, self.name)

    def placement(self, n: int, cube: Hypercube):
        # p_{i,j,0} holds A_{ij} and B_{ij} and ends with C_{ij}.
        grid = Grid3DEmbedding(cube)
        q = grid.side
        blocks = BlockGrid(n, q, q)
        return blocks, blocks, blocks, [
            (grid.node_at(i, j, 0), ix, ix, ix)
            for i in range(q) for j in range(q) for ix in [(i, j)]
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView3D.create(ctx)
        grid, q = view.grid, view.q
        i, j, k = view.x, view.y, view.z
        block_words = (n // q) ** 2

        # -- phase 1: lift A and B off the z=0 plane -------------------------
        # Sequential sends along z (same direction, cannot overlap), declared
        # with phase 2 as the pair's lift: p_{i,j,j} receives the A_{ij} and
        # p_{i,j,i} the B_{ij} they then broadcast.
        ctx.phase("lift")
        origin = grid.node_at(i, j, 0)
        lift = Lift(
            sends=(
                (grid.node_at(i, j, j), local["A"], TAG_A),
                (grid.node_at(i, j, i), local["B"], TAG_B),
            ) if k == 0 else (),
            recvs=((origin, TAG_A, 0),) * (k == j) + ((origin, TAG_B, 1),) * (k == i),
            phase="broadcasts",
        )

        # -- phase 2: broadcasts along y (A) and x (B), overlapped -----------
        # p_{i,j,k} gets A_{ik} from p_{i,k,k} (root y=k of its y-line) and
        # B_{kj} from p_{k,j,k} (root x=k of its x-line).
        a_block, b_block = yield from parallel_pair(
            ctx,
            broadcast_call(view.y_comm, None, root=k, tag=TAG_C),
            broadcast_call(view.x_comm, None, root=k, tag=TAG_D),
            lift=lift,
        )
        ctx.note_memory(3 * block_words)  # A, B, and the partial-C block

        # -- multiply ---------------------------------------------------------
        ctx.phase("compute")
        partial = yield from ctx.local_matmul(a_block, b_block)

        # -- phase 3: reduce along z back to the z=0 plane --------------------
        ctx.phase("reduce")
        c_block = yield from reduce(view.z_comm, partial, root=0, tag=TAG_A)
        return c_block if k == 0 else None
