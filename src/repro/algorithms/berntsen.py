"""Berntsen's algorithm (§3.4): ∛p outer products + all-to-all reduction.

``A`` is split by columns and ``B`` by rows into ``∛p`` sets; subcube ``m``
(of ``p^{2/3}`` processors, viewed as a ``∛p × ∛p`` grid) computes the
outer product of column-set ``m`` of ``A`` with row-set ``m`` of ``B``
using Cannon's algorithm on rectangular blocks.  The ``∛p`` outer products
are then summed by an all-to-all reduction among *corresponding* processors
of the subcubes (which form a ``∛p``-node subcube across the high address
bits), leaving each processor with an ``n²/p``-word piece of ``C``.

The result is **not** aligned like the inputs (the paper lists this as the
algorithm's drawback): processor ``(m, r, c)`` ends with row-slice ``m`` of
the ``(r, c)`` block of ``C``.  Applicability: ``p ≤ n^{3/2}`` (Table 3).
"""

from __future__ import annotations

import functools
from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import TAG_C, cannon_kernel, require_fig8_grid
from repro.blocks.partition import BlockGrid
from repro.collectives import reduce_scatter
from repro.collectives.chunking import chunk_slices
from repro.mpi.communicator import Comm
from repro.topology.embedding import SubcubeGrid2D
from repro.topology.hypercube import Hypercube

__all__ = ["BerntsenAlgorithm"]


@functools.cache
def _layout(cube: Hypercube):
    """Split the cube into ∛p subcubes of p^{2/3} nodes, each a 2-D grid
    (once per cube dimension: every rank's program reads it)."""
    total = cube.dimension  # = 3k
    k = total // 3
    split_dims = tuple(range(2 * k, 3 * k))  # high k bits select the subcube
    subcubes = cube.split(split_dims)
    grids = tuple(SubcubeGrid2D(sc) for sc in subcubes)
    return k, grids


class BerntsenAlgorithm(MatmulAlgorithm):
    """Berntsen's subcube outer-product algorithm (see module doc)."""

    key = "berntsen"
    name = "Berntsen"
    paper_section = "3.4"

    def check_applicable(self, n: int, p: int) -> None:
        require_fig8_grid(n, p, self.name)

    def placement(self, n: int, cube: Hypercube):
        # Node (m, r, c) of subcube m's grid holds block (r, c) of A's
        # column set m and of B's row set m: A block (r, m·q + c) of the
        # (q, q²) grid, B block (m·q + r, c) of the (q², q) grid.  It ends
        # with row slice m of C block (r, c): C block (r·q + m, c) of the
        # (q², q) grid.
        k, grids = _layout(cube)
        q = 1 << k
        tall = BlockGrid(n, q * q, q)
        return BlockGrid(n, q, q * q), tall, tall, [
            (grid.node_at(r, c), (r, m * q + c), (m * q + r, c), (r * q + m, c))
            for m, grid in enumerate(grids) for r in range(q) for c in range(q)
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        cube = ctx.config.cube
        k, grids = _layout(cube)
        q = 1 << k
        m = ctx.rank >> (2 * k)  # subcube index (high bits)
        grid = grids[m]
        r, c = grid.coords_of(ctx.rank)

        a_block, b_block = local["A"], local["B"]
        # A column-set block + B row-set block + outer-product block.
        ctx.note_memory(2 * a_block.size + (n // q) ** 2)

        # -- Cannon within the subcube ----------------------------------------
        ctx.phase("cannon")
        outer = yield from cannon_kernel(
            ctx, grid.node_at, q, r, c, a_block, b_block
        )

        # -- all-to-all reduction across corresponding processors -------------
        # The group {(m', r, c) : m'} varies the high k bits: a subcube.
        ctx.phase("reduce")
        low = ctx.rank & ((1 << (2 * k)) - 1)
        members = [(mm << (2 * k)) | low for mm in range(q)]
        cross = Comm(ctx, members)
        # row-slices (views), one per destination
        pieces = [outer[rows] for rows in chunk_slices(outer.shape[0], q)]
        c_piece = yield from reduce_scatter(cross, pieces, tag=TAG_C)
        return c_piece
