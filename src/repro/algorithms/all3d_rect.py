"""Rectangular-grid 3D All (§4.2.2's closing remark, generalized).

The paper notes that mapping a non-cubic 3-D grid onto the hypercube lets
3D All use more processors, trading space and start-up structure.  This
module implements the full generalization: a ``q1 × q2 × q1`` grid
(``p = q1²·q2``; x- and z-sides must match for the inner dimensions of the
outer products to agree — re-deriving the §4.2.2 proof with grid sides
``(qx, qy, qz)`` forces ``qx = qz``).

* ``A`` and ``B`` are partitioned into ``q1`` row-groups × ``q1·q2``
  column-groups; ``p_{i,j,k}`` holds blocks ``A/B_{k, f(i,j)}`` with
  ``f(i,j) = i·q2 + j``.
* Phase 1: all-to-all personalized along y over ``q2`` processors (the
  ``q2`` row-group split of the ``B`` blocks).
* Phase 2: all-to-all broadcasts of ``A`` along x and the re-shuffled
  ``B`` along z — both over ``q1`` processors, overlapped on multi-port.
* Phase 3: all-to-all reduction along y.

``q2 = q1`` recovers the paper's cubic 3D All exactly — which is how
:mod:`repro.algorithms.all3d` is written: a subclass that fixes the grid
and states the paper's applicability conditions.  Larger ``q2``
(e.g. the paper's ``∜p × √p × ∜p``) uses processor counts that are *not*
powers of eight — p = 16, 256, 1024, … become reachable — at the price of
more phase-1/3 start-ups; smaller ``q2`` cuts the y-phases short.  The
applicability frontier is ``n ≥ q1·q2`` (a column group needs at least one
column), i.e. ``p ≤ n²·q1 / q2 ≤ ...`` — for the ``q2 = √p`` family this
reads ``p ≤ n^{4/3}``, extending past the cubic variant's divisibility
grid while staying below Table 3's ``p ≤ n^{3/2}`` frontier.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import GridView3D, TAG_A, TAG_B, TAG_C, TAG_D, require
from repro.blocks.partition import BlockGrid
from repro.collectives import alltoall, reduce_scatter
from repro.collectives.chunking import chunk_slices
from repro.collectives.phase import allgather_call, parallel_pair
from repro.errors import NotApplicableError
from repro.topology.embedding import Grid3DRectEmbedding
from repro.topology.hypercube import Hypercube
from repro.util.bits import ilog2, is_power_of_two

__all__ = ["All3DRectAlgorithm"]


def _split_sides(p: int, y_side: int | None) -> tuple[int, int] | None:
    """Choose (q1, q2) with ``p = q1²·q2``; returns None if impossible.

    With ``y_side`` given, validates it.  Otherwise picks the smallest
    valid ``q2``: that minimizes both the total start-ups
    (``2·log q1 + 2·log q2 = log p + log q2``) and the divisibility
    pressure ``n % (q1·q2)`` — letting the variant reach processor counts
    the cubic grid cannot (p = 16, 256, 1024, …) with modest matrices.
    """
    if not is_power_of_two(p):
        return None
    k = ilog2(p)
    if y_side is not None:
        if not is_power_of_two(y_side):
            return None
        c2 = ilog2(y_side)
        rem = k - c2
        # y_side = 1 is the degenerate single-plane end of the family,
        # reaching the paper's "up to n^2 processors".
        if c2 < 0 or rem < 2 or rem % 2:
            return None
        return (1 << (rem // 2), y_side)
    for c2 in range(1, k - 1):
        if (k - c2) % 2 == 0:
            return (1 << ((k - c2) // 2), 1 << c2)
    return None


class All3DRectAlgorithm(MatmulAlgorithm):
    """Rectangular-grid 3D All family (see module doc)."""

    key = "3d_all_rect"
    name = "3D All (rectangular)"
    paper_section = "4.2.2 (variant)"

    def __init__(self, y_side: int | None = None):
        self.y_side = y_side

    def _sides_for(self, p: int) -> tuple[int, int]:
        sides = _split_sides(p, self.y_side)
        if sides is None:
            raise NotApplicableError(
                f"{self.name}: p={p} does not split into q1^2*q2 with "
                f"q1, q2 >= 2 (y_side={self.y_side})"
            )
        return sides

    def check_applicable(self, n: int, p: int) -> None:
        q1, q2 = self._sides_for(p)
        require(
            n % (q1 * q2) == 0,
            f"{self.name}: n={n} must be divisible by q1*q2={q1 * q2}",
        )

    # -- data layout ---------------------------------------------------------

    def _grid(self, cube: Hypercube) -> Grid3DRectEmbedding:
        q1, q2 = self._sides_for(cube.num_nodes)
        return Grid3DRectEmbedding(cube, q1, q2, q1)

    def placement(self, n: int, cube: Hypercube):
        # p_{i,j,k} holds A_{k,f(i,j)} and B_{k,f(i,j)} and ends with
        # C_{k,f(i,j)}, f(i,j) = i·q2 + j: the Fig. 8 blocks when q2 = q1.
        grid = self._grid(cube)
        q1, q2 = grid.sx, grid.sy
        blocks = BlockGrid(n, q1, q1 * q2)
        return blocks, blocks, blocks, [
            (grid.node_at(i, j, k), ix, ix, ix)
            for i in range(q1) for j in range(q2) for k in range(q1)
            for ix in [(k, i * q2 + j)]
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView3D.create(ctx, self._grid(ctx.config.cube))
        q1, q2 = view.grid.sx, view.grid.sy

        a_block = local["A"]  # (n/q1, n/(q1*q2))
        b_block = local["B"]

        # -- phase 1: all-to-all personalized along y (q2 row groups) ---------
        ctx.phase("alltoall-B")
        row_groups = [
            np.ascontiguousarray(b_block[rows])
            for rows in chunk_slices(b_block.shape[0], q2)
        ]
        received = yield from alltoall(view.y_comm, row_groups, tag=TAG_B)
        # hstack over the y-line: the (q1*q2)x(q1) - partition block
        # B_{g(k,j), i} with g(k,j) = k*q2 + j.
        b_wide = np.hstack(received)  # (n/(q1*q2), n/q1)

        # -- phase 2: all-to-all broadcasts along x (A) and z (B) -------------
        ctx.phase("broadcasts")
        a_list, b_list = yield from parallel_pair(
            ctx,
            allgather_call(view.x_comm, a_block, tag=TAG_C),
            allgather_call(view.z_comm, b_wide, tag=TAG_D),
        )
        ctx.note_memory(q1 * a_block.size + q1 * b_wide.size + (n // q1) ** 2)

        # -- compute I_{k,i} = sum_m A_{k,f(m,j)} B_{g(m,j),i} -----------------
        ctx.phase("compute")
        partial = None
        for m in range(q1):
            partial = yield from ctx.local_matmul(a_list[m], b_list[m], partial)

        # -- phase 3: all-to-all reduction along y -----------------------------
        ctx.phase("reduce")
        pieces = [
            np.ascontiguousarray(partial[:, cols])
            for cols in chunk_slices(partial.shape[1], q2)
        ]
        c_block = yield from reduce_scatter(view.y_comm, pieces, tag=TAG_A)
        return c_block
