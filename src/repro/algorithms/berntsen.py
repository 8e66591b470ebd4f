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

import numpy as np

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import TAG_C, cannon_kernel, require, require_cubic_grid
from repro.blocks.partition import ColumnGroups, RowGroups
from repro.collectives import reduce_scatter
from repro.collectives.chunking import chunk_slices
from repro.errors import AlgorithmError
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
        q = require_cubic_grid(n, p, self.name)
        require(
            n % (q * q) == 0,
            f"{self.name}: n={n} must be divisible by p^(2/3)={q * q} "
            "(block columns of the A column-sets)",
        )
        require(
            p <= round(n ** 1.5),
            f"{self.name}: requires p <= n^(3/2) (p={p}, n={n})",
        )

    def distribute_inputs(self, A, B, cube: Hypercube):
        n = A.shape[0]
        k, grids = _layout(cube)
        q = 1 << k
        a_cols = ColumnGroups(n, q)
        b_rows = RowGroups(n, q)
        out = {}
        for m, grid in enumerate(grids):
            a_set = a_cols.extract(A, m)  # n x n/q
            b_set = b_rows.extract(B, m)  # n/q x n
            # Block partition the sets over the subcube's q x q grid:
            # A-set blocks are (n/q) x (n/q**2), B-set blocks (n/q**2) x (n/q).
            ra, ca = n // q, n // (q * q)
            for r in range(q):
                for c in range(q):
                    out[grid.node_at(r, c)] = {
                        "A": np.ascontiguousarray(
                            a_set[r * ra:(r + 1) * ra, c * ca:(c + 1) * ca]
                        ),
                        "B": np.ascontiguousarray(
                            b_set[r * ca:(r + 1) * ca, c * ra:(c + 1) * ra]
                        ),
                    }
        return out

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

    def collect_output(self, n: int, cube: Hypercube, results):
        k, grids = _layout(cube)
        q = 1 << k
        block = n // q  # side of a C block on the subcube grid
        piece_rows = block // q
        C = np.zeros((n, n))
        for m, grid in enumerate(grids):
            for r in range(q):
                for c in range(q):
                    node = grid.node_at(r, c)
                    piece = results[node]
                    if piece is None:
                        raise AlgorithmError(f"node {node} returned no C piece")
                    row0 = r * block + m * piece_rows
                    C[row0:row0 + piece_rows, c * block:(c + 1) * block] = piece
        return C
