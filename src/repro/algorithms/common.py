"""Shared helpers for the algorithm implementations.

Grid views (2-D and 3-D coordinates plus row/column/line communicators),
applicability predicates, the square-grid placement of Cannon, Fox, HJE and
Simple, and the Cannon kernel reused by Berntsen's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.blocks.partition import BlockGrid
from repro.errors import NotApplicableError
from repro.mpi.communicator import Comm
from repro.sim.ops import ShiftPhaseOp
from repro.sim.process import ProcessContext, shift_loop
from repro.topology.embedding import (
    Grid2DEmbedding, Grid3DEmbedding, Grid3DRectEmbedding,
)
from repro.util.bits import ilog2, is_power_of_eight, is_power_of_two

__all__ = [
    "require",
    "require_square_grid",
    "require_cubic_grid",
    "require_fig8_grid",
    "square_placement",
    "GridView2D",
    "GridView3D",
    "cannon_kernel",
    "TAG_A",
    "TAG_B",
]

# Tag bases used across algorithms; collectives namespace their own subtags
# beneath these, so concurrent collectives need distinct bases.
TAG_A = 1
TAG_B = 2
TAG_C = 3
TAG_D = 4


def require(condition: bool, message: str) -> None:
    """Raise :class:`NotApplicableError` with ``message`` unless ``condition``."""
    if not condition:
        raise NotApplicableError(message)


def require_square_grid(n: int, p: int, algo: str) -> int:
    """Check p = 4^k (a √p×√p grid) and n divisible by √p; returns √p."""
    require(
        is_power_of_two(p) and ilog2(p) % 2 == 0 and p >= 4,
        f"{algo}: p must be 4^k with k >= 1 to form a square 2-D grid, got p={p}",
    )
    q = 1 << (ilog2(p) // 2)
    require(n % q == 0, f"{algo}: n={n} must be divisible by sqrt(p)={q}")
    return q


def require_cubic_grid(n: int, p: int, algo: str) -> int:
    """Check p = 8^k (a ∛p³ grid) and n divisible by ∛p; returns ∛p."""
    require(
        is_power_of_eight(p) and p >= 8,
        f"{algo}: p must be 8^k with k >= 1 to form a 3-D grid, got p={p}",
    )
    q = 1 << (ilog2(p) // 3)
    require(n % q == 0, f"{algo}: n={n} must be divisible by cbrt(p)={q}")
    return q


def require_fig8_grid(n: int, p: int, algo: str) -> int:
    """Check p = 8^k and n divisible by p^{2/3}, the Fig. 8/9 column
    groups (Berntsen, 3D All_Trans, 3D All); returns ∛p."""
    q = require_cubic_grid(n, p, algo)
    require(
        n % (q * q) == 0,
        f"{algo}: n={n} must be divisible by p^(2/3)={q * q} (Fig. 8/9 partitions)",
    )
    return q


def square_placement(n: int, cube) -> tuple:
    """Figure 1 on the √p×√p grid: ``p_{ij}`` holds ``A_{ij}``, ``B_{ij}``
    and ends with ``C_{ij}`` (Cannon, Fox, HJE, Simple)."""
    grid = Grid2DEmbedding.square(cube)
    q = grid.rows
    blocks = BlockGrid(n, q, q)
    return blocks, blocks, blocks, [
        (grid.node_at(i, j), ix, ix, ix)
        for i in range(q) for j in range(q) for ix in [(i, j)]
    ]


@dataclass
class GridView2D:
    """A rank's view of the √p×√p grid: coordinates and communicators.

    The grid is the machine shape's shared embedding, and the row and
    column communicators wrap its cached member tuples; each is built on
    first use, so Cannon, which only shifts along grid edges, builds none.
    """

    grid: Grid2DEmbedding
    row: int
    col: int
    _ctx: ProcessContext

    @classmethod
    def create(cls, ctx: ProcessContext) -> "GridView2D":
        grid = Grid2DEmbedding.square(ctx.config.cube)
        r, c = grid.coords_of(ctx.rank)
        return cls(grid=grid, row=r, col=c, _ctx=ctx)

    @cached_property
    def row_comm(self) -> Comm:
        """Members ordered by column coordinate."""
        return Comm(self._ctx, self.grid._row(self.row))

    @cached_property
    def col_comm(self) -> Comm:
        """Members ordered by row coordinate."""
        return Comm(self._ctx, self.grid._col(self.col))

    @property
    def q(self) -> int:
        return self.grid.rows


@dataclass
class GridView3D:
    """A rank's view of a 3-D grid (the ∛p³ one unless told otherwise),
    with the paper's ``p_{i,j,k}`` names.

    ``x_comm`` spans ``p_{*,j,k}`` ordered by ``x``; ``y_comm`` spans
    ``p_{i,*,k}`` ordered by ``y``; ``z_comm`` spans ``p_{i,j,*}`` ordered
    by ``z``.
    """

    grid: Grid3DRectEmbedding
    x: int
    y: int
    z: int
    x_comm: Comm
    y_comm: Comm
    z_comm: Comm

    @classmethod
    def create(
        cls, ctx: ProcessContext, grid: Grid3DRectEmbedding | None = None
    ) -> "GridView3D":
        if grid is None:
            grid = Grid3DEmbedding(ctx.config.cube)
        x, y, z = grid.coords_of(ctx.rank)
        return cls(
            grid=grid,
            x=x,
            y=y,
            z=z,
            x_comm=Comm(ctx, grid._line("x", x, y, z)),
            y_comm=Comm(ctx, grid._line("y", x, y, z)),
            z_comm=Comm(ctx, grid._line("z", x, y, z)),
        )

    @property
    def q(self) -> int:
        return self.grid.side


def cannon_kernel(
    ctx: ProcessContext,
    node_at,
    q: int,
    row: int,
    col: int,
    a_block: np.ndarray,
    b_block: np.ndarray,
    tag_a: int = TAG_A,
    tag_b: int = TAG_B,
):
    """Cannon's algorithm on a ``q × q`` grid of nodes (generator).

    ``node_at(r, c)`` maps (wrapped) grid coordinates to cube nodes; this
    runs equally on the top-level grid and on Berntsen's subcube grids.
    ``a_block``/``b_block`` are this processor's ``A_{row,col}`` and
    ``B_{row,col}``; returns the accumulated ``C_{row,col}``.

    The initial alignment skews ``A_{r,c}`` to ``p_{r, c-r}`` and
    ``B_{r,c}`` to ``p_{r-c, c}`` (the paper describes the mirror-image
    skew, which does not pair matching inner indices; the standard
    left/up skew is used here — communication costs are identical by
    symmetry).  Both matrices move concurrently: a one-port machine
    serializes the transfers (the paper's ``2(t_s + t_w m)`` per step),
    a multi-port machine overlaps them (halving the time, as in §3.2).

    On a plain :class:`ProcessContext` the alignment and the steps are one
    declared ``ctx.shift_phase``: with the network quiet the engine plans
    the contended skew and the rounds it overlaps in a hop table and the
    rest in closed form (:mod:`repro.sim.superstep`).  A wrapped context
    runs both message by message through its own protocol.
    """
    # The alignment sends A left by `row` and B up by `col`; then q steps
    # of multiply-accumulate + unit shift.
    align = (
        node_at(row, col - row), node_at(row, col + row),
        node_at(row - col, col), node_at(row + col, col),
    )
    left, right = node_at(row, col - 1), node_at(row, col + 1)
    up, down = node_at(row - 1, col), node_at(row + 1, col)
    if type(ctx) is ProcessContext:
        # Plain simulator context: declare alignment and loop as one
        # superstep so the engine can advance it in closed form (or fall
        # back to the identical per-message loop) — see
        # ProcessContext.shift_phase.
        _a, _b, c_block = yield from ctx.shift_phase(
            steps=q, a_to=left, a_from=right, b_to=up, b_from=down,
            a_block=a_block, b_block=b_block, tag_a=tag_a, tag_b=tag_b,
            align=align,
        )
    else:
        # Wrapped contexts (reliable/integrity/detector layers) override
        # the point-to-point calls with their own protocols: the phase's
        # definition runs through them, message by message.
        _a, _b, c_block = yield from shift_loop(ctx, ShiftPhaseOp(
            q, a_block, b_block, tag_a, tag_b, left, right, up, down,
            align=align,
        ))
    return c_block
