"""Fox-Otto-Hey algorithm ([4] in the paper's references; baseline).

The paper's §1 lists Fox, Otto and Hey's "Matrix algorithms on a hypercube
I" among the prior distributed matmul algorithms but does not carry it
into Table 2 (Cannon dominates it on hypercubes).  Implemented here as a
baseline: broadcast-multiply-roll on the ``√p × √p`` grid.

At stage ``k`` (``k = 0 … √p-1``):

1. in every row ``i``, the processor holding ``A_{i, i+k}`` (column
   ``(i + k) mod √p``) broadcasts it across the row,
2. every processor multiplies the broadcast block with its current ``B``
   block and accumulates,
3. ``B`` blocks roll up one position along the columns.

Per stage this costs a one-to-all broadcast (``log √p`` start-ups) plus a
unit shift, so Fox pays ``O(√p·log √p)`` start-ups against Cannon's
``O(√p)`` — the reason the paper's lineup skips it; the relation is pinned
in ``tests/algorithms/test_fox.py``.

The program declares all ``√p`` stages once, as a *broadcast*
:class:`~repro.sim.ops.ShiftPhaseOp`: the row communicator, each stage's
root and ``B``'s peers.  On a default-knob run every rank parks once and
:mod:`repro.sim.superstep` folds the stages from the park times; wherever
no closed form comes, :func:`~repro.sim.process.shift_loop` runs the
stages above message by message (each broadcast and roll then declared as
the collective phase it is).
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    GridView2D, TAG_A, TAG_B, require_square_grid, square_placement,
)
from repro.sim.ops import ShiftPhaseOp
from repro.sim.process import ProcessContext, shift_loop

__all__ = ["FoxAlgorithm"]


class FoxAlgorithm(MatmulAlgorithm):
    """Fox-Otto-Hey broadcast-multiply-roll baseline (see module doc)."""

    key = "fox"
    name = "Fox-Otto-Hey"
    paper_section = "1 (reference [4])"

    def check_applicable(self, n: int, p: int) -> None:
        require_square_grid(n, p, self.name)

    placement = staticmethod(square_placement)

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView2D.create(ctx)
        q = view.q
        i, j = view.row, view.col
        a_block = local["A"]
        ctx.note_memory(4 * a_block.size)  # A, roaming A, B, C
        ctx.phase("fox")
        # Stage k broadcasts A_{i, i+k} from column (i + k) mod q (row_comm
        # is ordered by column coordinate) and rolls B up one row.
        phase = dict(
            steps=q, a_block=a_block, b_block=local["B"], tag_a=TAG_A, tag_b=TAG_B,
            b_to=view.grid.node_at(i - 1, j), b_from=view.grid.node_at(i + 1, j),
            row=view.row_comm, roots=tuple(range(i, q)) + tuple(range(i)),
        )
        # Declared on a plain context (see cannon_kernel); a wrapped one
        # runs the phase's definition through its own protocols.
        if type(ctx) is ProcessContext:
            _a, _b, c_block = yield from ctx.shift_phase(**phase)
        else:
            _a, _b, c_block = yield from shift_loop(ctx, ShiftPhaseOp(**phase))
        return c_block
