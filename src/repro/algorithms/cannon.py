"""Cannon's algorithm (§3.2) on the Gray-embedded ``√p × √p`` grid.

Initial skew followed by ``√p - 1`` shift-multiply-add steps; every shift
moves ``A`` one position along the row ring and ``B`` one position along
the column ring (dilation-1 neighbour transfers under the Gray embedding).
Constant storage — ``3n²`` words overall (Table 3) — at the price of
``O(√p)`` message start-ups (Table 2).

The initial alignment sends each block up to ``log √p`` hops through the
cube (e-cube routed, store-and-forward), which is the ``2·log√p·(t_s +
t_w·n²/p)`` term of §3.2; simultaneous skew messages can contend for links,
so the simulated alignment can exceed the paper's contention-free bound —
see EXPERIMENTS.md.  The alignment is declared with the shift phase
(``cannon_kernel``): a default-knob run plans the contended skew in a hop
table and the rounds in closed form, with no hop on the event queue.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    GridView2D, cannon_kernel, require_square_grid, square_placement,
)

__all__ = ["CannonAlgorithm"]


class CannonAlgorithm(MatmulAlgorithm):
    """Cannon's algorithm on the Gray-embedded 2-D grid (see module doc)."""

    key = "cannon"
    name = "Cannon"
    paper_section = "3.2"

    def check_applicable(self, n: int, p: int) -> None:
        require_square_grid(n, p, self.name)

    placement = staticmethod(square_placement)

    def program(self, ctx, n: int, local: dict[str, Any]):
        view = GridView2D.create(ctx)
        a_block, b_block = local["A"], local["B"]
        # Constant storage: A, B, and C blocks only.
        ctx.note_memory(3 * a_block.size)
        ctx.phase("cannon")
        c_block = yield from cannon_kernel(
            ctx, view.grid.node_at, view.q, view.row, view.col, a_block, b_block
        )
        return c_block
