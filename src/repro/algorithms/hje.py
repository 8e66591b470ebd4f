"""Ho-Johnsson-Edelman (§3.3, Algorithm 1): full-bandwidth Cannon variant.

The algorithm works in the *code space* of the Gray embedding: with row
code ``x`` and column code ``y`` (the physical cube bit-fields), the XOR
alignment moves ``A``'s block from ``(x, y)`` to ``(x, y⊕x)`` and ``B``'s
to ``(x⊕y, y)``, one dimension exchange per set bit.  After alignment the
processor at ``(x, y)`` holds matching inner-index blocks, and each of the
``√p`` multiply steps advances the inner index by XORing a Gray-code mask.

The full-bandwidth trick: the local ``A`` block is split into
``d = log √p`` column groups and ``B`` into ``d`` row groups.  Group ``l``
follows the Gray mask sequence *rotated by ``l``*: at step ``t`` it crosses
dimension ``(g_t + l) mod d`` (``g_t`` = the bit where consecutive Gray
codes differ).  The ``d`` groups of ``A`` travel on distinct column
dimensions (and ``B``'s on distinct row dimensions) simultaneously, so a
multi-port node uses all its links and the per-step transfer drops from
``t_w·m`` to ``t_w·m/log √p`` — Table 2's Ho et al. row.  Each group pair
``(A^l, B^l)`` always shares the same inner index, so the per-step update
``C += Σ_l A^l·B^l`` is a valid partial of the block product.

Applicable when ``n/√p ≥ log √p`` (enough columns to split); on one-port
machines the extra start-ups make it strictly worse than Cannon, which is
why Table 2 lists it for multi-port only (we still allow running it
one-port for ablation).

Alignment and multiply steps are declared once, as a grouped
``ctx.shift_phase``: with the network quiet the engine folds every
exchange of the phase in closed form, and its definition loop
(:func:`~repro.sim.process.shift_loop`) runs wherever it cannot.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    TAG_A, TAG_B, require, require_square_grid, square_placement,
)
from repro.sim.ops import ShiftPhaseOp
from repro.sim.process import ProcessContext, shift_loop
from repro.util.bits import gray_code, ilog2

__all__ = ["HJEAlgorithm"]


@lru_cache(maxsize=None)
def _gray_rounds(d: int) -> tuple:
    """Per multiply step but the last, the cube dimensions its block groups
    cross, in send order ``A⁰, B⁰, A¹, B¹, …``: group ``l`` crosses column
    dimension ``(g_t + l) mod d`` and the same row dimension, ``g_t`` the bit
    where Gray codes ``t`` and ``t + 1`` differ.  One shared tuple per ``d``."""
    masks = (ilog2(gray_code(t) ^ gray_code(t + 1)) for t in range((1 << d) - 1))
    return tuple(
        tuple(k for l in range(d) for k in ((g_t + l) % d, d + (g_t + l) % d))
        for g_t in masks
    )


@lru_cache(maxsize=None)
def _round_tags(d: int) -> tuple:
    """Group ``l``'s round tags, ``A⁰, B⁰, A¹, B¹, …``."""
    return tuple(tag for l in range(d) for tag in (TAG_A + 16 + l, TAG_B + 32 + l))


class HJEAlgorithm(MatmulAlgorithm):
    """Ho-Johnsson-Edelman full-bandwidth Cannon variant (see module doc)."""

    key = "hje"
    name = "Ho-Johnsson-Edelman"
    paper_section = "3.3"

    def check_applicable(self, n: int, p: int) -> None:
        q = require_square_grid(n, p, self.name)
        d = ilog2(q)
        require(
            d >= 1 and n // q >= d,
            f"{self.name}: needs n/sqrt(p) >= log sqrt(p) "
            f"(n={n}, sqrt(p)={q}, log sqrt(p)={d})",
        )

    placement = staticmethod(square_placement)

    def program(self, ctx, n: int, local: dict[str, Any]):
        d = ctx.config.dimension // 2
        # Low bits hold the column code y, high bits the row code x: a
        # column neighbour is one XOR across dimension k < d, a row
        # neighbour across d + k.
        me = ctx.rank
        x_code, y_code = me >> d, me & ((1 << d) - 1)
        a_block, b_block = local["A"], local["B"]
        ctx.note_memory(3 * a_block.size)
        ctx.phase("align")
        # XOR alignment, A to (x, y^x) and B to (x^y, y): per bit one
        # pairwise exchange, A's across column dimension `bit` if x has it,
        # B's across row dimension `bit` if y has it, both concurrently.
        swaps = tuple(
            (bit if x_code >> bit & 1 else None, d + bit if y_code >> bit & 1 else None)
            for bit in range(d)
        )
        phase = dict(
            steps=1 << d, a_block=a_block, b_block=b_block, tag_a=TAG_A,
            tag_b=TAG_B, dims=_gray_rounds(d), tags=_round_tags(d),
            swaps=swaps, phase="multiply",
        )
        # Declared on a plain context (see cannon_kernel); a wrapped one
        # runs the phase's definition through its own protocols.
        if type(ctx) is ProcessContext:
            _a, _b, c_block = yield from ctx.shift_phase(**phase)
        else:
            _a, _b, c_block = yield from shift_loop(ctx, ShiftPhaseOp(**phase))
        return c_block
