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
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import TAG_A, TAG_B, require, require_square_grid
from repro.blocks.partition import BlockPartition2D
from repro.collectives.chunking import chunk_slices
from repro.errors import AlgorithmError
from repro.topology.embedding import Grid2DEmbedding
from repro.topology.hypercube import Hypercube
from repro.util.bits import gray_code, ilog2

__all__ = ["HJEAlgorithm"]


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

    def distribute_inputs(self, A, B, cube: Hypercube):
        grid = Grid2DEmbedding.square(cube)
        part = BlockPartition2D(A.shape[0], grid.rows)
        return {
            grid.node_at(i, j): {
                "A": part.extract(A, i, j),
                "B": part.extract(B, i, j),
            }
            for i in range(grid.rows)
            for j in range(grid.cols)
        }

    def program(self, ctx, n: int, local: dict[str, Any]):
        grid = Grid2DEmbedding.square(ctx.config.cube)
        q = grid.rows
        d = ilog2(q)
        kc = d  # low bits hold the column code
        me = ctx.rank
        y_code = me & ((1 << kc) - 1)
        x_code = me >> kc

        def node(x: int, y: int) -> int:
            return (x << kc) | y

        a_block, b_block = local["A"], local["B"]
        ctx.note_memory(3 * a_block.size)

        # -- XOR alignment: A to (x, y^x), B to (x^y, y) --------------------
        # One pairwise exchange per set bit; both matrices move concurrently.
        ctx.phase("align")
        for bit in range(d):
            handles = []
            a_pending = b_pending = None
            if (x_code >> bit) & 1:  # A moves across column dimension `bit`
                peer = node(x_code, y_code ^ (1 << bit))
                handles.append((yield from ctx.isend(peer, a_block, TAG_A)))
                a_pending = (yield from ctx.irecv(peer, TAG_A))
                handles.append(a_pending)
            if (y_code >> bit) & 1:  # B moves across row dimension `bit`
                peer = node(x_code ^ (1 << bit), y_code)
                handles.append((yield from ctx.isend(peer, b_block, TAG_B)))
                b_pending = (yield from ctx.irecv(peer, TAG_B))
                handles.append(b_pending)
            if handles:
                yield from ctx.waitall(handles)
            if a_pending is not None:
                a_block = a_pending.value
            if b_pending is not None:
                b_block = b_pending.value

        # -- multiply loop over Gray-code masks ------------------------------
        # Group l of A (columns slice) and of B (rows slice); the slices use
        # identical boundaries so each product A^l @ B^l is a full block.
        groups = chunk_slices(a_block.shape[1], d)
        a_groups = [np.ascontiguousarray(a_block[:, g]) for g in groups]
        b_groups = [np.ascontiguousarray(b_block[g, :]) for g in groups]

        ctx.phase("multiply")
        c_block = np.zeros((a_block.shape[0], b_block.shape[1]))
        for t in range(q):
            for l in range(d):
                c_block = yield from ctx.local_matmul(
                    a_groups[l], b_groups[l], c_block
                )
            if t == q - 1:
                break
            g_t = ilog2(gray_code(t) ^ gray_code(t + 1))
            # One neighbour-exchange round: group l of A crosses column
            # dimension (g_t + l) mod d and group l of B the same row
            # dimension, all 2d exchanges at once (A^0, B^0, A^1, B^1, ...
            # is the order a one-port node injects them in).
            sends = []
            recvs = []
            for l in range(d):
                dim = (g_t + l) % d
                col_peer = node(x_code, y_code ^ (1 << dim))
                row_peer = node(x_code ^ (1 << dim), y_code)
                sends.append((col_peer, a_groups[l], TAG_A + 16 + l))
                sends.append((row_peer, b_groups[l], TAG_B + 32 + l))
                recvs.append((col_peer, TAG_A + 16 + l))
                recvs.append((row_peer, TAG_B + 32 + l))
            got = yield from ctx.neighbor_exchange(sends, recvs)
            a_groups, b_groups = got[0::2], got[1::2]
        return c_block

    def collect_output(self, n: int, cube: Hypercube, results):
        grid = Grid2DEmbedding.square(cube)
        part = BlockPartition2D(n, grid.rows)
        kc = ilog2(grid.rows)
        blocks = {}
        for node_id, c_block in results.items():
            if c_block is None:
                raise AlgorithmError(f"node {node_id} returned no C block")
            y = node_id & ((1 << kc) - 1)
            x = node_id >> kc
            # The C block at codes (x, y) is C_{inv_gray(x), inv_gray(y)},
            # i.e. exactly the grid position of the node.
            i, j = grid.coords_of(node_id)
            blocks[(i, j)] = c_block
        return part.assemble(blocks)
