"""The DNS × Cannon combination algorithm (§3.5, extension).

Dekel, Nassimi and Sahni also proposed combining the basic DNS scheme with
Cannon's algorithm: the hypercube is viewed as a ``∛s × ∛s × ∛s`` grid of
*supernodes*, each supernode being a ``√r × √r`` mesh of processors
(``p = s·r``).  The three DNS phases move whole supernode blocks — realized
processor-wise, since corresponding processors of supernodes along a grid
axis form subcubes — and each supernode then multiplies its
``(n/∛s) × (n/∛s)`` operands with Cannon's algorithm on its internal mesh.

The attraction is space: replication along the supernode z-axis costs a
factor ``∛s`` instead of DNS's ``∛p``, trading it for Cannon's ``O(√r)``
extra start-ups.  The paper notes that combining its *new* algorithms with
Cannon the same way dominates this scheme — which is why only the basic
algorithms appear in its tables — but implements it here as the natural
baseline for that claim.

Requires ``p = 8^a · 4^b`` with ``a, b ≥ 1`` (choose ``mesh_size = 4^b``
explicitly or let the constructor pick the largest valid supernode count)
and ``n`` divisible by ``∛s·√r``.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.common import TAG_A, TAG_B, TAG_C, TAG_D, cannon_kernel
from repro.algorithms.supernode import SupernodeAlgorithm
from repro.blocks.partition import BlockGrid
from repro.collectives import reduce
from repro.collectives.phase import Lift, broadcast_call, parallel_pair
from repro.mpi.communicator import Comm
from repro.topology.hypercube import Hypercube

__all__ = ["DNSCannonAlgorithm"]


class DNSCannonAlgorithm(SupernodeAlgorithm):
    """DNS x Cannon supernode combination (see module doc)."""

    key = "dns_cannon"
    name = "DNS x Cannon"
    paper_section = "3.5 (combination)"

    def placement(self, n: int, cube: Hypercube):
        # Supernode (I, J, 0) holds A_{IJ} and B_{IJ} and ends with C_{IJ};
        # its processor (u, v) holds their (u, v) sub-blocks.
        layout = self._layout_for(cube.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        blocks = BlockGrid(n, sigma * rho, sigma * rho)
        return blocks, blocks, blocks, [
            (layout.node(I, J, 0, u, v), ix, ix, ix)
            for I in range(sigma) for J in range(sigma)
            for u in range(rho) for v in range(rho)
            for ix in [(I * rho + u, J * rho + v)]
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        layout = self._layout_for(ctx.config.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        I, J, K, u, v = layout.coords(ctx.rank)

        # -- phase 1: lift supernode blocks off the K=0 plane (processor-wise)
        # (the lift of phase 2's pair)
        ctx.phase("lift")
        origin = layout.node(I, J, 0, u, v)
        lift = Lift(
            sends=(
                (layout.node(I, J, J, u, v), local["A"], TAG_A),
                (layout.node(I, J, I, u, v), local["B"], TAG_B),
            ) if K == 0 else (),
            recvs=((origin, TAG_A, 0),) * (K == J) + ((origin, TAG_B, 1),) * (K == I),
            phase="broadcasts",
        )

        # -- phase 2: supernode broadcasts along y (A) and x (B) --------------
        y_comm = Comm(ctx, [layout.node(I, y, K, u, v) for y in range(sigma)])
        x_comm = Comm(ctx, [layout.node(x, J, K, u, v) for x in range(sigma)])
        a_block, b_block = yield from parallel_pair(
            ctx,
            broadcast_call(y_comm, None, root=K, tag=TAG_C),
            broadcast_call(x_comm, None, root=K, tag=TAG_D),
            lift=lift,
        )
        ctx.note_memory(3 * a_block.size)

        # -- phase 3: Cannon within the supernode ------------------------------
        # This processor now holds sub-block (u, v) of A_{IK} and B_{KJ}.
        ctx.phase("cannon")

        def mesh_node(uu: int, vv: int) -> int:
            return layout.node(I, J, K, uu, vv)

        partial = yield from cannon_kernel(
            ctx, mesh_node, rho, u, v, a_block, b_block
        )

        # -- phase 4: reduce along the supernode z-axis ------------------------
        z_comm = Comm(ctx, [layout.node(I, J, z, u, v) for z in range(sigma)])
        ctx.phase("reduce")
        c_block = yield from reduce(z_comm, partial, root=0, tag=TAG_A)
        return c_block if K == 0 else None
