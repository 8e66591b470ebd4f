"""The 3DD × Cannon combination (extension; §3.5's remark made concrete).

After describing the DNS × Cannon supernode scheme, the paper argues that
"the combination of any proposed new algorithm with Cannon's algorithm
would yield an algorithm better than the combination algorithm of the DNS
and Cannon".  This module builds that better combination: the 3-D Diagonal
algorithm at the supernode level, Cannon's algorithm inside each
supernode.

Layout as in :mod:`repro.algorithms.supernode`: ``p = 8^a·4^b``, supernode
grid side ``σ = 2^a``, mesh side ``ρ = 2^b``.  The 3DD phases move the
``(n/σ) × (n/σ)`` supernode blocks processor-wise (every message is a
``(n/(σρ))²`` sub-block between corresponding processors, and all
supernode-level collectives run on subcubes); each supernode then runs
Cannon over its mesh.

Versus DNS × Cannon it saves one supernode hop per operand in phase 1 and
one broadcast's worth of traffic — exactly the 3DD-vs-DNS improvement of
Table 2, now with Cannon's space savings: the benchmark claim is verified
in ``tests/algorithms/test_combinations.py``.
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

__all__ = ["Diag3DCannonAlgorithm"]


class Diag3DCannonAlgorithm(SupernodeAlgorithm):
    """3DD x Cannon supernode combination (see module doc)."""

    key = "3dd_cannon"
    name = "3DD x Cannon"
    paper_section = "3.5/4.1.2 (combination)"

    def placement(self, n: int, cube: Hypercube):
        # Diagonal supernode (i, i, k) holds supernode blocks A_{k,i} and
        # B_{k,i} and ends with C_{k,i}; processor (u, v) of it holds their
        # (u, v) sub-blocks.
        layout = self._layout_for(cube.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        blocks = BlockGrid(n, sigma * rho, sigma * rho)
        return blocks, blocks, blocks, [
            (layout.node(i, i, k, u, v), ix, ix, ix)
            for i in range(sigma) for k in range(sigma)
            for u in range(rho) for v in range(rho)
            for ix in [(k * rho + u, i * rho + v)]
        ]

    def program(self, ctx, n: int, local: dict[str, Any]):
        layout = self._layout_for(ctx.config.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        I, J, K, u, v = layout.coords(ctx.rank)

        # -- phase 1: move B within the diagonal plane (processor-wise) -------
        # (the lift of phase 2's pair)
        ctx.phase("point-to-point")
        lift = Lift(
            sends=((layout.node(I, K, K, u, v), local["B"], TAG_B),) if I == J else (),
            recvs=((layout.node(I, I, J, u, v), TAG_B, 1),) if J == K else (),
            phase="broadcasts",
        )

        # -- phase 2: supernode broadcasts, A along x and B along z -----------
        x_comm = Comm(ctx, layout.x_line(J, K, u, v))
        z_comm = Comm(ctx, layout.z_line(I, J, u, v))
        a_src = local.get("A") if I == J else None
        a_block, b_block = yield from parallel_pair(
            ctx,
            broadcast_call(x_comm, a_src, root=J, tag=TAG_C),
            broadcast_call(z_comm, None, root=J, tag=TAG_D),
            lift=lift,
        )
        ctx.note_memory(3 * a_block.size)

        # -- phase 3: Cannon within the supernode ------------------------------
        # Supernode (I,J,K) holds A_{K,J} x B_{J,I}; this processor holds
        # their (u, v) sub-blocks.
        ctx.phase("cannon")

        def mesh_node(uu: int, vv: int) -> int:
            return layout.node(I, J, K, uu, vv)

        partial = yield from cannon_kernel(
            ctx, mesh_node, rho, u, v, a_block, b_block
        )

        # -- phase 4: reduce along supernode-y onto the diagonal ---------------
        y_comm = Comm(ctx, layout.y_line(I, K, u, v))
        ctx.phase("reduce")
        c_block = yield from reduce(y_comm, partial, root=I, tag=TAG_A)
        return c_block if I == J else None
