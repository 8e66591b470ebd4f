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

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import TAG_A, TAG_B, TAG_C, TAG_D, cannon_kernel, require
from repro.algorithms.supernode import SupernodeLayout, decompose
from repro.blocks.partition import BlockPartition2D
from repro.collectives import reduce
from repro.collectives.phase import Lift, broadcast_call, parallel_pair
from repro.errors import NotApplicableError
from repro.mpi.communicator import Comm
from repro.topology.hypercube import Hypercube

__all__ = ["Diag3DCannonAlgorithm"]


class Diag3DCannonAlgorithm(MatmulAlgorithm):
    """3DD x Cannon supernode combination (see module doc)."""

    key = "3dd_cannon"
    name = "3DD x Cannon"
    paper_section = "3.5/4.1.2 (combination)"

    def __init__(self, mesh_size: int | None = None):
        self.mesh_size = mesh_size

    def _layout_for(self, p: int) -> SupernodeLayout:
        split = decompose(p, self.mesh_size)
        if split is None:
            raise NotApplicableError(
                f"{self.name}: p={p} does not split into 8^a * 4^b with "
                f"a, b >= 1 (mesh_size={self.mesh_size})"
            )
        return SupernodeLayout(*split)

    def check_applicable(self, n: int, p: int) -> None:
        layout = self._layout_for(p)
        side = layout.sigma * layout.rho
        require(
            n % side == 0,
            f"{self.name}: n={n} must be divisible by cbrt(s)*sqrt(r)={side}",
        )
        require(p <= n ** 3, f"{self.name}: requires p <= n^3 (p={p}, n={n})")

    def distribute_inputs(self, A, B, cube: Hypercube):
        layout = self._layout_for(cube.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        part = BlockPartition2D(A.shape[0], sigma * rho)
        out = {}
        # Diagonal supernode (i, i, k) holds supernode blocks A_{k,i} and
        # B_{k,i}; processor (u, v) of it holds their (u, v) sub-blocks.
        for i in range(sigma):
            for k in range(sigma):
                for u in range(rho):
                    for v in range(rho):
                        out[layout.node(i, i, k, u, v)] = {
                            "A": part.extract(A, k * rho + u, i * rho + v),
                            "B": part.extract(B, k * rho + u, i * rho + v),
                        }
        return out

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

    def collect_output(self, n: int, cube: Hypercube, results):
        layout = self._layout_for(cube.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        part = BlockPartition2D(n, sigma * rho)
        blocks = {}
        for i in range(sigma):
            for k in range(sigma):
                for u in range(rho):
                    for v in range(rho):
                        blocks[(k * rho + u, i * rho + v)] = results[
                            layout.node(i, i, k, u, v)
                        ]
        return part.assemble(blocks)
