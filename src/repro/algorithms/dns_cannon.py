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

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import (
    TAG_A,
    TAG_B,
    TAG_C,
    TAG_D,
    cannon_kernel,
    require,
)
from repro.blocks.partition import BlockPartition2D
from repro.collectives import reduce
from repro.collectives.phase import Lift, broadcast_call, parallel_pair
from repro.algorithms.supernode import SupernodeLayout, decompose
from repro.errors import NotApplicableError
from repro.mpi.communicator import Comm
from repro.topology.hypercube import Hypercube

__all__ = ["DNSCannonAlgorithm"]

# Backwards-compatible aliases (the layout machinery moved to
# repro.algorithms.supernode once the 3DD x Cannon combination shared it).
_decompose = decompose
_Layout = SupernodeLayout


class DNSCannonAlgorithm(MatmulAlgorithm):
    """DNS x Cannon supernode combination (see module doc)."""

    key = "dns_cannon"
    name = "DNS x Cannon"
    paper_section = "3.5 (combination)"

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
        for I in range(sigma):
            for J in range(sigma):
                for u in range(rho):
                    for v in range(rho):
                        out[layout.node(I, J, 0, u, v)] = {
                            "A": part.extract(A, I * rho + u, J * rho + v),
                            "B": part.extract(B, I * rho + u, J * rho + v),
                        }
        return out

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

    def collect_output(self, n: int, cube: Hypercube, results):
        layout = self._layout_for(cube.num_nodes)
        sigma, rho = layout.sigma, layout.rho
        part = BlockPartition2D(n, sigma * rho)
        blocks = {}
        for I in range(sigma):
            for J in range(sigma):
                for u in range(rho):
                    for v in range(rho):
                        blocks[(I * rho + u, J * rho + v)] = results[
                            layout.node(I, J, 0, u, v)
                        ]
        return part.assemble(blocks)
