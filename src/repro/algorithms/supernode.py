"""Supernode layouts: a 3-D grid of supernodes, each a 2-D Cannon mesh.

Shared by the DNS × Cannon and 3DD × Cannon combination algorithms
(§3.5's combined scheme and the paper's remark that combining the *new*
algorithms with Cannon dominates it).

``p = s · r`` with ``s = 8^a`` supernodes arranged ``∛s × ∛s × ∛s`` and
``r = 4^b`` processors per supernode arranged ``√r × √r``.  The low ``2b``
cube bits Gray-encode the mesh position, the high ``3a`` bits the
supernode coordinates, so

* each supernode's rows/columns are subcubes (Cannon's ring shifts are
  neighbour transfers), and
* *corresponding* processors of the supernodes along any grid axis form a
  subcube (supernode-level collectives run at full speed).

:class:`SupernodeAlgorithm` is the two combinations' shared base: the
``mesh_size`` choice, the layout and the applicability check.
"""

from __future__ import annotations

from repro.algorithms.base import MatmulAlgorithm
from repro.algorithms.common import require
from repro.errors import NotApplicableError
from repro.util.bits import gray_code, gray_code_inverse, ilog2, is_power_of_two

__all__ = ["decompose", "SupernodeLayout", "SupernodeAlgorithm"]


def decompose(p: int, mesh_size: int | None) -> tuple[int, int] | None:
    """Split ``p = 8^a * 4^b`` (a, b >= 1); returns ``(a, b)`` or ``None``.

    Without an explicit ``mesh_size = 4^b``, prefers the largest supernode
    grid (smallest mesh) — fewest Cannon start-ups.
    """
    if not is_power_of_two(p):
        return None
    k = ilog2(p)
    if mesh_size is not None:
        if not is_power_of_two(mesh_size) or ilog2(mesh_size) % 2:
            return None
        b = ilog2(mesh_size) // 2
        rem = k - 2 * b
        if b < 1 or rem < 3 or rem % 3:
            return None
        return (rem // 3, b)
    for b in range(1, k // 2 + 1):
        rem = k - 2 * b
        if rem >= 3 and rem % 3 == 0:
            return (rem // 3, b)
    return None


class SupernodeLayout:
    """Coordinate helpers for the ``(I, J, K) × (u, v)`` addressing."""

    __slots__ = ("a", "b", "sigma", "rho")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b
        self.sigma = 1 << a  # supernode grid side (∛s)
        self.rho = 1 << b    # internal mesh side (√r)

    def node(self, I: int, J: int, K: int, u: int, v: int) -> int:
        a, b = self.a, self.b
        sigma, rho = self.sigma, self.rho
        mesh = (gray_code(u % rho) << b) | gray_code(v % rho)
        sup = (
            (gray_code(I % sigma) << (2 * a))
            | (gray_code(J % sigma) << a)
            | gray_code(K % sigma)
        )
        return (sup << (2 * b)) | mesh

    def coords(self, node: int) -> tuple[int, int, int, int, int]:
        a, b = self.a, self.b
        mesh = node & ((1 << (2 * b)) - 1)
        sup = node >> (2 * b)
        v = gray_code_inverse(mesh & ((1 << b) - 1))
        u = gray_code_inverse(mesh >> b)
        mask = (1 << a) - 1
        K = gray_code_inverse(sup & mask)
        J = gray_code_inverse((sup >> a) & mask)
        I = gray_code_inverse(sup >> (2 * a))
        return I, J, K, u, v

    def x_line(self, J: int, K: int, u: int, v: int) -> list[int]:
        """Corresponding processors along the supernode x-axis."""
        return [self.node(x, J, K, u, v) for x in range(self.sigma)]

    def y_line(self, I: int, K: int, u: int, v: int) -> list[int]:
        return [self.node(I, y, K, u, v) for y in range(self.sigma)]

    def z_line(self, I: int, J: int, u: int, v: int) -> list[int]:
        return [self.node(I, J, z, u, v) for z in range(self.sigma)]


class SupernodeAlgorithm(MatmulAlgorithm):
    """A supernode combination: ``p = 8^a·4^b`` with ``n`` divisible by
    ``∛s·√r`` (``mesh_size = 4^b`` explicit, or the largest supernode grid)."""

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
