"""The 3D All algorithm (§4.2.2, Algorithm 5) — the paper's headline result.

Like 3D All_Trans but with *identical* initial distributions for ``A`` and
``B``: ``p_{i,j,k}`` holds ``A_{k,f(i,j)}`` and ``B_{k,f(i,j)}``, both in
the Fig. 8 partition.  The only new machinery is the first phase, which
re-shuffles ``B`` with an all-to-all personalized exchange instead of
All_Trans's gather:

1. **All-to-all personalized along y**: ``p_{i,j,k}`` sends ``B^l`` (the
   ``l``-th row group of its ``B`` block, ``n²/(p·∛p)`` words) to
   ``p_{i,l,k}``.  The received set ``B^j_{k,f(i,*)}`` *is* the Fig. 9
   block ``B_{f(k,j),i}`` (the paper's proof of correctness: row group
   ``j`` of ``A``'s row-block ``k`` spans Fig. 9 row ``f(k,j)``; column
   groups ``f(i,0..q-1)`` span column ``i``).
2. **Two all-to-all broadcasts**: the re-shuffled ``B`` blocks along the
   z-direction and the ``A`` blocks along the x-direction, overlapped on
   multi-port nodes.  Afterwards ``p_{i,j,k}`` holds ``A_{k,f(*,j)}`` and
   ``B_{f(*,j),i}`` and computes ``I_{k,i}``.
3. **All-to-all reduction along y** — identical to All_Trans — leaving
   ``C_{k,f(i,j)}`` on ``p_{i,j,k}``: output aligned exactly like input.

Cost (Table 2, one-port): ``(4/3·log p, (n²/p^{2/3})(3(1-1/∛p) +
log p/(6∛p)))`` — the least communication overhead of all eight algorithms
whenever ``p ≤ n^{3/2}`` and ``p ≥ 8``.  Multi-port: ``(log p,
(n²/p^{2/3})(6/log p·(1-1/∛p) + 1/(2∛p)))`` when the phase-1 messages are
big enough for full bandwidth (``n² ≥ p^{4/3}·log ∛p``).

The program itself is the ``q2 = q1`` member of the ``q1 × q2 × q1``
family in :mod:`repro.algorithms.all3d_rect`: with equal sides its column
index ``i·q2 + j`` is the Fig. 8 ``f(i, j)``, its ``g(k, j)`` the Fig. 9
row, and the messages, times and product are the same bit for bit.  This
module keeps what the paper states for the cubic grid only: the key, the
applicability conditions and the ``∛p`` grid.
"""

from __future__ import annotations

from repro.algorithms.all3d_rect import All3DRectAlgorithm
from repro.algorithms.common import require_fig8_grid
from repro.topology.embedding import Grid3DEmbedding
from repro.topology.hypercube import Hypercube

__all__ = ["All3DAlgorithm"]


class All3DAlgorithm(All3DRectAlgorithm):
    """The paper's headline 3D All algorithm (see module doc)."""

    key = "3d_all"
    name = "3D All"
    paper_section = "4.2.2"

    def __init__(self):
        super().__init__()  # no y_side: the cube has one shape

    def check_applicable(self, n: int, p: int) -> None:
        require_fig8_grid(n, p, self.name)

    def _grid(self, cube: Hypercube) -> Grid3DEmbedding:
        return Grid3DEmbedding(cube)
