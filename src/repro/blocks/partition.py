"""The one matrix partition behind every data layout of the paper.

Each algorithm places its operands by cutting an ``n × n`` matrix into
``rows × cols`` equal rectangles, a :class:`BlockGrid`.  The paper's
figures are five shapes of it, for ``q = √p`` or ``∛p``:

* ``(q, q)`` — Figure 1's square blocks ``M_{ij}``;
* ``(1, q)`` / ``(q, 1)`` — Berntsen's and the 2-D Diagonal algorithm's
  column groups of ``A`` and row groups of ``B``;
* ``(q, q²)`` — Figure 8: ``A_{k, f(i,j)}`` with ``f(i,j) = i·∛p + j``;
* ``(q², q)`` — Figure 9, the transposed layout for ``B``.

Extraction returns *copies* (C-contiguous) so simulator payloads are
independent of the source matrix; assembly rebuilds the full matrix from a
dictionary of blocks and is the inverse of extraction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DistributionError

__all__ = ["BlockGrid", "f_index"]


def f_index(i: int, j: int, q: int) -> int:
    """The paper's ``f(i, j) = i·∛p + j`` column-group index (Fig. 8/9)."""
    return i * q + j


class BlockGrid:
    """An ``n × n`` matrix cut into ``rows × cols`` equal rectangles;
    block ``(i, j)`` is row block ``i``, column block ``j``."""

    __slots__ = ("n", "rows", "cols", "height", "width")

    def __init__(self, n: int, rows: int, cols: int):
        for count in (rows, cols):
            if count <= 0:
                raise DistributionError(
                    f"{rows}x{cols} blocks: block counts must be positive"
                )
            if n % count:
                raise DistributionError(
                    f"{rows}x{cols} blocks: matrix size {n} not divisible "
                    f"into {count} groups"
                )
        self.n = n
        self.rows = rows
        self.cols = cols
        self.height = n // rows
        self.width = n // cols

    @property
    def block_shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def extract(self, matrix: np.ndarray, index: tuple[int, int]) -> np.ndarray:
        """A C-contiguous copy of block ``index = (i, j)`` (a copy even
        where the slice is contiguous already, as a row group is)."""
        i, j = index
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DistributionError(
                f"block index ({i},{j}) out of range for "
                f"{self.rows}x{self.cols} blocks"
            )
        h, w = self.height, self.width
        return matrix[i * h:(i + 1) * h, j * w:(j + 1) * w].copy()

    def assemble(self, blocks: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        """Rebuild the full matrix from ``{(i, j): block}``."""
        out = np.zeros((self.n, self.n))
        rows, cols, h, w = self.rows, self.cols, self.height, self.width
        shape = (h, w)
        for (i, j), blk in blocks.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DistributionError(
                    f"block index ({i},{j}) out of range for {rows}x{cols} blocks"
                )
            if blk.shape != shape:
                raise DistributionError(
                    f"block ({i},{j}) has shape {blk.shape}, expected {shape}"
                )
            out[i * h:(i + 1) * h, j * w:(j + 1) * w] = blk
        return out
