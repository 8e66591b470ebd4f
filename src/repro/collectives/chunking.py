"""Chunk splitting/joining for multi-port (rotated-tree) schedules.

Multi-port schedules split an ``M``-word array into ``log N`` nearly equal
flat chunks, one per rotated tree.  Chunks travel as ``(chunk_1d, shape,
dtype_str)`` tuples so receivers that never saw the original array can
reassemble it; the metadata rides free in the word accounting (see
:func:`repro.sim.message.payload_words`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "chunk_sizes",
    "chunk_slices",
    "split_chunks",
    "join_chunks",
    "chunk_header",
    "rebuild_from_header",
]


def chunk_sizes(total: int, nchunks: int) -> list[int]:
    """Element counts of the ``nchunks`` chunks of a ``total``-element
    array: nearly equal, the larger ones first (``np.array_split``'s rule).

    The one statement of the rule: :func:`split_chunks` and the programs'
    block splits slice by it (:func:`chunk_slices`), and the closed-form
    collectives (:mod:`repro.sim.superstep`) size their messages by it.
    """
    base, extra = divmod(total, nchunks)
    return [base + 1] * extra + [base] * (nchunks - extra)


def chunk_slices(total: int, nchunks: int) -> list[slice]:
    """The :func:`chunk_sizes` chunks of ``range(total)``, as slices: how
    blocks are split along one axis (the programs' row and column groups)."""
    slices = []
    start = 0
    for size in chunk_sizes(total, nchunks):
        slices.append(slice(start, start + size))
        start += size
    return slices


def split_chunks(arr: np.ndarray, nchunks: int) -> list[np.ndarray]:
    """Split ``arr`` (any shape) into ``nchunks`` flat chunks.

    Chunk sizes differ by at most one element; chunks may be empty when the
    array is smaller than ``nchunks`` (each still costs a ``t_s`` start-up
    in flight, mirroring the paper's ``M >= log N`` applicability caveat).
    The chunks are views of one contiguous flat buffer.
    """
    if nchunks < 1:
        raise SimulationError(f"nchunks must be >= 1, got {nchunks}")
    flat = np.ascontiguousarray(arr).ravel()
    return [flat[s] for s in chunk_slices(flat.size, nchunks)]


def join_chunks(chunks: list[np.ndarray], shape: tuple[int, ...], dtype=None) -> np.ndarray:
    """Reassemble chunks produced by :func:`split_chunks`."""
    flat = np.concatenate([np.asarray(c) for c in chunks]) if chunks else np.empty(0)
    if dtype is not None:
        flat = flat.astype(dtype, copy=False)
    expected = int(np.prod(shape)) if shape else 1
    if flat.size != expected:
        raise SimulationError(
            f"chunk reassembly size mismatch: got {flat.size} words for shape {shape}"
        )
    return flat.reshape(shape)


def chunk_header(arr: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Metadata needed by a receiver to rebuild ``arr`` from its chunks."""
    return (tuple(arr.shape), str(arr.dtype))


def rebuild_from_header(
    chunks: list[np.ndarray], header: tuple[tuple[int, ...], str]
) -> np.ndarray:
    """Inverse of :func:`split_chunks` given a :func:`chunk_header`."""
    shape, dtype = header
    return join_chunks(chunks, shape, np.dtype(dtype))
