"""Tests for chunk split/join used by rotated multi-port schedules."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collectives.chunking import (
    chunk_header,
    chunk_sizes,
    join_chunks,
    rebuild_from_header,
    split_chunks,
)
from repro.errors import SimulationError


class TestSplitJoin:
    def test_even_split(self):
        chunks = split_chunks(np.arange(12.0), 3)
        assert [c.size for c in chunks] == [4, 4, 4]

    def test_uneven_split(self):
        chunks = split_chunks(np.arange(10.0), 3)
        assert [c.size for c in chunks] == [4, 3, 3]

    def test_tiny_array_gives_empty_chunks(self):
        chunks = split_chunks(np.arange(2.0), 4)
        assert [c.size for c in chunks] == [1, 1, 0, 0]

    def test_bad_nchunks(self):
        with pytest.raises(SimulationError):
            split_chunks(np.arange(4.0), 0)

    def test_join_restores_shape(self):
        arr = np.arange(24.0).reshape(4, 6)
        chunks = split_chunks(arr, 5)
        out = join_chunks(chunks, (4, 6))
        assert np.array_equal(out, arr)

    def test_join_size_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            join_chunks([np.arange(3.0)], (2, 2))

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=12),
    )
    def test_roundtrip_any_sizes(self, size, nchunks):
        arr = np.arange(float(size))
        chunks = split_chunks(arr, nchunks)
        assert len(chunks) == nchunks
        assert sum(c.size for c in chunks) == size
        assert np.array_equal(join_chunks(chunks, (size,)), arr)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10),
    )
    def test_splits_exactly_like_array_split(self, r, c, nchunks):
        """``np.array_split`` over the flat array is the reference: same
        sizes, same values, and views of one buffer (no copies)."""
        arr = np.arange(float(r * c)).reshape(r, c)
        chunks = split_chunks(arr, nchunks)
        reference = np.array_split(arr.ravel(), nchunks)
        assert chunk_sizes(arr.size, nchunks) == [ref.size for ref in reference]
        assert len(chunks) == len(reference)
        for chunk, ref in zip(chunks, reference):
            assert np.array_equal(chunk, ref)
            assert chunk.base is not None and np.shares_memory(chunk, arr) == bool(chunk.size)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10),
    )
    def test_roundtrip_2d(self, r, c, nchunks):
        arr = np.arange(float(r * c)).reshape(r, c)
        header = chunk_header(arr)
        out = rebuild_from_header(split_chunks(arr, nchunks), header)
        assert np.array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_header_preserves_dtype(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = rebuild_from_header(split_chunks(arr, 2), chunk_header(arr))
        assert out.dtype == np.float32
