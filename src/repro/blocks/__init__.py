"""Matrix block partitions used by the paper's data distributions."""

from repro.blocks.partition import BlockGrid, f_index

__all__ = ["BlockGrid", "f_index"]
