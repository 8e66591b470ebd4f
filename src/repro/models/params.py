"""Small helpers shared by the analytic models."""

from __future__ import annotations

import math

from repro.errors import ModelError

__all__ = ["lg", "check_np"]


def lg(x: float) -> float:
    """Base-2 logarithm (the paper's ``log``)."""
    if x <= 0:
        raise ModelError(f"log of non-positive value {x}")
    return math.log2(x)


def check_np(n: float, p: float) -> None:
    """Validate the model domain (n, p >= 1)."""
    if n < 1 or p < 1:
        raise ModelError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
