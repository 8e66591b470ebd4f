"""Closed-form collective costs — the paper's Table 1.

Each function returns the ``(a, b)`` coefficient pair of the cost
``a·t_s + b·t_w`` for the operation on an ``N``-processor hypercube with
``M``-word messages, for either port model.  The multi-port entries assume
``M ≥ log N`` (enough words to split across all links), the same condition
the paper attaches to them.

The reduction operations are the communication inverses of the broadcasts
(Table 1's footnote), so :func:`reduce_coeffs` equals
:func:`broadcast_coeffs` and :func:`reduce_scatter_coeffs` equals
:func:`allgather_coeffs`.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.sim.machine import PortModel
from repro.util.bits import ilog2, is_power_of_two

__all__ = ["CollectiveCosts"]


def _check(N: int, M: float) -> int:
    if not is_power_of_two(N):
        raise ModelError(f"N must be a power of two, got {N}")
    if M < 0:
        raise ModelError(f"message length must be >= 0, got {M}")
    return ilog2(N)


class CollectiveCosts:
    """Table 1: optimal broadcasting/personalized-communication costs.

    All methods are static and return ``(a, b)`` with total time
    ``a·t_s + b·t_w``.
    """

    @staticmethod
    def broadcast(N: int, M: float, port: PortModel) -> tuple[float, float]:
        """One-to-all broadcast: ``(log N, M·log N)`` / ``(log N, M)``."""
        d = _check(N, M)
        if d == 0:
            return (0.0, 0.0)
        if port is PortModel.ONE_PORT:
            return (d, M * d)
        return (d, M)

    @staticmethod
    def scatter(N: int, M: float, port: PortModel) -> tuple[float, float]:
        """One-to-all personalized: ``(log N, (N-1)M)`` / ``(log N, (N-1)M/log N)``."""
        d = _check(N, M)
        if d == 0:
            return (0.0, 0.0)
        if port is PortModel.ONE_PORT:
            return (d, (N - 1) * M)
        return (d, (N - 1) * M / d)

    # Gather is the communication inverse of scatter.
    gather = scatter

    @staticmethod
    def allgather(N: int, M: float, port: PortModel) -> tuple[float, float]:
        """All-to-all broadcast: ``(log N, (N-1)M)`` / ``(log N, (N-1)M/log N)``."""
        return CollectiveCosts.scatter(N, M, port)

    @staticmethod
    def alltoall(N: int, M: float, port: PortModel) -> tuple[float, float]:
        """All-to-all personalized: ``(log N, N·M·log N/2)`` / ``(log N, N·M/2)``."""
        d = _check(N, M)
        if d == 0:
            return (0.0, 0.0)
        if port is PortModel.ONE_PORT:
            return (d, N * M * d / 2)
        return (d, N * M / 2)

    # Reductions: inverses of the corresponding broadcasts (Table 1 note).
    reduce = broadcast
    reduce_scatter = allgather

    @staticmethod
    def allreduce(N: int, M: float, port: PortModel) -> tuple[float, float]:
        """Reduce-scatter + allgather composition: ``(2 log N, 2(N-1)M/N)``
        one-port, divided by ``log N`` for multi-port (extension; not a
        Table 1 row)."""
        d = _check(N, M)
        if d == 0:
            return (0.0, 0.0)
        b = 2 * (N - 1) * M / N
        if port is PortModel.MULTI_PORT:
            b /= d
        return (2 * d, b)

    @staticmethod
    def multi_port_condition(N: int, M: float) -> bool:
        """The paper's ``M ≥ log N`` validity condition for multi-port entries."""
        d = _check(N, M)
        return M >= d

    @staticmethod
    def evaluate(coeffs: tuple[float, float], t_s: float, t_w: float) -> float:
        a, b = coeffs
        return a * t_s + b * t_w
