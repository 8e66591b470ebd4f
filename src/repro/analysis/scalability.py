"""Isoefficiency analysis of the Table 2 models (extension).

The paper cites Gupta & Kumar's scalability study [5]; this module extends
the reproduction with the same lens.  With computation time
``T_comp = 2n³·t_c / p`` per processor and communication overhead
``T_comm = a(n,p)·t_s + b(n,p)·t_w``, parallel efficiency is::

    E = T_seq / (p * T_par) = 1 / (1 + p*T_comm / T_seq)

The *isoefficiency function* answers: how fast must the problem (``n``, or
work ``n³``) grow with ``p`` to hold ``E`` constant?  Algorithms with lower
communication overheads have flatter isoefficiency curves — 3D All's
advantage restated asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.models.table2 import communication_overhead, structurally_applicable
from repro.sim.machine import PortModel

__all__ = [
    "efficiency", "format_isoefficiency_table", "isoefficiency_n",
    "isoefficiency_curve", "IsoPoint",
]


def efficiency(
    key: str,
    n: float,
    p: float,
    port: PortModel,
    t_s: float,
    t_w: float,
    t_c: float = 1.0,
) -> float | None:
    """Parallel efficiency at (n, p), or ``None`` if not applicable."""
    if t_c <= 0:
        raise ModelError("efficiency needs t_c > 0 (computation must cost)")
    comm = communication_overhead(key, n, p, port, t_s, t_w)
    if comm is None:
        return None
    t_seq = 2.0 * n ** 3 * t_c
    t_par = t_seq / p + comm
    return t_seq / (p * t_par)


def isoefficiency_n(
    key: str,
    p: float,
    target_efficiency: float,
    port: PortModel,
    t_s: float,
    t_w: float,
    t_c: float = 1.0,
    *,
    n_max: float = 2.0 ** 40,
) -> float | None:
    """Smallest ``n`` achieving the target efficiency at ``p`` processors.

    Bisection over ``n`` (efficiency is monotone increasing in ``n`` for
    all Table 2 models).  ``None`` if unattainable below ``n_max`` or the
    algorithm never applies at this ``p``.
    """
    if not 0 < target_efficiency < 1:
        raise ModelError(
            f"target efficiency must be in (0, 1), got {target_efficiency}"
        )

    def eff(n: float) -> float | None:
        if not structurally_applicable(key, n, p):
            return None
        return efficiency(key, n, p, port, t_s, t_w, t_c)

    lo, hi = 1.0, 2.0
    while hi < n_max:
        e = eff(hi)
        if e is not None and e >= target_efficiency:
            break
        hi *= 2
    else:
        return None
    for _ in range(80):
        mid = (lo + hi) / 2
        e = eff(mid)
        if e is not None and e >= target_efficiency:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class IsoPoint:
    p: float
    n_required: float | None

    @property
    def work(self) -> float | None:
        """The W = n³ problem size the isoefficiency literature tracks."""
        return None if self.n_required is None else self.n_required ** 3


def isoefficiency_curve(
    key: str,
    ps: list[float],
    target_efficiency: float,
    port: PortModel,
    t_s: float,
    t_w: float,
    t_c: float = 1.0,
) -> list[IsoPoint]:
    """``n`` required at each ``p`` to hold the target efficiency."""
    return [
        IsoPoint(p, isoefficiency_n(key, p, target_efficiency, port, t_s, t_w, t_c))
        for p in ps
    ]


def format_isoefficiency_table(
    keys: list[str], ps: list[float], target_efficiency: float,
    port: PortModel, t_s: float, t_w: float,
) -> str:
    """The ``n`` each algorithm needs at each ``p`` (``t_c = 1``), one
    row per ``p``; ``-`` where it is unattainable or never applies."""
    lines = [
        f"n required to hold efficiency E={target_efficiency:g} "
        f"({port.value}, t_s={t_s:g}, t_w={t_w:g}, t_c=1)",
        f"{'p':>10s}" + "".join(f"{k:>14s}" for k in keys),
    ]
    for p in ps:
        row = f"{int(p):10d}"
        for key in keys:
            n = isoefficiency_n(key, p, target_efficiency, port, t_s, t_w)
            row += f"{n:14.0f}" if n is not None else f"{'-':>14s}"
        lines.append(row)
    return "\n".join(lines)
