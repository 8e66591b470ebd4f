"""Parameter sweeps and crossover finding over the analytic models.

Utilities behind the "where does algorithm X overtake Y?" questions the
paper answers with its region figures: 1-D sweeps along ``n``, ``p`` or
``t_s``/``t_w`` with bisection for the crossover location.

Sweeps along ``n`` or ``p`` evaluate the whole value axis in one shot
(:func:`repro.models.table2.overhead_grid`); sweeps along ``t_s``/``t_w``
evaluate the Table 2 coefficients once per algorithm (they do not vary
along those axes) and expand the linear form per value.  Either way each
sample is bit-identical to :func:`~repro.models.table2
.communication_overhead` at that point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.models.params import check_np
from repro.models.table2 import (
    LatticeAxes,
    communication_overhead,
    overhead_coefficients,
    overhead_grid,
)
from repro.sim.machine import PortModel

__all__ = ["sweep", "crossover", "SweepPoint"]

_VARIABLES = ("n", "p", "t_s", "t_w")


@dataclass(frozen=True)
class SweepPoint:
    """One sample of a sweep: the variable value and per-algorithm times."""

    value: float
    times: dict[str, float | None]

    def best(self) -> str | None:
        """The least-time applicable algorithm at this sample (or None)."""
        valid = {k: v for k, v in self.times.items() if v is not None}
        if not valid:
            return None
        return min(valid, key=valid.get)


def sweep(
    algorithms: tuple[str, ...],
    variable: str,
    values: list[float],
    *,
    n: float = 256,
    p: float = 64,
    port: PortModel = PortModel.ONE_PORT,
    t_s: float = 150.0,
    t_w: float = 3.0,
) -> list[SweepPoint]:
    """Evaluate the Table 2 overheads along one axis.

    ``variable`` is ``"n"``, ``"p"``, ``"t_s"`` or ``"t_w"``; the other
    parameters stay fixed at the keyword values.
    """
    if variable not in _VARIABLES:
        raise ModelError(f"unknown sweep variable {variable!r}")
    algorithms = tuple(algorithms)
    holes = [None] * len(values)
    columns: dict[str, list[float | None]] = {}
    if variable in ("n", "p"):
        n_values = values if variable == "n" else [n]
        p_values = values if variable == "p" else [p]
        for vn in n_values:
            for vp in p_values:
                check_np(vn, vp)
        axes = LatticeAxes(n_values, p_values)
        for key in algorithms:
            grid = overhead_grid(
                key, n_values, p_values, port, t_s, t_w, axes=axes
            )
            columns[key] = holes if grid is None else [
                None if t != t else t for t in grid.ravel().tolist()
            ]
    else:
        # t_s / t_w axes: the (a, b) pair is constant along the sweep, so
        # evaluate it once and expand the linear form a·t_s + b·t_w.
        check_np(n, p)
        for key in algorithms:
            coeffs = overhead_coefficients(key, n, p, port)
            if coeffs is None:
                columns[key] = holes
            elif variable == "t_s":
                columns[key] = [coeffs[0] * v + coeffs[1] * t_w for v in values]
            else:
                columns[key] = [coeffs[0] * t_s + coeffs[1] * v for v in values]
    return [
        SweepPoint(
            value=value,
            times={key: columns[key][i] for key in algorithms},
        )
        for i, value in enumerate(values)
    ]


def crossover(
    key_a: str,
    key_b: str,
    variable: str,
    lo: float,
    hi: float,
    *,
    n: float = 256,
    p: float = 64,
    port: PortModel = PortModel.ONE_PORT,
    t_s: float = 150.0,
    t_w: float = 3.0,
    iterations: int = 60,
) -> float | None:
    """The ``variable`` value where algorithms A and B trade places.

    Bisects ``[lo, hi]``; returns ``None`` when the sign of
    ``time_A - time_B`` does not change over the interval (no crossover)
    or either model is inapplicable at an endpoint.  Each point is
    evaluated exactly once: the endpoint differences are computed up
    front and the surviving endpoint's value is reused as the bracket
    shrinks.
    """
    if variable not in _VARIABLES:
        raise ModelError(f"unknown sweep variable {variable!r}")

    def diff(value: float) -> float | None:
        at = {"n": n, "p": p, "t_s": t_s, "t_w": t_w, variable: value}
        point = (at["n"], at["p"], port, at["t_s"], at["t_w"])
        time_a = communication_overhead(key_a, *point)
        time_b = communication_overhead(key_b, *point)
        if time_a is None or time_b is None:
            return None
        return time_a - time_b

    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo is None or d_hi is None or d_lo * d_hi > 0:
        return None
    for _ in range(iterations):
        mid = (lo + hi) / 2
        d_mid = diff(mid)
        if d_mid is None:
            return None
        if d_lo * d_mid <= 0:
            hi = mid
        else:
            lo = mid
            d_lo = d_mid
    return (lo + hi) / 2
