"""Table 2: per-algorithm communication overheads, at points and over lattices.

Every entry is an ``(a, b)`` coefficient pair — communication time is
``a·t_s + b·t_w`` — as a function of matrix size ``n`` and processor count
``p``.  These are the exact closed forms printed in Table 2 of the paper
and are what the paper's own analysis program (and therefore Figures 13 and
14) evaluates.

Formulas are continuous in ``n`` and ``p``; applicability *conditions*
(the ``p ≤ n^k`` structural limits of Table 3 and the minimum message sizes
for multi-port bandwidth in Table 2's last column) are modelled separately
and consulted by :func:`overhead_coefficients` / :func:`coefficient_grids`.

Multi-port fallback: where a Table 2 multi-port entry carries a message-
size condition (e.g. 3D All needs ``n² ≥ p^{4/3} log ∛p`` to split phase-1
messages across all links), we fall back to the paper's stated degraded
variant when available (3D All's second multi-port row) and otherwise to
the one-port coefficients, since rotated-tree chunking buys nothing once
messages are shorter than the link count.

One table, two input shapes
---------------------------
Each formula and condition is written once, over a *primitives record*
``ax`` (``n``, ``n2``, ``sq`` = √p, ``cb`` = ∛p, ``p23``, ``p43``, ``lgp``,
``lgsq``, ``lgcb``), with ``+ − × ÷`` and comparisons only.
:func:`overhead_coefficients` evaluates it on one point's primitives
(Python floats), :func:`coefficient_grids` on a :class:`LatticeAxes`
(NumPy vectors that broadcast to ``(N, P)`` grids).  A grid cell is
**bit-identical** (``==``, not ``allclose``) to the point evaluation
there, holes included (``NaN`` / ``None``), because:

* the transcendental primitives (``p**0.5``, ``p**(1/3)``, ``log₂``, …)
  are never vectorized — ``pow``/``log2`` are not guaranteed identically
  rounded between libm entry points — but computed by one Python-float
  function per point or per lattice **axis** value (the 13×19 default
  lattice needs 19 square roots, not 247);
* everything combined *across* axes is an IEEE-exact elementwise op,
  correctly rounded and therefore the same on a float and on an array
  element, in the one evaluation order the formula spells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.models.params import check_np, lg
from repro.sim.machine import PortModel

__all__ = [
    "OverheadModel",
    "OVERHEAD_MODELS",
    "overhead_coefficients",
    "communication_overhead",
    "structurally_applicable",
    "LatticeAxes",
    "coefficient_grids",
    "overhead_grid",
    "winner_grids",
]

Coeffs = tuple[float, float]


# ---------------------------------------------------------------------------
# primitives records
# ---------------------------------------------------------------------------


def _p_primitives(p: float) -> tuple[float, ...]:
    """``(√p, ∛p, p^⅔, p^(4/3), lg p, lg √p, lg ∛p)`` of one ``p``."""
    return (
        p ** 0.5, p ** (1 / 3), p ** (2 / 3), p ** (4 / 3),
        lg(p), lg(p ** 0.5), lg(p ** (1 / 3)),
    )


class _PointAxes:
    """The formula primitives at one ``(n, p)``, as Python floats."""

    __slots__ = ("n", "p", "n2", "sq", "cb", "p23", "p43", "lgp", "lgsq", "lgcb")

    def __init__(self, n: float, p: float):
        self.n = n
        self.p = p
        self.n2 = n * n
        (self.sq, self.cb, self.p23, self.p43,
         self.lgp, self.lgsq, self.lgcb) = _p_primitives(p)


class LatticeAxes:
    """Per-axis primitive vectors for one ``(n_values, p_values)`` lattice.

    Holds every power/log primitive the Table 2 formulas need, computed
    with Python scalar arithmetic (see the module docstring for why), as
    NumPy vectors: ``p``-derived primitives are rows of shape ``(P,)``,
    ``n``-derived ones columns of shape ``(N, 1)``, so formula code
    broadcasts them straight into ``(N, P)`` grids.
    """

    def __init__(self, n_values, p_values):
        """Build the axes from iterables of ``n`` and ``p`` values."""
        n = [float(v) for v in n_values]
        p = [float(v) for v in p_values]
        self.shape = (len(n), len(p))
        #: n as a column, p as a row
        self.n = np.array(n)[:, None]
        self.p = np.array(p)
        self.n2 = self.n * self.n
        (self.sq, self.cb, self.p23, self.p43,
         self.lgp, self.lgsq, self.lgcb) = np.array(
            [_p_primitives(v) for v in p]
        ).reshape(len(p), 7).T
        self._n_pow: dict[float, np.ndarray] = {}
        self._n_list = n

    def n_pow(self, exponent: float) -> np.ndarray:
        """``n ** exponent`` as a column (Python scalar pow, memoized)."""
        col = self._n_pow.get(exponent)
        if col is None:
            col = np.array([v ** exponent for v in self._n_list])[:, None]
            self._n_pow[exponent] = col
        return col


# ---------------------------------------------------------------------------
# one-port entries.  ``k * ax.n * ax.n`` keeps the paper's left-to-right
# order: (k·n)·n and k·(n·n) round differently for general n.
# ---------------------------------------------------------------------------


def _simple_one(ax):
    return (ax.lgp, 2 * ax.n * ax.n / ax.sq * (1 - 1 / ax.sq))


def _cannon_one(ax):
    return (
        2 * (ax.sq - 1) + ax.lgp,
        ax.n2 / ax.sq * (2 - 2 / ax.sq + ax.lgp / ax.sq),
    )


def _berntsen_one(ax):
    return (
        2 * (ax.cb - 1) + ax.lgp,
        ax.n2 / ax.p23 * (3 * (1 - 1 / ax.cb) + 2 * ax.lgp / (3 * ax.cb)),
    )


def _dns_one(ax):
    return (5 / 3 * ax.lgp, ax.n2 / ax.p23 * (5 / 3) * ax.lgp)


def _3dd_one(ax):
    return (4 / 3 * ax.lgp, ax.n2 / ax.p23 * (4 / 3) * ax.lgp)


def _all_trans_one(ax):
    return (
        4 / 3 * ax.lgp,
        ax.n2 / ax.p23 * (3 * (1 - 1 / ax.cb) + ax.lgp / 3),
    )


def _3d_all_one(ax):
    return (
        4 / 3 * ax.lgp,
        ax.n2 / ax.p23 * (3 * (1 - 1 / ax.cb) + ax.lgp / (6 * ax.cb)),
    )


# ---------------------------------------------------------------------------
# multi-port entries
# ---------------------------------------------------------------------------


def _simple_multi(ax):
    return (ax.lgp / 2, ax.n2 / (ax.sq * ax.lgsq) * (1 - 1 / ax.sq))


def _cannon_multi(ax):
    return (
        ax.sq - 1 + ax.lgp / 2,
        ax.n2 / ax.sq * (1 - 1 / ax.sq + ax.lgp / (2 * ax.sq)),
    )


def _hje_multi(ax):
    return (
        ax.sq - 1 + ax.lgp / 2,
        ax.n2 / ax.sq
        * (2 / ax.lgp - 2 / (ax.sq * ax.lgp) + ax.lgp / (2 * ax.sq)),
    )


def _berntsen_multi(ax):
    return (
        ax.cb - 1 + 2 / 3 * ax.lgp,
        ax.n2 / ax.p23
        * ((1 + 3 / ax.lgp) * (1 - 1 / ax.cb) + ax.lgp / (3 * ax.cb)),
    )


def _dns_multi(ax):
    return (4 / 3 * ax.lgp, 4 * ax.n * ax.n / ax.p23)


def _3dd_multi(ax):
    return (ax.lgp, 3 * ax.n * ax.n / ax.p23)


def _all_trans_multi(ax):
    return (ax.lgp, ax.n2 / ax.p23 * (6 / ax.lgp * (1 - 1 / ax.cb) + 1))


def _3d_all_multi_full(ax):
    return (
        ax.lgp,
        ax.n2 / ax.p23 * (6 / ax.lgp * (1 - 1 / ax.cb) + 1 / (2 * ax.cb)),
    )


def _3d_all_multi_partial(ax):
    # Multi-port usable only for phases 2/3; phase 1 keeps its one-port
    # t_w term log p/(6·∛p) — the second 3D All row of Table 2.
    return (
        ax.lgp,
        ax.n2 / ax.p23 * (6 / ax.lgp * (1 - 1 / ax.cb) + ax.lgp / (6 * ax.cb)),
    )


# ---------------------------------------------------------------------------
# conditions (Table 2 last column: minimum sizes for multi-port bandwidth)
# ---------------------------------------------------------------------------


def _cond_simple(ax):
    return ax.n2 >= ax.p * ax.lgsq


def _cond_hje(ax):
    return ax.n >= ax.sq * ax.lgsq


def _cond_p_logcb(ax):
    return ax.n2 >= ax.p * ax.lgcb


def _cond_p23_logcb(ax):
    return ax.n2 >= ax.p23 * ax.lgcb


def _cond_3d_all_full(ax):
    return ax.n2 >= ax.p43 * ax.lgcb


@dataclass(frozen=True)
class OverheadModel:
    """Table 2 row for one algorithm.

    Every callable takes a primitives record (a point's or a
    :class:`LatticeAxes`).  ``one_port`` is ``None`` for
    Ho-Johnsson-Edelman, which Table 2 lists for multi-port machines only
    (one-port it degenerates to Cannon with extra start-ups).
    ``multi_port_condition`` is the Table 2 "Conditions" entry — when it
    fails, ``multi_port_fallback`` (if any, where its own
    ``fallback_condition`` holds) is used, then the one-port coefficients.
    """

    key: str
    one_port: Callable | None
    multi_port: Callable
    multi_port_condition: Callable | None = None
    multi_port_fallback: Callable | None = None
    fallback_condition: Callable | None = None
    #: Table 3 structural limit: p <= n**p_limit_exponent
    p_limit_exponent: float = 2.0
    #: smallest processor count forming the algorithm's grid
    min_p: int = 4


OVERHEAD_MODELS: dict[str, OverheadModel] = {
    m.key: m
    for m in [
        OverheadModel(
            "simple", _simple_one, _simple_multi, _cond_simple,
            p_limit_exponent=2.0, min_p=4,
        ),
        OverheadModel(
            "cannon", _cannon_one, _cannon_multi, None,
            p_limit_exponent=2.0, min_p=4,
        ),
        OverheadModel(
            "hje", None, _hje_multi, _cond_hje,
            p_limit_exponent=2.0, min_p=4,
        ),
        OverheadModel(
            "berntsen", _berntsen_one, _berntsen_multi, _cond_p_logcb,
            p_limit_exponent=1.5, min_p=8,
        ),
        OverheadModel(
            "dns", _dns_one, _dns_multi, _cond_p23_logcb,
            p_limit_exponent=3.0, min_p=8,
        ),
        OverheadModel(
            "3dd", _3dd_one, _3dd_multi, _cond_p23_logcb,
            p_limit_exponent=3.0, min_p=8,
        ),
        OverheadModel(
            "3d_all_trans", _all_trans_one, _all_trans_multi, _cond_p_logcb,
            p_limit_exponent=1.5, min_p=8,
        ),
        OverheadModel(
            "3d_all", _3d_all_one, _3d_all_multi_full, _cond_3d_all_full,
            multi_port_fallback=_3d_all_multi_partial,
            fallback_condition=_cond_p_logcb,
            p_limit_exponent=1.5, min_p=8,
        ),
    ]
}


def structurally_applicable(key: str, n: float, p: float) -> bool:
    """Table 3's ``p ≤ n^k`` limit plus the minimum grid size."""
    model = OVERHEAD_MODELS.get(key)
    if model is None:
        return False
    return p >= model.min_p and p <= n ** model.p_limit_exponent


# ---------------------------------------------------------------------------
# at a point
# ---------------------------------------------------------------------------


def overhead_coefficients(
    key: str, n: float, p: float, port: PortModel
) -> Coeffs | None:
    """The Table 2 ``(a, b)`` pair, or ``None`` when not applicable.

    ``None`` is returned when the algorithm cannot run at all at this
    ``(n, p)`` (structural limit), has no Table 2 row (the 2-D Diagonal
    stepping stone) or has no entry for the port model (HJE one-port).
    Multi-port message-size conditions trigger the documented fallbacks
    rather than ``None``.
    """
    check_np(n, p)
    model = OVERHEAD_MODELS.get(key)
    if model is None or p < model.min_p or p > n ** model.p_limit_exponent:
        return None
    one = model.one_port
    if port is PortModel.ONE_PORT and one is None:
        return None
    ax = _PointAxes(n, p)
    if port is PortModel.ONE_PORT:
        return one(ax)
    cond = model.multi_port_condition
    if cond is None or cond(ax):
        return model.multi_port(ax)
    fallback = model.multi_port_fallback
    if fallback is not None and model.fallback_condition(ax):
        return fallback(ax)
    return one(ax) if one is not None else model.multi_port(ax)


def communication_overhead(
    key: str, n: float, p: float, port: PortModel, t_s: float, t_w: float
) -> float | None:
    """Total modelled communication time, or ``None`` if not applicable."""
    coeffs = overhead_coefficients(key, n, p, port)
    if coeffs is None:
        return None
    a, b = coeffs
    return a * t_s + b * t_w


# ---------------------------------------------------------------------------
# over a lattice
# ---------------------------------------------------------------------------


def coefficient_grids(
    key: str,
    n_values,
    p_values,
    port: PortModel,
    *,
    axes: LatticeAxes | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Table 2 ``(a, b)`` grids over a lattice, or ``None`` for no entry.

    Returns two float arrays of shape ``(len(n_values), len(p_values))``
    with ``NaN`` at every cell where :func:`overhead_coefficients` would
    return ``None`` for a structural reason (``p < min_p`` / ``p > n^k``).
    Returns ``None`` when the combination can never yield coefficients
    (unknown key, or HJE one-port).

    ``axes`` lets callers share one :class:`LatticeAxes` across the whole
    algorithm set instead of recomputing the primitives per algorithm.
    """
    model = OVERHEAD_MODELS.get(key)
    if model is None or (port is PortModel.ONE_PORT and model.one_port is None):
        return None
    ax = axes if axes is not None else LatticeAxes(n_values, p_values)
    # Formula cells outside the structural domain are computed then masked;
    # divisions there may hit lg(p) = 0 etc., hence the errstate guard.
    # The masking also broadcasts per-axis rows like ``ax.lgp`` to (N, P).
    with np.errstate(all="ignore"):
        applicable = (ax.p >= model.min_p) & (
            ax.p <= ax.n_pow(model.p_limit_exponent)
        )
        if port is PortModel.ONE_PORT:
            a, b = model.one_port(ax)
        else:
            a, b = model.multi_port(ax)
            if model.multi_port_condition is not None:
                # fallback chain, as in overhead_coefficients: degraded
                # multi-port row, then one-port, then (HJE) the
                # multi-port row itself
                else_a, else_b = model.one_port(ax) if model.one_port else (a, b)
                if model.multi_port_fallback is not None:
                    fb_ok = model.fallback_condition(ax)
                    fb_a, fb_b = model.multi_port_fallback(ax)
                    else_a = np.where(fb_ok, fb_a, else_a)
                    else_b = np.where(fb_ok, fb_b, else_b)
                cond = model.multi_port_condition(ax)
                a = np.where(cond, a, else_a)
                b = np.where(cond, b, else_b)
        a = np.where(applicable, a, np.nan)
        b = np.where(applicable, b, np.nan)
    return a, b


def overhead_grid(
    key: str,
    n_values,
    p_values,
    port: PortModel,
    t_s: float,
    t_w: float,
    *,
    axes: LatticeAxes | None = None,
) -> np.ndarray | None:
    """Modelled communication-time grid ``a·t_s + b·t_w`` (``NaN`` holes).

    ``None`` when the ``(key, port)`` combination has no Table 2 entry;
    otherwise bit-identical per cell to :func:`communication_overhead`.
    """
    grids = coefficient_grids(key, n_values, p_values, port, axes=axes)
    if grids is None:
        return None
    a, b = grids
    return a * t_s + b * t_w


def winner_grids(
    algorithms: tuple[str, ...],
    n_values,
    p_values,
    port: PortModel,
    t_s: float,
    t_w: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked-argmin winner selection over a candidate set.

    Returns ``(winner_idx, times)`` of shape ``(len(n_values),
    len(p_values))``: ``winner_idx[i, j]`` indexes into ``algorithms``
    (``-1`` where no candidate applies) and ``times[i, j]`` is the winning
    modelled time (``NaN`` at holes).  Ties resolve to the earliest
    algorithm in ``algorithms`` — the same rule as a strict ``<`` scan —
    so the result is bit-identical to
    :func:`repro.analysis.regions.best_algorithm` applied cellwise.
    """
    ax = LatticeAxes(n_values, p_values)
    stack = np.full((len(algorithms),) + ax.shape, np.inf)
    any_applicable = np.zeros(ax.shape, dtype=bool)
    for k, key in enumerate(algorithms):
        t = overhead_grid(key, n_values, p_values, port, t_s, t_w, axes=ax)
        if t is None:
            continue
        valid = ~np.isnan(t)
        stack[k][valid] = t[valid]
        any_applicable |= valid
    winner_idx = np.where(
        any_applicable, np.argmin(stack, axis=0), -1
    ).astype(np.int16)
    times = np.where(any_applicable, np.min(stack, axis=0), np.nan)
    return winner_idx, times
