"""Best-algorithm regions over the (n, p) parameter space.

This reimplements the "computer program" of Section 5: for every lattice
point of the (log₂ n, log₂ p) plane, evaluate the Table 2 communication
overheads of the candidate algorithms and record the minimizer.  Figures 13
and 14 of the paper are exactly such maps for a handful of ``(t_s, t_w)``
settings.

Following §5, the candidate set is Cannon, Ho-Johnsson-Edelman (multi-port
machines only — Table 2 has no one-port entry for it), Berntsen, 3DD and
3D All; Algorithm Simple is excluded for its space cost, DNS and 3D
All_Trans because 3DD / 3D All dominate them everywhere (we verify that
domination in the claims benchmark rather than assuming it).

The whole lattice is evaluated in one shot
(:func:`repro.models.table2.winner_grids`, ``backend="model"``).

``backend="sim"`` replaces the Table 2 closed forms with the discrete-event
simulator itself: every candidate is *run* (``timing_only``, ``t_c = 0`` so
only communication is timed, exactly what Table 2 models) and the winner is
the smallest simulated makespan.  The superstep closed form makes this
affordable at machine sizes the event path cannot touch: every candidate's
shift and collective phases advance in closed form, a few engine events per
rank, so a Cannon point at ``p = 2¹⁵`` batches thousands of rounds into one
algebra step.  A point still costs work linear in ``p``, so
simulation-backed maps are meant for *restricted* lattices (a band of rows
around a disputed boundary), not the full default figure lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.models.table2 import communication_overhead, winner_grids
from repro.sim.machine import PortModel

__all__ = [
    "FIGURE_ALGORITHMS",
    "candidates",
    "best_algorithm",
    "region_map",
    "RegionMap",
]

FIGURE_ALGORITHMS: tuple[str, ...] = ("cannon", "hje", "berntsen", "3dd", "3d_all")


def candidates(port: PortModel) -> tuple[str, ...]:
    """The §5 comparison set for a port model (drops HJE on one-port)."""
    if port is PortModel.ONE_PORT:
        return tuple(k for k in FIGURE_ALGORITHMS if k != "hje")
    return FIGURE_ALGORITHMS


def best_algorithm(
    n: float,
    p: float,
    port: PortModel,
    t_s: float,
    t_w: float,
    algorithms: tuple[str, ...] | None = None,
) -> tuple[str, float] | None:
    """The least-communication-overhead algorithm at ``(n, p)``.

    Returns ``(key, modelled_time)`` or ``None`` if no candidate is
    applicable (e.g. ``p > n³``).  This is the per-point query;
    whole-lattice maps go through :func:`region_map`.
    """
    algos = algorithms if algorithms is not None else candidates(port)
    best: tuple[str, float] | None = None
    for key in algos:
        t = communication_overhead(key, n, p, port, t_s, t_w)
        if t is None:
            continue
        if best is None or t < best[1]:
            best = (key, t)
    return best


@dataclass(eq=False)
class RegionMap:
    """Best-algorithm map over a (log₂ n, log₂ p) lattice, array-backed.

    ``winner_idx[i, j]`` indexes ``algorithms`` (``-1`` = no algorithm
    applicable) and ``times[i, j]`` is the winning modelled time (``NaN``
    at holes) for ``n = 2**log2_n[i]`` and ``p = 2**log2_p[j]``.  The
    :attr:`winners` view renders the same data as nested lists of keys
    (``None`` at holes) for presentation code.
    """

    port: PortModel
    t_s: float
    t_w: float
    log2_n: list[float]
    log2_p: list[float]
    algorithms: tuple[str, ...]
    winner_idx: np.ndarray
    times: np.ndarray
    _winners: list[list[str | None]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def winners(self) -> list[list[str | None]]:
        """Winning keys as nested lists (``None`` where nothing applies)."""
        if self._winners is None:
            lut = list(self.algorithms)
            self._winners = [
                [None if k < 0 else lut[k] for k in row]
                for row in self.winner_idx
            ]
        return self._winners

    def counts(self) -> dict[str, int]:
        """How many lattice points each algorithm wins (vectorized)."""
        won = self.winner_idx[self.winner_idx >= 0]
        tally = np.bincount(won, minlength=len(self.algorithms))
        return {
            key: int(c) for key, c in zip(self.algorithms, tally) if c
        }

    def winner_at(self, log2n: float, log2p: float) -> str | None:
        """The winning key at one lattice point (``None`` at a hole).

        Raises :class:`~repro.errors.ModelError` for off-lattice
        coordinates, naming the coordinate and the lattice bounds.
        """
        try:
            i = self.log2_n.index(log2n)
            j = self.log2_p.index(log2p)
        except ValueError:
            raise ModelError(
                f"point (log2_n={log2n:g}, log2_p={log2p:g}) is not on the "
                f"region-map lattice: log2_n spans [{self.log2_n[0]:g}, "
                f"{self.log2_n[-1]:g}] and log2_p spans [{self.log2_p[0]:g}, "
                f"{self.log2_p[-1]:g}] in unit steps"
            ) from None
        k = int(self.winner_idx[i, j])
        return None if k < 0 else self.algorithms[k]

    def fraction_won(self, key: str, *, where=None) -> float:
        """Fraction of applicable lattice points won by ``key``.

        ``where(n, p)`` optionally restricts the region.  The unrestricted
        tally is a pure array reduction; a ``where`` predicate is evaluated
        per lattice point (it is an arbitrary callable).
        """
        applicable = self.winner_idx >= 0
        if where is not None:
            selected = np.array(
                [
                    [bool(where(2.0 ** ln, 2.0 ** lp)) for lp in self.log2_p]
                    for ln in self.log2_n
                ]
            )
            applicable = applicable & selected
        total = int(applicable.sum())
        if not total:
            return 0.0
        if key not in self.algorithms:
            return 0.0
        k = self.algorithms.index(key)
        won = int(((self.winner_idx == k) & applicable).sum())
        return won / total


def _sim_row(
    task: tuple[PortModel, float, float, float, tuple[float, ...], tuple[str, ...]],
) -> tuple[list[str | None], list[float]]:
    """One lattice row of a simulation-backed region map.

    Returns the row's winning keys and times (``None`` / ``NaN`` at
    holes).  Each candidate is timed by the engine (``timing_only=True``,
    ``t_c = 0`` so the makespan is pure communication, matching what
    Table 2 models) instead of evaluated in closed form.  Inapplicable
    candidates are skipped; points where nothing applies stay holes.
    """
    from repro.algorithms import get_algorithm
    from repro.sim.machine import MachineConfig

    port, t_s, t_w, ln, log2_p, algos = task
    n = int(round(2.0 ** ln))
    Z = np.zeros((n, n))
    nan = float("nan")
    row_w: list[str | None] = []
    row_t: list[float] = []
    for lp in log2_p:
        p = int(round(2.0 ** lp))
        best_key: str | None = None
        best_t = nan
        for key in algos:
            algo = get_algorithm(key)
            if not algo.applicable(n, p):
                continue
            run = algo.run(
                Z, Z,
                MachineConfig.create(
                    p, t_s=t_s, t_w=t_w, t_c=0.0, port_model=port
                ),
                timing_only=True,
            )
            t = run.result.total_time
            if best_key is None or t < best_t:
                best_key, best_t = key, t
        row_w.append(best_key)
        row_t.append(best_t)
    return row_w, row_t


def region_map(
    port: PortModel,
    t_s: float,
    t_w: float,
    *,
    log2_n_max: int = 13,
    log2_p_max: int = 20,
    log2_n_min: int = 1,
    log2_p_min: int = 2,
    algorithms: tuple[str, ...] | None = None,
    backend: str = "model",
) -> RegionMap:
    """Compute the best-algorithm map on an integer log₂ lattice.

    Defaults cover ``n`` up to ``2¹³ = 8192`` and ``p`` up to ``2²⁰ ≈ 10⁶``
    (the paper's figures use similar log-log axes; points with ``p > n³``
    have no applicable algorithm and map to ``None``).

    ``backend="model"`` (default) evaluates the Table 2 closed forms over
    the whole lattice in one shot (:func:`repro.models.table2
    .winner_grids`).

    ``backend="sim"`` times each candidate in the discrete-event engine
    instead (see :func:`_sim_row`), one lattice row at a time.  To spread
    the rows over several cores, submit the map to the sweep service
    (``repro submit region-map --backend sim`` then ``repro serve
    --workers N``); it evaluates the same rows and seals the same map.
    Pass a *restricted* lattice — the default figure lattice is
    model-sized, not simulation-sized.
    """
    if log2_n_min > log2_n_max or log2_p_min > log2_p_max:
        raise ModelError("empty lattice for region map")
    if backend not in ("model", "sim"):
        raise ModelError(f"unknown region-map backend {backend!r}")
    log2_n = [float(v) for v in range(log2_n_min, log2_n_max + 1)]
    log2_p = [float(v) for v in range(log2_p_min, log2_p_max + 1)]
    algos = tuple(algorithms if algorithms is not None else candidates(port))
    if not algos:
        raise ModelError("empty candidate set for region map")
    if backend == "model":
        n_values = [2.0 ** ln for ln in log2_n]
        p_values = [2.0 ** lp for lp in log2_p]
        winner_idx, times = winner_grids(
            algos, n_values, p_values, port, t_s, t_w
        )
    else:
        index = {key: k for k, key in enumerate(algos)}
        rows_w: list[list[int]] = []
        rows_t: list[list[float]] = []
        for ln in log2_n:
            row_w, row_t = _sim_row((port, t_s, t_w, ln, tuple(log2_p), algos))
            rows_w.append([-1 if w is None else index[w] for w in row_w])
            rows_t.append(row_t)
        winner_idx = np.array(rows_w, dtype=np.int16)
        times = np.array(rows_t)
    return RegionMap(
        port=port,
        t_s=t_s,
        t_w=t_w,
        log2_n=log2_n,
        log2_p=log2_p,
        algorithms=algos,
        winner_idx=winner_idx,
        times=times,
    )
