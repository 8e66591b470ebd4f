"""Graceful-degradation analysis: overhead vs. network-heterogeneity severity.

The paper's Table 2 / Figure 13 winners assume a uniform ``(t_s, t_w)``
on every link.  This module asks the robustness question a service user
actually asks: *how do those winners shift when the network is partially
degraded, and which algorithm degrades most gracefully?*  For each
(algorithm, severity) cell it attaches a seeded
:class:`~repro.sim.scenario.NetworkScenario` of growing severity to the
machine, runs the full multiplication, and reports the **overhead**
(simulated time relative to the same algorithm on the uniform machine).
Because :func:`~repro.sim.scenario.random_heterogeneous` keeps the
affected link set and per-link draw stable across severities, each
algorithm's curve is continuous in severity and the curves are directly
comparable.

Outputs:

* :func:`severity_sweep` — the raw grid of :class:`DegradationPoint`
  cells, one pure function per cell (the sweep service leases the same
  cells to its workers),
* :func:`report_from_points` — a JSON-able report ranking algorithms by
  overhead growth (the *most graceful degrader* first), carrying a
  replay-invariant digest in the chaos-report style; the ``degrade``
  job of :mod:`repro.service.jobs` evaluates the whole report,
* :func:`graceful_region_map` — a region-map variant: for each matrix
  size, which algorithm degrades most gracefully at a given severity,
* ``repro degrade`` — the CLI over that job (``repro report``'s
  ``identities`` artefact pins one report's digest).

Everything is a pure function of its seeds: matrices from ``seed``, the
scenario from ``(profile, severity, scenario_seed)``, no wall-clock
anywhere — a report regenerated months later is bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.algorithms.registry import get_algorithm
from repro.analysis.chaos import _report_digest
from repro.errors import ReproError, SimulationError
from repro.sim.machine import MachineConfig, PortModel
from repro.sim.scenario import (
    PROFILES,
    NetworkScenario,
    background_traffic,
    congested_dimension,
    hotspot,
    random_heterogeneous,
    uniform,
)

__all__ = [
    "DegradationPoint",
    "scenario_for",
    "severity_sweep",
    "sweep_cells",
    "points_from_records",
    "report_from_points",
    "graceful_region_map",
    "format_degradation_table",
    "format_region_map",
]

#: default algorithm pool (filtered by applicability at the chosen n, p)
DEFAULT_ALGORITHMS = ["cannon", "fox", "diagonal2d", "hje", "dns", "3d_all"]


@dataclass(frozen=True)
class DegradationPoint:
    """One (algorithm, severity) cell of a severity sweep."""

    algorithm: str
    severity: float
    completed: bool
    error: str | None
    total_time: float | None
    baseline_time: float
    messages_sent: int
    hops_rerouted: int

    @property
    def overhead(self) -> float | None:
        """Simulated-time ratio vs. the uniform-network baseline
        (``None`` when the run failed)."""
        if not self.completed or self.baseline_time <= 0:
            return None
        return self.total_time / self.baseline_time


def scenario_for(
    profile: str,
    p: int,
    severity: float,
    *,
    seed: int = 0,
    adaptive: bool = True,
) -> NetworkScenario:
    """The named-profile scenario at one severity level.

    ``severity`` maps onto each profile's natural knob: the slowdown
    factor becomes ``1 + severity`` for the structured profiles
    (hotspot / congested dimension / background traffic) and feeds
    :func:`~repro.sim.scenario.random_heterogeneous` directly.  Severity
    0 is always the uniform machine.
    """
    if severity < 0:
        raise SimulationError(f"severity must be >= 0, got {severity}")
    if profile not in PROFILES:
        raise SimulationError(
            f"unknown scenario profile {profile!r} (expected one of {PROFILES})"
        )
    if severity == 0.0 or profile == "uniform":
        sc = uniform()
    elif profile == "random":
        sc = random_heterogeneous(p, severity, seed=seed)
    elif profile == "hotspot":
        sc = hotspot(p, seed % p, 1.0 + severity)
    elif profile == "dimension":
        dim = p.bit_length() - 1
        sc = congested_dimension(p, seed % dim, 1.0 + severity)
    else:
        sc = background_traffic(p, factor=1.0 + severity, seed=seed)
    return sc.with_adaptive_routing(adaptive)


def _run_cell(cell: dict[str, Any]) -> dict[str, Any]:
    """Grid entry point: one (algorithm, severity) record (picklable).

    The baseline is threaded in by the driver (computed once per
    algorithm) so a worker never recomputes it — and every worker
    produces the identical record regardless of sharding.
    """
    rng = np.random.default_rng(cell["seed"])
    n = cell["n"]
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    scenario = scenario_for(
        cell["profile"], cell["p"], cell["severity"],
        seed=cell["scenario_seed"], adaptive=cell["adaptive"],
    )
    config = MachineConfig.create(
        cell["p"], t_s=cell["t_s"], t_w=cell["t_w"],
        port_model=PortModel(cell["port"]), scenario=scenario,
    )
    algo = get_algorithm(cell["algorithm"])
    try:
        run = algo.run(A, B, config, verify=True,
                       max_events=cell["max_events"])
    except ReproError as exc:
        return {
            "algorithm": cell["algorithm"], "severity": cell["severity"],
            "completed": False, "error": f"{type(exc).__name__}: {exc}",
            "total_time": None, "messages_sent": 0, "hops_rerouted": 0,
        }
    res = run.result
    return {
        "algorithm": cell["algorithm"], "severity": cell["severity"],
        "completed": True, "error": None,
        "total_time": res.total_time,
        "messages_sent": res.total_messages(),
        "hops_rerouted": res.network.hops_rerouted,
    }


def severity_sweep(
    algorithms: list[str],
    n: int,
    p: int,
    severities: list[float],
    *,
    profile: str = "random",
    scenario_seed: int = 0,
    seed: int = 0,
    adaptive: bool = True,
    t_s: float = 150.0,
    t_w: float = 3.0,
    port_model: PortModel = PortModel.ONE_PORT,
    max_events: int = 5_000_000,
) -> list[DegradationPoint]:
    """Run each algorithm at each severity; one point per cell.

    Each cell is one pure :func:`_run_cell` call, and baselines (severity
    0 on the uniform machine) are computed once per algorithm inside the
    same grid, so the sweep service, which leases these cells to its
    workers, reproduces it bit for bit.  Runs that raise a
    :class:`~repro.errors.ReproError` are recorded as failed cells, not
    propagated.
    """
    cells = sweep_cells(
        algorithms, n, p, severities,
        profile=profile, scenario_seed=scenario_seed, seed=seed,
        adaptive=adaptive, t_s=t_s, t_w=t_w, port_model=port_model,
        max_events=max_events,
    )
    records = [_run_cell(cell) for cell in cells]
    return points_from_records(algorithms, records)


def sweep_cells(
    algorithms: list[str],
    n: int,
    p: int,
    severities: list[float],
    *,
    profile: str = "random",
    scenario_seed: int = 0,
    seed: int = 0,
    adaptive: bool = True,
    t_s: float = 150.0,
    t_w: float = 3.0,
    port_model: PortModel = PortModel.ONE_PORT,
    max_events: int = 5_000_000,
) -> list[dict[str, Any]]:
    """The plain-data grid cells behind :func:`severity_sweep`.

    One grid evaluates baselines and sweep cells alike: the first
    ``len(algorithms)`` cells are the severity-0 baselines (uniform
    scenario by construction), followed by the (algorithm, severity)
    sweep cells.  Exposed so external executors (the sweep service) can
    shard exactly the same cells through :func:`_run_cell` and reassemble
    with :func:`points_from_records`.
    """
    base = {
        "n": n, "p": p, "profile": profile,
        "scenario_seed": scenario_seed, "seed": seed,
        "adaptive": adaptive, "t_s": t_s, "t_w": t_w,
        "port": port_model.value, "max_events": max_events,
    }
    cells = [dict(base, algorithm=key, severity=0.0) for key in algorithms]
    cells += [
        dict(base, algorithm=key, severity=float(s))
        for key in algorithms
        for s in severities
    ]
    return cells


def points_from_records(
    algorithms: list[str], records: list[dict[str, Any]]
) -> list[DegradationPoint]:
    """Reassemble :func:`_run_cell` records (in :func:`sweep_cells` order)
    into :class:`DegradationPoint` cells, threading each algorithm's
    severity-0 baseline time into its sweep points."""
    baselines = {
        rec["algorithm"]: rec for rec in records[: len(algorithms)]
    }
    points: list[DegradationPoint] = []
    for rec in records[len(algorithms):]:
        baseline = baselines[rec["algorithm"]]
        base_time = baseline["total_time"] if baseline["completed"] else 0.0
        points.append(DegradationPoint(
            algorithm=rec["algorithm"], severity=rec["severity"],
            completed=rec["completed"], error=rec["error"],
            total_time=rec["total_time"], baseline_time=base_time or 0.0,
            messages_sent=rec["messages_sent"],
            hops_rerouted=rec["hops_rerouted"],
        ))
    return points


def _growth(points: list[DegradationPoint]) -> float | None:
    """One algorithm's overhead growth: max overhead minus 1.0 across its
    completed cells (``None`` when any cell failed)."""
    overheads = [pt.overhead for pt in points]
    if any(o is None for o in overheads) or not overheads:
        return None
    return max(overheads) - 1.0


def report_from_points(
    keys: list[str],
    points: list[DegradationPoint],
    *,
    n: int,
    p: int,
    severities: list[float],
    profile: str = "random",
    scenario_seed: int = 0,
    seed: int = 0,
    adaptive: bool = True,
    t_s: float = 150.0,
    t_w: float = 3.0,
    port_model: PortModel = PortModel.ONE_PORT,
) -> dict[str, Any]:
    """Assemble the ranking report from already-evaluated sweep points.

    The single assembly path of the ``degrade`` job: a direct
    ``repro degrade`` and the sweep service evaluate the same cells and
    reach the identical report (and digest) through it.
    """
    per_algo: dict[str, list[DegradationPoint]] = {k: [] for k in keys}
    for pt in points:
        per_algo[pt.algorithm].append(pt)

    ranking = []
    for key in keys:
        growth = _growth(per_algo[key])
        ranking.append({
            "algorithm": key,
            "growth": growth,
            "overheads": {
                f"{pt.severity:g}": pt.overhead for pt in per_algo[key]
            },
        })
    # Most graceful first; failed algorithms sink to the bottom.  Ties
    # break on the name so the ranking is deterministic.
    ranking.sort(
        key=lambda e: (e["growth"] is None, e["growth"], e["algorithm"])
    )

    report: dict[str, Any] = {
        "profile": profile, "n": n, "p": p,
        "severities": [float(s) for s in severities],
        "seed": seed, "scenario_seed": scenario_seed,
        "adaptive_routing": adaptive,
        "t_s": float(t_s), "t_w": float(t_w), "port": port_model.value,
        "algorithms": keys,
        "points": [
            {
                "algorithm": pt.algorithm, "severity": pt.severity,
                "completed": pt.completed,
                "total_time": pt.total_time,
                "baseline_time": pt.baseline_time,
                "overhead": pt.overhead,
                "messages_sent": pt.messages_sent,
                "hops_rerouted": pt.hops_rerouted,
                "detail": pt.error,
            }
            for pt in points
        ],
        "ranking": ranking,
        "most_graceful": ranking[0]["algorithm"] if ranking else None,
    }
    report["digest"] = _report_digest(report)
    return report


def graceful_region_map(
    ns: list[int],
    p: int,
    severity: float,
    *,
    algorithms: list[str] | None = None,
    profile: str = "random",
    scenario_seed: int = 0,
    seed: int = 0,
    t_s: float = 150.0,
    t_w: float = 3.0,
    max_events: int = 5_000_000,
) -> dict[str, Any]:
    """The *most graceful degrader* across matrix sizes at one severity.

    For each ``n`` in ``ns``, runs every applicable algorithm at
    severities ``[severity]`` and records the algorithm whose overhead
    growth is smallest — the region-map analogue of the paper's Figure 13
    winners, but under network degradation instead of a uniform machine.
    """
    pool = algorithms if algorithms is not None else DEFAULT_ALGORITHMS
    rows = []
    for n in ns:
        keys = [k for k in pool if get_algorithm(k).applicable(n, p)]
        if not keys:
            rows.append({"n": n, "winner": None, "growth": {}})
            continue
        points = severity_sweep(
            keys, n, p, [severity],
            profile=profile, scenario_seed=scenario_seed, seed=seed,
            t_s=t_s, t_w=t_w, max_events=max_events,
        )
        per_algo: dict[str, list[DegradationPoint]] = {k: [] for k in keys}
        for pt in points:
            per_algo[pt.algorithm].append(pt)
        growth = {k: _growth(per_algo[k]) for k in keys}
        viable = [k for k in keys if growth[k] is not None]
        winner = (
            min(viable, key=lambda k: (growth[k], k)) if viable else None
        )
        rows.append({"n": n, "winner": winner, "growth": growth})
    return {
        "p": p, "severity": float(severity), "profile": profile,
        "seed": seed, "scenario_seed": scenario_seed,
        "t_s": float(t_s), "t_w": float(t_w),
        "rows": rows,
    }


def format_degradation_table(report: dict[str, Any]) -> str:
    """Render a degradation report as a fixed-width text table."""
    sev = report["severities"]
    header = f"{'algorithm':14s} " + " ".join(
        f"s={s:<8g}" for s in sev
    ) + f" {'growth':>8s}"
    lines = [
        f"graceful degradation: profile={report['profile']} n={report['n']} "
        f"p={report['p']} t_s={report['t_s']:g} t_w={report['t_w']:g} "
        f"seed={report['seed']} scenario_seed={report['scenario_seed']}",
        f"  adaptive routing: {report['adaptive_routing']}   "
        f"digest: {report['digest']}",
        header,
    ]
    for entry in report["ranking"]:
        cells = []
        for s in sev:
            o = entry["overheads"].get(f"{s:g}")
            cells.append(f"{o:<10.3f}" if o is not None else f"{'FAIL':<10s}")
        growth = entry["growth"]
        g = f"{growth:8.3f}" if growth is not None else f"{'-':>8s}"
        lines.append(f"{entry['algorithm']:14s} " + "".join(cells) + g)
    if report["most_graceful"]:
        lines.append(f"most graceful degrader: {report['most_graceful']}")
    return "\n".join(lines)


def format_region_map(region: dict[str, Any]) -> str:
    """Render a graceful-degrader region map as text."""
    lines = [
        f"most graceful degrader by n: p={region['p']} "
        f"severity={region['severity']:g} profile={region['profile']}",
        f"{'n':>6s} {'winner':14s} growth per algorithm",
    ]
    for row in region["rows"]:
        growth = " ".join(
            f"{k}={v:.3f}" if v is not None else f"{k}=FAIL"
            for k, v in sorted(row["growth"].items())
        )
        lines.append(f"{row['n']:6d} {str(row['winner']):14s} {growth}")
    return "\n".join(lines)
