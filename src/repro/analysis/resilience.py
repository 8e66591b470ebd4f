"""Degradation experiments: how algorithms behave on a faulty machine.

The fault-injection subsystem (:mod:`repro.sim.faults`) makes the machine
lossy; the reliable-delivery layer (:mod:`repro.mpi.reliable`) buys the
result back at the price of retransmissions.  This module measures that
price: for each (algorithm, drop-rate) cell it runs the full multiplication
with :class:`~repro.mpi.reliable.ReliableContext`, verifies the product,
and reports

* **completion** — did the run finish and verify (bounded retries can give
  up, and an unlucky plan can disconnect the machine),
* **slowdown** — simulated time relative to the same algorithm on the
  fault-free machine,
* **retransmission overhead** — resends per application message, and the
  raw dropped/rerouted counters from
  :class:`~repro.sim.tracing.NetworkStats`.

Everything is seeded (the matrix contents by ``seed``, the fault plan by
``plan_seed``), so a sweep is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.abft import ABFTMatmul
from repro.algorithms.registry import get_algorithm
from repro.errors import ReproError
from repro.mpi.reliable import ReliableContext
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineConfig, PortModel

__all__ = [
    "ResiliencePoint",
    "degradation_sweep",
    "completion_rate",
    "transient_scenario",
    "format_resilience_table",
    "RecoveryPoint",
    "recovery_sweep",
    "format_recovery_table",
]


@dataclass(frozen=True)
class ResiliencePoint:
    """One (algorithm, drop-rate) cell of a degradation sweep."""

    algorithm: str
    drop_rate: float
    completed: bool
    error: str | None
    total_time: float | None
    baseline_time: float
    messages_sent: int
    messages_dropped: int
    retransmissions: int
    hops_rerouted: int

    @property
    def slowdown(self) -> float | None:
        """Simulated-time ratio vs the fault-free baseline (None if failed)."""
        if not self.completed or self.baseline_time <= 0:
            return None
        return self.total_time / self.baseline_time


def transient_scenario(
    *,
    seed: int = 0,
    drop_rate: float = 0.01,
    link: tuple[int, int] = (0, 1),
    window: tuple[float, float] = (5.0, 500.0),
) -> FaultPlan:
    """The canonical transient-fault scenario used by tests and benchmarks:
    one windowed link failure plus a global message-drop rate."""
    return (
        FaultPlan(seed=seed)
        .with_link_fault(link[0], link[1], start=window[0], end=window[1])
        .with_drop_rate(drop_rate)
    )


def degradation_sweep(
    algorithms: list[str],
    n: int,
    p: int,
    drop_rates: list[float],
    *,
    seed: int = 0,
    plan_seed: int = 0,
    plan: FaultPlan | None = None,
    t_s: float = 150.0,
    t_w: float = 3.0,
    port_model: PortModel = PortModel.ONE_PORT,
    max_events: int = 5_000_000,
) -> list[ResiliencePoint]:
    """Run each algorithm at each drop rate; returns one point per cell.

    ``plan`` optionally supplies extra faults (link failures, fail-stops)
    layered under every drop rate; the rate itself is applied on top with
    :meth:`~repro.sim.faults.FaultPlan.with_drop_rate`.  Runs that raise a
    :class:`~repro.errors.ReproError` subclass (timeout after bounded
    retries, deadlock, livelock, unreachable route) are recorded as
    failures, not propagated — degradation is the measurement.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    base_plan = plan if plan is not None else FaultPlan(seed=plan_seed)

    points: list[ResiliencePoint] = []
    for key in algorithms:
        algo = get_algorithm(key)
        clean_cfg = MachineConfig.create(
            p, t_s=t_s, t_w=t_w, port_model=port_model
        )
        baseline = algo.run(A, B, clean_cfg, verify=True).total_time
        for rate in drop_rates:
            cfg = clean_cfg.with_faults(base_plan.with_drop_rate(rate))
            try:
                run = algo.run(
                    A, B, cfg, verify=True,
                    context_factory=ReliableContext,
                    max_events=max_events,
                )
            except ReproError as exc:
                points.append(ResiliencePoint(
                    algorithm=key, drop_rate=rate, completed=False,
                    error=f"{type(exc).__name__}: {exc}",
                    total_time=None, baseline_time=baseline,
                    messages_sent=0, messages_dropped=0,
                    retransmissions=0, hops_rerouted=0,
                ))
                continue
            net = run.result.network
            points.append(ResiliencePoint(
                algorithm=key, drop_rate=rate, completed=True, error=None,
                total_time=run.total_time, baseline_time=baseline,
                messages_sent=run.result.total_messages(),
                messages_dropped=net.messages_dropped,
                retransmissions=net.retransmissions,
                hops_rerouted=net.hops_rerouted,
            ))
    return points


@dataclass(frozen=True)
class RecoveryPoint:
    """One (algorithm, recovery mode, kill time) cell of a recovery sweep."""

    algorithm: str
    mode: str
    kill_frac: float
    victims: tuple[int, ...]
    completed: bool
    exact: bool
    error: str | None
    total_time: float | None
    baseline_time: float
    epochs: int
    machine: str
    recovered: bool

    @property
    def overhead(self) -> float | None:
        """Time relative to the fault-free run of the same wrapper
        (None if the run did not complete)."""
        if not self.completed or self.baseline_time <= 0:
            return None
        return self.total_time / self.baseline_time


def recovery_sweep(
    algorithms: list[str],
    n: int,
    p: int,
    kill_fracs: list[float],
    modes: tuple[str, ...] = ("abft", "checkpoint", "none"),
    *,
    seed: int = 0,
    plan_seed: int = 1,
    victims: tuple[int, ...] | None = None,
    t_s: float = 150.0,
    t_w: float = 3.0,
    port_model: PortModel = PortModel.ONE_PORT,
    max_events: int = 20_000_000,
) -> list[RecoveryPoint]:
    """Kill ranks mid-run and measure whether/how each recovery mode
    produces the product.

    For every (algorithm, mode, kill fraction) cell the sweep runs the
    algorithm under :class:`~repro.algorithms.abft.ABFTMatmul` with one
    victim fail-stopping at ``kill_frac`` of the mode's fault-free time,
    and reports completion, exactness against ``A @ B``, recovery
    overhead (faulty time / fault-free time of the same wrapper), restart
    epochs and the machine that produced the result.  Matrices are
    integer-valued so a recovered product can be compared bit-exactly.

    Mode ``"none"`` is detect-only: the expected outcome is a recorded
    :class:`~repro.errors.RankFailedError`, not completion — the sweep
    records it as a non-completed cell whose ``error`` names that type.
    """
    rng = np.random.default_rng(seed)
    A = rng.integers(-4, 5, (n, n)).astype(float)
    B = rng.integers(-4, 5, (n, n)).astype(float)
    exact_C = A @ B
    vrng = np.random.default_rng(plan_seed)

    points: list[RecoveryPoint] = []
    for key in algorithms:
        algo = get_algorithm(key)
        cfg0 = MachineConfig.create(p, t_s=t_s, t_w=t_w, port_model=port_model)
        cell_victims = victims
        if cell_victims is None:
            cell_victims = (int(vrng.integers(1, p)),)
        for mode in modes:
            wrapper = ABFTMatmul(algo, mode=mode)
            baseline = wrapper.run(A, B, cfg0, max_events=max_events)
            base_time = baseline.total_time
            for frac in kill_fracs:
                plan = FaultPlan(seed=plan_seed)
                for v in cell_victims:
                    plan = plan.with_node_failure(v, at=base_time * frac)
                cfg = cfg0.with_faults(plan)
                try:
                    run = ABFTMatmul(algo, mode=mode).run(
                        A, B, cfg, max_events=max_events
                    )
                except ReproError as exc:
                    points.append(RecoveryPoint(
                        algorithm=key, mode=mode, kill_frac=frac,
                        victims=tuple(cell_victims), completed=False,
                        exact=False, error=f"{type(exc).__name__}: {exc}",
                        total_time=None, baseline_time=base_time,
                        epochs=0, machine="-", recovered=False,
                    ))
                    continue
                points.append(RecoveryPoint(
                    algorithm=key, mode=run.mode, kill_frac=frac,
                    victims=tuple(cell_victims), completed=True,
                    exact=bool(np.array_equal(run.C, exact_C)), error=None,
                    total_time=run.total_time, baseline_time=base_time,
                    epochs=run.epochs, machine=run.machine,
                    recovered=run.recovered,
                ))
    return points


def format_recovery_table(points: list[RecoveryPoint]) -> str:
    """Render a recovery sweep as a fixed-width text table."""
    lines = [
        f"{'algorithm':12s} {'mode':>16s} {'kill':>5s} {'victims':>9s} "
        f"{'status':>16s} {'exact':>5s} {'overhead':>9s} {'epochs':>6s} "
        f"{'machine':>7s}"
    ]
    for pt in points:
        vics = ",".join(str(v) for v in pt.victims)
        if pt.completed:
            lines.append(
                f"{pt.algorithm:12s} {pt.mode:>16s} {pt.kill_frac:5.2f} "
                f"{vics:>9s} {'ok':>16s} {str(pt.exact):>5s} "
                f"{pt.overhead:9.3f} {pt.epochs:6d} {pt.machine:>7s}"
            )
        else:
            short = (pt.error or "").split(":")[0]
            lines.append(
                f"{pt.algorithm:12s} {pt.mode:>16s} {pt.kill_frac:5.2f} "
                f"{vics:>9s} {short:>16s} {'-':>5s} {'-':>9s} {'-':>6s} "
                f"{'-':>7s}"
            )
    done = [pt for pt in points if pt.mode != "none"]
    ok = sum(1 for pt in done if pt.completed and pt.exact)
    lines.append(
        f"recovering modes exact-and-complete: {ok}/{len(done)} cells"
    )
    return "\n".join(lines)


def completion_rate(points: list[ResiliencePoint]) -> float:
    """Fraction of sweep cells that completed and verified."""
    if not points:
        return 0.0
    return sum(1 for pt in points if pt.completed) / len(points)


def format_resilience_table(points: list[ResiliencePoint]) -> str:
    """Render a sweep as a fixed-width text table."""
    lines = [
        f"{'algorithm':14s} {'drop':>6s} {'status':>8s} {'time':>12s} "
        f"{'slowdown':>9s} {'retrans':>8s} {'dropped':>8s} {'rerouted':>9s}"
    ]
    for pt in points:
        if pt.completed:
            lines.append(
                f"{pt.algorithm:14s} {pt.drop_rate:6.3f} {'ok':>8s} "
                f"{pt.total_time:12.1f} {pt.slowdown:9.3f} "
                f"{pt.retransmissions:8d} {pt.messages_dropped:8d} "
                f"{pt.hops_rerouted:9d}"
            )
        else:
            short = (pt.error or "").split(":")[0]
            lines.append(
                f"{pt.algorithm:14s} {pt.drop_rate:6.3f} {'FAIL':>8s} "
                f"{short:>12s} {'-':>9s} {'-':>8s} {'-':>8s} {'-':>9s}"
            )
    lines.append(
        f"completion rate: {100.0 * completion_rate(points):.1f}% "
        f"({sum(1 for pt in points if pt.completed)}/{len(points)} cells)"
    )
    return "\n".join(lines)
