"""Fault-tolerance bench: completion and overhead on a lossy machine.

Sweeps drop-rate × algorithm with the reliable-delivery layer
(:class:`~repro.mpi.reliable.ReliableContext`) over the deterministic
fault-injection subsystem, and records

* completion rate (every cell must finish and verify),
* slowdown vs the fault-free baseline,
* retransmission overhead (resends per application message),

plus a smoke check of the canonical transient scenario (windowed link
failure + 1% drops) that the CI runs on every push.

Written to ``benchmarks/results/fault_tolerance.txt``.
"""

import pytest

from _report import write_report
from repro.analysis.report import format_table
from repro.analysis.resilience import (
    completion_rate,
    degradation_sweep,
    transient_scenario,
)
from repro.mpi.reliable import ReliableContext
from repro.sim.machine import MachineConfig

#: algorithm -> an applicable (n, p) point on a small machine
CASES = {
    "cannon": (16, 16),
    "fox": (16, 16),
    "berntsen": (8, 8),
    "3d_all": (8, 8),
}
DROP_RATES = [0.0, 0.01, 0.05]

_rows: list[list[str]] = []


@pytest.mark.parametrize("key", sorted(CASES))
def test_degradation_sweep(benchmark, key):
    n, p = CASES[key]
    points = benchmark(
        degradation_sweep, [key], n, p, DROP_RATES, plan_seed=3
    )
    assert completion_rate(points) == 1.0
    for pt in points:
        assert pt.completed, pt.error
        assert pt.slowdown is not None and pt.slowdown >= 1.0
        if pt.drop_rate == 0.0:
            # nothing to lose: the reliable layer never retransmits
            assert pt.retransmissions == 0
        row = [
            key,
            f"{pt.drop_rate:.3f}",
            f"{pt.total_time:.0f}",
            f"{pt.slowdown:.2f}",
            f"{pt.retransmissions}",
            f"{pt.retransmission_overhead:.4f}",
        ]
        if row not in _rows:
            _rows.append(row)


@pytest.mark.parametrize("key", sorted(CASES))
def test_transient_scenario_smoke(benchmark, key):
    """The canonical transient fault (windowed link death + 1% drops)."""
    import numpy as np

    from repro.algorithms.registry import get_algorithm

    n, p = CASES[key]
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    cfg = MachineConfig.create(p, faults=transient_scenario(seed=5))
    algo = get_algorithm(key)

    run = benchmark(
        algo.run, A, B, cfg,
        verify=True, context_factory=ReliableContext, max_events=2_000_000,
    )
    net = run.result.network
    # every loss must have been recovered by a resend (the run verified)
    if net.messages_dropped:
        assert net.retransmissions >= 1


def test_write_fault_report(benchmark):
    def render():
        return format_table(
            ["algorithm", "drop rate", "time", "slowdown",
             "retrans", "retrans/msg"],
            _rows,
            title="Fault tolerance: reliable delivery on lossy small cubes "
                  "(baseline = fault-free run)",
        )

    assert write_report("fault_tolerance", benchmark(render)).exists()
