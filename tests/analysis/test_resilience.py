"""Tests for the degradation experiments (repro.analysis.resilience)."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.analysis.resilience import (
    ResiliencePoint,
    completion_rate,
    degradation_sweep,
    format_resilience_table,
    transient_scenario,
)
from repro.mpi.reliable import ReliableContext
from repro.sim import FaultPlan, MachineConfig


def _point(**kw) -> ResiliencePoint:
    base = dict(
        algorithm="cannon", drop_rate=0.01, completed=True, error=None,
        total_time=200.0, baseline_time=100.0, messages_sent=50,
        messages_dropped=3, retransmissions=5, hops_rerouted=0,
    )
    base.update(kw)
    return ResiliencePoint(**base)


class TestResiliencePoint:
    def test_slowdown(self):
        assert _point().slowdown == pytest.approx(2.0)
        assert _point(completed=False, total_time=None).slowdown is None


class TestTransientScenario:
    def test_canonical_shape(self):
        plan = transient_scenario(seed=5)
        assert plan.seed == 5
        assert plan.drop_rate == pytest.approx(0.01)
        assert plan.link_dead(0, 1, 5.0)
        assert not plan.link_dead(0, 1, 500.0)  # window closed
        assert plan.reroute

    def test_parameterized(self):
        plan = transient_scenario(
            drop_rate=0.05, link=(2, 3), window=(0.0, 10.0)
        )
        assert plan.drop_rate == pytest.approx(0.05)
        assert plan.link_dead(3, 2, 0.0)
        assert not plan.link_dead(0, 1, 0.0)

    @pytest.mark.parametrize(
        "key,n,p",
        [("cannon", 16, 16), ("fox", 16, 16), ("berntsen", 8, 8), ("3d_all", 8, 8)],
    )
    def test_reliable_delivery_survives_it(self, key, n, p):
        """The windowed link death plus 1 % drops: the run verifies and
        every lost message was resent."""
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, faults=transient_scenario(seed=5))
        run = get_algorithm(key).run(
            A, B, cfg, verify=True, context_factory=ReliableContext,
            max_events=2_000_000,
        )
        net = run.result.network
        assert net.retransmissions >= (1 if net.messages_dropped else 0)


class TestDegradationSweep:
    def test_cannon_sweep_completes(self):
        points = degradation_sweep(
            ["cannon"], 8, 4, [0.0, 0.05], t_s=10.0, t_w=1.0
        )
        assert len(points) == 2
        assert completion_rate(points) == 1.0
        clean, lossy = points
        assert clean.drop_rate == 0.0
        assert clean.retransmissions == 0
        assert clean.slowdown >= 1.0  # acks are not free
        assert lossy.slowdown >= clean.slowdown or lossy.completed

    def test_sweep_is_reproducible(self):
        kw = dict(t_s=10.0, t_w=1.0, plan_seed=3)
        a = degradation_sweep(["cannon"], 8, 4, [0.05], **kw)
        b = degradation_sweep(["cannon"], 8, 4, [0.05], **kw)
        assert a == b

    def test_extra_plan_layered_under_rates(self):
        plan = FaultPlan(seed=1).with_link_fault(0, 1)
        points = degradation_sweep(
            ["cannon"], 8, 4, [0.0], plan=plan, t_s=10.0, t_w=1.0
        )
        assert points[0].completed
        assert points[0].hops_rerouted >= 1

    def test_impossible_cell_recorded_not_raised(self):
        """A plan that isolates a node makes the run fail; the sweep
        records the failure instead of propagating it."""
        plan = (FaultPlan(seed=1)
                .with_link_fault(0, 1).with_link_fault(1, 3))
        points = degradation_sweep(
            ["cannon"], 8, 4, [0.0], plan=plan, t_s=10.0, t_w=1.0
        )
        pt = points[0]
        assert not pt.completed
        assert "UnreachableError" in pt.error
        assert pt.slowdown is None
        assert completion_rate(points) == 0.0

    def test_completion_rate_empty(self):
        assert completion_rate([]) == 0.0


class TestFormatting:
    def test_table_mixes_ok_and_fail_rows(self):
        rows = [_point(), _point(completed=False, error="DeadlockError: x",
                                 total_time=None)]
        table = format_resilience_table(rows)
        assert "ok" in table and "FAIL" in table
        assert "DeadlockError" in table
        assert "completion rate: 50.0% (1/2 cells)" in table
