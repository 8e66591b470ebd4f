"""Tests for the ASCII Gantt trace renderer."""

import numpy as np
import pytest

from repro.errors import CommTimeoutError, SimulationError
from repro.sim import FaultPlan, MachineConfig, run_spmd
from repro.sim.gantt import lane_activity, render_gantt

CFG = MachineConfig.create(8, t_s=10, t_w=1)


def traced_run():
    def prog(ctx):
        ctx.phase("talk")
        if ctx.rank == 0:
            yield from ctx.send(3, np.ones(20))  # 2 hops via node 1
        elif ctx.rank == 3:
            yield from ctx.recv(0)
        ctx.phase("think")
        yield from ctx.elapse(30.0)
        return None

    return run_spmd(CFG, prog, trace=True)


class TestGantt:
    def test_requires_trace(self):
        def prog(ctx):
            yield from ctx.elapse(1.0)

        res = run_spmd(CFG, prog)  # no trace
        with pytest.raises(SimulationError):
            render_gantt(res)

    def test_sender_lane_shows_transmission(self):
        res = traced_run()
        lane = lane_activity(res.trace, 0, res.total_time, 60)
        assert "#" in lane

    def test_forwarder_lane_shows_transit(self):
        res = traced_run()
        # e-cube route 0 -> 1 -> 3: node 1 forwards
        lane = lane_activity(res.trace, 1, res.total_time, 60)
        assert "#" in lane or "-" in lane

    def test_compute_marked(self):
        res = traced_run()
        lane = lane_activity(res.trace, 5, res.total_time, 60)
        assert "=" in lane

    def test_render_structure(self):
        res = traced_run()
        art = render_gantt(res, width=40)
        lines = art.splitlines()
        assert sum(1 for l in lines if l.startswith("node")) == 8
        assert any("legend" in l for l in lines)
        assert any("talk@0" in l for l in lines)

    def test_rank_filter(self):
        res = traced_run()
        art = render_gantt(res, width=40, ranks=[0, 3])
        assert sum(1 for l in art.splitlines() if l.startswith("node")) == 2

    def test_bad_width(self):
        res = traced_run()
        with pytest.raises(SimulationError):
            lane_activity(res.trace, 0, res.total_time, 0)

    def test_lane_length_matches_width(self):
        res = traced_run()
        for w in (1, 13, 80):
            assert len(lane_activity(res.trace, 0, res.total_time, w)) == w


class TestGanttFaultMarks:
    def test_drop_marked_and_counted_in_footer(self):
        plan = FaultPlan().with_drop_rate(1.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(10))
            elif ctx.rank == 1:
                try:
                    yield from ctx.recv(0, timeout=100.0)
                except CommTimeoutError:
                    pass
            yield from ctx.elapse(50.0)
            return None

        res = run_spmd(MachineConfig.create(8, t_s=10, t_w=1, faults=plan),
                       prog, trace=True)
        # the loss is marked where the message died: the hop's receiving end
        lane = lane_activity(res.trace, 1, res.total_time, 40)
        assert "x" in lane
        art = render_gantt(res, width=40)
        assert "1 dropped" in art
        assert "x message dropped" in art

    def test_reroute_marked(self):
        plan = FaultPlan().with_link_fault(0, 1)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(10))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            yield from ctx.elapse(10.0)
            return None

        res = run_spmd(MachineConfig.create(8, t_s=10, t_w=1, faults=plan),
                       prog, trace=True)
        lane = lane_activity(res.trace, 0, res.total_time, 40)
        assert "~" in lane
        assert "1 rerouted" in render_gantt(res, width=40)

    def test_node_failure_fills_lane_to_the_end(self):
        plan = FaultPlan().with_node_failure(2, at=25.0)

        def prog(ctx):
            yield from ctx.elapse(100.0)
            return None

        res = run_spmd(MachineConfig.create(8, t_s=10, t_w=1, faults=plan),
                       prog, trace=True)
        lane = lane_activity(res.trace, 2, res.total_time, 40)
        assert lane.endswith("X")
        assert "X" not in lane_activity(res.trace, 0, res.total_time, 40)
        art = render_gantt(res, width=40)
        assert "failed ranks [2]" in art

    def test_healthy_run_has_no_fault_footer(self):
        res = traced_run()
        art = render_gantt(res, width=40)
        assert "faults:" not in art
        assert "X node fail-stopped" not in art


class TestDegradedLinkShading:
    def _pingpong(self, cfg):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(20))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        return run_spmd(cfg, prog, trace=True)

    def test_scenario_slowed_send_shaded(self):
        from repro.sim import hotspot

        cfg = CFG.with_scenario(hotspot(8, 0, 4.0))
        res = self._pingpong(cfg)
        lane = lane_activity(res.trace, 0, res.total_time, 60)
        assert "%" in lane
        assert "#" not in lane
        art = render_gantt(res, width=40)
        assert "% sending over a degraded link" in art

    def test_uniform_run_has_no_shading(self):
        res = traced_run()
        art = render_gantt(res, width=40)
        assert "% sending over a degraded link" not in art
        for rank in range(8):
            assert "%" not in lane_activity(
                res.trace, rank, res.total_time, 60
            )


class TestRecoveryMarks:
    def test_detect_and_recover_phases_get_their_own_glyphs(self):
        plan = FaultPlan(seed=1).with_node_failure(1, at=0.5)

        def prog(ctx):
            from repro.mpi import FailureDetectorContext

            if ctx.rank != 0:
                yield from ctx.elapse(20_000.0)
                return None
            det = FailureDetectorContext(ctx)
            yield from det.probe(1)          # convicts -> "detect:1" phase
            yield from ctx.elapse(5_000.0)   # separate the marks' cells
            det.phase("recover")
            yield from ctx.elapse(10.0)
            return None

        res = run_spmd(
            MachineConfig.create(4, t_s=10, t_w=1, faults=plan),
            prog, trace=True,
        )
        art = render_gantt(res, width=60)
        phase_line = next(l for l in art.splitlines() if l.startswith("phases:"))
        assert "D" in phase_line
        assert "R" in phase_line
        assert "D failure detected" in art

    def test_plain_phases_keep_the_caret(self):
        res = traced_run()
        art = render_gantt(res, width=40)
        phase_line = next(l for l in art.splitlines() if l.startswith("phases:"))
        assert "^" in phase_line
        assert "D" not in phase_line
