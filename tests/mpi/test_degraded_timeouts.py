"""Timeout-vs-degradation interplay for the reliable/integrity layers.

A severely degraded — but lossless — link stretches round trips far past
the nominal ack-timeout estimate.  Without scenario-aware budgets the
reliable layer would convict the slow link of losing messages: spurious
retransmissions at best, a :class:`~repro.errors.CommTimeoutError` at
worst.  These tests pin the contract that *degradation never masquerades
as failure*: the timeout budget scales with the scenario's worst-case
link slowdown (a slow link is a scenario ``LinkCost``, whether or not
``adaptive_routing`` detours it), so lossless runs stay
retransmission-free no matter how slow the network weather gets.
"""

import numpy as np
import pytest

from repro.mpi import IntegrityContext, ReliableContext
from repro.sim import (
    FaultPlan,
    MachineConfig,
    NetworkScenario,
    hotspot,
    run_spmd,
)

PARAMS = {"t_s": 10.0, "t_w": 1.0}

#: slowdown far beyond the default retry ladder's nominal budget: with
#: slack 4 and backoff 2 an unscaled ladder tolerates ~2000x, so go past
#: that to prove the *scaling* (not the ladder) absorbs the slowness.
SEVERE = 5000.0


def _severe_scenario(p: int) -> NetworkScenario:
    return hotspot(p, 0, SEVERE).with_adaptive_routing(False)


def _pingpong(ctx_cls, **ctx_kw):
    def prog(ctx):
        rel = ctx_cls(ctx, **ctx_kw)
        if ctx.rank == 0:
            yield from rel.send(1, np.arange(16.0), tag=1)
            reply = yield from rel.recv(1, tag=2)
            return float(reply.sum())
        elif ctx.rank == 1:
            data = yield from rel.recv(0, tag=1)
            yield from rel.send(0, data * 2, tag=2)
        return None

    return prog


class TestReliableUnderDegradation:
    def test_severe_lossless_degradation_no_spurious_retransmits(self):
        cfg = MachineConfig.create(
            4, scenario=_severe_scenario(4), **PARAMS
        )
        res = run_spmd(cfg, _pingpong(ReliableContext, force_protocol=True))
        assert res.results[0] == pytest.approx(2 * np.arange(16.0).sum())
        assert res.network.retransmissions == 0
        assert res.network.messages_dropped == 0

    def test_stacked_entries_scale_the_budget(self):
        slow = (
            NetworkScenario()
            .with_link_cost(0, 1, tw_factor=SEVERE)
            .with_link_cost(0, 1, tw_factor=2.0)
            .with_adaptive_routing(False)
        )
        cfg = MachineConfig.create(4, scenario=slow, **PARAMS)
        res = run_spmd(cfg, _pingpong(ReliableContext, force_protocol=True))
        assert res.results[0] == pytest.approx(2 * np.arange(16.0).sum())
        assert res.network.retransmissions == 0

    def test_explicit_ack_timeout_still_wins(self):
        """A user-pinned ack_timeout is taken verbatim (no scaling): the
        scaling only replaces the *estimate*, never an explicit budget."""

        def prog(ctx):
            rel = ReliableContext(ctx, ack_timeout=123.0)
            assert rel._rtt_estimate(100) == 123.0
            return None
            yield

        cfg = MachineConfig.create(
            4, scenario=_severe_scenario(4), **PARAMS
        )
        run_spmd(cfg, prog)

    def test_nominal_network_budget_unchanged(self):
        """No scenario: the estimate is exactly the pre-scenario formula
        (scale 1.0)."""

        def prog(ctx):
            rel = ReliableContext(ctx)
            params = ctx.config.params
            diam = ctx.config.dimension
            want = rel.slack * diam * (
                params.hop_time(8) + params.hop_time(0)
            )
            assert rel._rtt_estimate(8) == pytest.approx(want)
            uni = ReliableContext(ctx)
            assert uni._rtt_estimate(8) == rel._rtt_estimate(8)
            return None
            yield

        run_spmd(MachineConfig.create(4, **PARAMS), prog)

    def test_degradation_with_real_drops_still_retransmits(self):
        """Scaling must not break loss recovery: a lossy plan on a slow
        scenario still retransmits and completes."""
        plan = FaultPlan(seed=3).with_link_drop(0, 1, 0.5)
        cfg = MachineConfig.create(
            4, faults=plan,
            scenario=hotspot(4, 0, 3.0).with_adaptive_routing(False),
            **PARAMS,
        )

        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                for i in range(8):
                    yield from rel.send(1, np.ones(4), tag=i)
            elif ctx.rank == 1:
                total = 0.0
                for i in range(8):
                    data = yield from rel.recv(0, tag=i)
                    total += data.sum()
                return total
            return None

        res = run_spmd(cfg, prog)
        assert res.results[1] == pytest.approx(32.0)


class TestIntegrityUnderDegradation:
    def test_severe_lossless_degradation_no_timeout_error(self):
        cfg = MachineConfig.create(
            4, scenario=_severe_scenario(4), **PARAMS
        )
        res = run_spmd(cfg, _pingpong(IntegrityContext, force_protocol=True))
        assert res.results[0] == pytest.approx(2 * np.arange(16.0).sum())
        assert res.network.retransmissions == 0
        assert res.network.integrity_rejects == 0

    def test_corruption_recovery_composes_with_degradation(self):
        """A heterogeneous scenario + a corrupting link: the integrity
        layer still detects, NACKs and recovers — slowness never eats the
        retransmission budget needed for real corruption."""
        plan = FaultPlan(seed=1).with_link_corruption(0, 1, 0.4)
        cfg = MachineConfig.create(
            4, faults=plan,
            scenario=hotspot(4, 0, 10.0).with_adaptive_routing(False),
            **PARAMS,
        )

        def prog(ctx):
            rel = IntegrityContext(ctx)
            if ctx.rank == 0:
                for i in range(6):
                    yield from rel.send(1, np.full(8, float(i)), tag=i)
            elif ctx.rank == 1:
                got = []
                for i in range(6):
                    data = yield from rel.recv(0, tag=i)
                    got.append(float(data[0]))
                return got
            return None

        res = run_spmd(cfg, prog)
        assert res.results[1] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
