"""Tests for the end-to-end integrity layer: CRC verification, NACK /
retransmit recovery, CorruptionError escalation, and the fault-free fast
path."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, CorruptionError
from repro.mpi import IntegrityContext, ReliableContext
from repro.sim import FaultPlan, MachineConfig, run_spmd

CFG = MachineConfig.create(4, t_s=10.0, t_w=1.0)


def faulty(p: int, plan: FaultPlan, **kw) -> MachineConfig:
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, faults=plan, **kw)


class TestDetectionAndRecovery:
    def test_corrupted_delivery_is_rejected_and_retransmitted(self):
        """A corrupting-until-t link: the CRC check discards bad copies,
        NACKs drive immediate resends, and the application sees only the
        exact payload."""
        plan = FaultPlan(seed=1).with_link_corruption(0, 1, 1.0, end=50.0)

        def prog(ctx):
            icx = IntegrityContext(ctx)
            if ctx.rank == 0:
                yield from icx.send(1, np.arange(8.0), tag=0)
                return "delivered"
            if ctx.rank == 1:
                data = yield from icx.recv(0, tag=0)
                return data.tolist()
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == "delivered"
        assert res.results[1] == list(np.arange(8.0))
        assert res.network.integrity_rejects >= 1
        assert res.network.retransmissions >= 1

    def test_probabilistic_corruption_still_exact(self):
        """At rate < 1 some retransmission eventually passes the check;
        the delivered data is bit-exact, not merely close."""
        plan = FaultPlan(seed=3).with_link_corruption(0, 1, 0.6)

        def prog(ctx):
            icx = IntegrityContext(ctx)
            if ctx.rank == 0:
                for k in range(4):
                    yield from icx.send(1, np.full(8, float(k)), tag=k)
                return "done"
            if ctx.rank == 1:
                total = 0.0
                for k in range(4):
                    data = yield from icx.recv(0, tag=k)
                    assert np.array_equal(data, np.full(8, float(k)))
                    total += float(data.sum())
                return total
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[1] == 8.0 * (0 + 1 + 2 + 3)

    def test_nacked_copy_never_reaches_application(self):
        """The receiver's recv completes exactly once, with the clean
        copy — rejected deliveries are invisible above the NIC."""
        plan = FaultPlan(seed=1).with_link_corruption(0, 1, 1.0, end=50.0)

        def prog(ctx):
            icx = IntegrityContext(ctx)
            if ctx.rank == 0:
                yield from icx.send(1, np.ones(4), tag=0)
            elif ctx.rank == 1:
                data = yield from icx.recv(0, tag=0)
                return (float(data.sum()), ctx.stats.messages_received)
            return None

        res = run_spmd(faulty(4, plan), prog)
        total, received = res.results[1]
        assert total == 4.0

    def test_deterministic_corruption_escalates(self):
        """rate=1.0 forever: every retransmission is also corrupted, so
        after max_nacks rejections the send raises CorruptionError —
        retrying cannot beat a deterministic corrupter."""
        plan = FaultPlan(seed=1).with_link_corruption(0, 1, 1.0)

        def prog(ctx):
            icx = IntegrityContext(ctx, max_nacks=3)
            if ctx.rank == 0:
                try:
                    yield from icx.send(1, np.ones(4), tag=0)
                except CorruptionError as exc:
                    return ("gave up", exc.attempts)
                return "impossible"
            if ctx.rank == 1:
                try:
                    yield from icx.recv(0, tag=0, timeout=10_000.0)
                except Exception:
                    return "nothing"
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == ("gave up", 3)

    def test_drops_still_recovered_by_inherited_ladder(self):
        """Loss and corruption through one protocol: a transiently-total
        drop window is beaten by timeout retransmission as in the base
        class."""
        plan = FaultPlan(seed=1).with_link_drop(0, 1, 1.0, end=200.0)

        def prog(ctx):
            icx = IntegrityContext(ctx)
            if ctx.rank == 0:
                yield from icx.send(1, np.ones(4), tag=0)
                return "acked"
            if ctx.rank == 1:
                data = yield from icx.recv(0, tag=0)
                return float(data.sum())
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == "acked"
        assert res.results[1] == 4.0
        assert res.network.retransmissions >= 1

    def test_isend_waitall_under_corruption(self):
        plan = FaultPlan(seed=5).with_link_corruption(0, 1, 0.5)

        def prog(ctx):
            icx = IntegrityContext(ctx)
            peer = ctx.rank ^ 1
            hs = yield from icx.isend(peer, np.full(4, float(ctx.rank)), tag=0)
            hr = yield from icx.irecv(peer, tag=0)
            values = yield from icx.waitall([hs, hr])
            return float(values[1][0])

        res = run_spmd(faulty(4, plan), prog)
        for rank in range(4):
            assert res.results[rank] == float(rank ^ 1)


class TestPassthroughFastPath:
    def test_passthrough_flag(self):
        class _Clean:
            config = CFG

        class _Corrupting:
            config = MachineConfig.create(
                4, faults=FaultPlan(seed=1).with_link_corruption(0, 1, 0.5)
            )

        class _LosslessOnly:
            config = MachineConfig.create(
                4, faults=FaultPlan().with_link_fault(0, 1)  # rerouted
            )

        assert IntegrityContext(_Clean()).passthrough
        assert not IntegrityContext(_Clean(), force_protocol=True).passthrough
        # a corrupting plan is lossless yet MUST engage the protocol —
        # the base reliable layer alone would fast-path here
        assert ReliableContext(_Corrupting()).passthrough
        assert not IntegrityContext(_Corrupting()).passthrough
        assert IntegrityContext(_LosslessOnly()).passthrough

    def test_fault_free_cost_is_exactly_baseline(self):
        """Acceptance: protection-off and integrity-on runs of a real
        algorithm are bit-identical in simulated time on a clean machine."""
        from repro.algorithms.registry import get_algorithm

        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        cfg = MachineConfig.create(16)
        algo = get_algorithm("cannon")
        plain = algo.run(A, B, cfg, verify=True)
        prot = algo.run(A, B, cfg, verify=True,
                        context_factory=IntegrityContext)
        assert prot.total_time == plain.total_time
        assert prot.result.network.retransmissions == 0
        assert prot.result.network.integrity_rejects == 0

    def test_forced_protocol_costs_time_but_stays_exact(self):
        def prog(ctx):
            icx = IntegrityContext(ctx, force_protocol=True)
            if ctx.rank == 0:
                yield from icx.send(1, np.ones(5), tag=0)
            elif ctx.rank == 1:
                data = yield from icx.recv(0, tag=0)
                return float(data.sum())
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == 5.0
        # data hop + the node's verdict ack flowing back
        assert res.total_time == pytest.approx(15.0 + 10.0)

    def test_self_send_bypasses_protocol(self):
        plan = FaultPlan(seed=1).with_link_corruption(0, 1, 1.0)

        def prog(ctx):
            icx = IntegrityContext(ctx, force_protocol=True)
            if ctx.rank == 0:
                yield from icx.send(0, np.ones(8), tag=1)
                data = yield from icx.recv(0, tag=1)
                return (ctx.now, float(data.sum()))
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == (0.0, 8.0)


class TestValidationAndReplay:
    def test_constructor_validation(self):
        class _Fake:
            pass

        with pytest.raises(CommunicatorError):
            IntegrityContext(_Fake(), max_nacks=0)
        with pytest.raises(CommunicatorError):
            IntegrityContext(_Fake(), max_retries=-1)

    def test_replay_is_bit_identical(self):
        plan = (FaultPlan(seed=9)
                .with_link_corruption(0, 1, 0.5)
                .with_drop_rate(0.1))

        def prog(ctx):
            icx = IntegrityContext(ctx)
            peer = ctx.rank ^ 1
            theirs = yield from icx.exchange(
                peer, np.full(8, float(ctx.rank)), tag=0
            )
            return float(theirs.sum())

        cfg = faulty(4, plan)
        a = run_spmd(cfg, prog, trace=True)
        b = run_spmd(cfg, prog, trace=True)
        assert a.results == b.results
        assert a.trace == b.trace
        assert a.network == b.network
