"""Tests for the reliable-delivery layer: acks, retransmission, dedup,
timeouts, and transparent use under communicators and algorithms."""

import numpy as np
import pytest

from repro.errors import CommTimeoutError, CommunicatorError
from repro.mpi import ACK_BASE, DATA_BASE, Comm, ReliableContext
from repro.sim import (
    ANY_TAG,
    FaultPlan,
    MachineConfig,
    NetworkScenario,
    PortModel,
    run_spmd,
)
from repro.mpi.reliable import _ReliableHandle
from repro.sim.ops import TIMED_OUT

CFG = MachineConfig.create(4, t_s=10.0, t_w=1.0)


def faulty(p: int, plan: FaultPlan, **kw) -> MachineConfig:
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, faults=plan, **kw)


class TestCleanMachine:
    def test_send_recv_roundtrip(self):
        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                yield from rel.send(1, np.arange(4.0), tag=3)
            elif ctx.rank == 1:
                data = yield from rel.recv(0, tag=3)
                return data.tolist()
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == [0.0, 1.0, 2.0, 3.0]
        assert res.network.retransmissions == 0

    def test_self_send_bypasses_protocol(self):
        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                yield from rel.send(0, np.ones(8), tag=1)
                data = yield from rel.recv(0, tag=1)
                return (ctx.now, data.size)
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == (0.0, 8)

    def test_ack_costs_a_zero_word_message(self):
        """The protocol is not free: each remote send adds an ack hop.
        On a lossless machine the fast path skips it, so the protocol is
        forced on for the measurement."""

        def prog(ctx):
            rel = ReliableContext(ctx, force_protocol=True)
            if ctx.rank == 0:
                yield from rel.send(1, np.ones(5), tag=0)
            elif ctx.rank == 1:
                yield from rel.recv(0, tag=0)
            return None

        res = run_spmd(CFG, prog)
        # data hop 15.0; the NIC's ack (0 words) flows back at t_s
        assert res.total_time == pytest.approx(15.0 + 10.0)
        assert res.stats[1].messages_sent == 1  # the auto-ack

    def test_tag_discipline(self):
        def prog(ctx):
            rel = ReliableContext(ctx, force_protocol=True)
            if ctx.rank == 0:
                with pytest.raises(CommunicatorError):
                    yield from rel.send(1, np.ones(1), tag=DATA_BASE)
                with pytest.raises(CommunicatorError):
                    yield from rel.recv(1, tag=ANY_TAG)
                with pytest.raises(CommunicatorError, match="got -3"):
                    yield from rel.irecv(1, tag=-3)
                with pytest.raises(CommunicatorError, match=f"got {DATA_BASE}"):
                    yield from rel.sendrecv(1, np.ones(1), 1, send_tag=DATA_BASE)
                with pytest.raises(CommunicatorError, match="got -1"):
                    yield from rel.sendrecv(1, np.ones(1), 1, send_tag=0)
            if False:
                yield
            return None

        run_spmd(CFG, prog)

    def test_constructor_validation(self):
        class _Fake:
            pass

        with pytest.raises(CommunicatorError):
            ReliableContext(_Fake(), max_retries=-1)
        with pytest.raises(CommunicatorError):
            ReliableContext(_Fake(), backoff=0.5)
        with pytest.raises(CommunicatorError):
            ReliableContext(_Fake(), ack_timeout=0.0)
        # a non-positive slack used to be accepted and then die mid-run
        # as "recv timeout must be positive" from rank 0's ack wait
        for slack in (0, -1.0):
            with pytest.raises(CommunicatorError, match="slack"):
                ReliableContext(_Fake(), slack=slack)


class TestRetransmission:
    def test_recovers_from_transient_total_loss(self):
        """Link 0->1 eats every hop until t=200; retransmission gets the
        payload through once the window closes."""
        plan = FaultPlan(seed=1).with_link_drop(0, 1, 1.0, end=200.0)

        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                yield from rel.send(1, np.ones(4), tag=0)
                return "acked"
            if ctx.rank == 1:
                data = yield from rel.recv(0, tag=0)
                return float(data.sum())
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == "acked"
        assert res.results[1] == 4.0
        assert res.network.retransmissions >= 1
        assert res.network.messages_dropped >= 1

    def test_gives_up_after_max_retries(self):
        plan = FaultPlan(seed=1).with_link_drop(0, 1, 1.0)  # permanent

        def prog(ctx):
            rel = ReliableContext(ctx, max_retries=2)
            if ctx.rank == 0:
                try:
                    yield from rel.send(1, np.ones(4), tag=0)
                except CommTimeoutError as exc:
                    return str(exc)
                return "acked"
            if ctx.rank == 1:
                try:
                    yield from rel.recv(0, tag=0, timeout=5000.0)
                except CommTimeoutError:
                    return "nothing"
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert "no ack for seq 0 after 3 attempts" in res.results[0]
        assert res.results[1] == "nothing"
        assert res.network.retransmissions == 2

    def test_stray_payload_on_ack_tag_is_a_protocol_error(self):
        """The ack channel carries only verdicts (``None`` ack or a NACK):
        anything else on ``ACK_BASE + seq`` is a program bug, not an ack."""

        def prog(ctx):
            if ctx.rank == 0:
                rel = ReliableContext(ctx, force_protocol=True)
                try:
                    yield from rel.send(1, np.ones(4), tag=0)
                except CommunicatorError as exc:
                    return str(exc)
                return "acked"
            if ctx.rank == 1:
                # a zero-word stray beats the node's own ack back to rank 0
                yield from ctx.send(0, "junk", ACK_BASE + 0, nwords=0)
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == (
            f"unexpected verdict payload 'junk' on ack tag {ACK_BASE}"
        )

    def test_duplicates_are_suppressed(self):
        """Dropping only the ack direction forces duplicate deliveries of
        the data; the receiver must surface exactly one copy."""
        plan = FaultPlan(seed=1).with_link_drop(
            1, 0, 1.0, end=300.0, directed=True
        )

        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                yield from rel.send(1, np.full(4, 7.0), tag=0)
                yield from rel.send(1, np.full(4, 9.0), tag=0)
            elif ctx.rank == 1:
                first = yield from rel.recv(0, tag=0)
                second = yield from rel.recv(0, tag=0)
                return (float(first[0]), float(second[0]))
            return None

        res = run_spmd(faulty(4, plan), prog)
        # in-order, deduplicated: never (7, 7) from a retransmitted copy
        assert res.results[1] == (7.0, 9.0)
        assert res.network.retransmissions >= 1

    def test_backoff_stretches_timeouts(self):
        """With aggressive backoff the second retry waits longer — the run
        still completes and the total time reflects the waits."""
        plan = FaultPlan(seed=1).with_link_drop(0, 1, 1.0, end=400.0)

        def prog(ctx):
            rel = ReliableContext(ctx, ack_timeout=50.0, backoff=3.0)
            if ctx.rank == 0:
                yield from rel.send(1, np.ones(2), tag=0)
            elif ctx.rank == 1:
                data = yield from rel.recv(0, tag=0)
                return data.size
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[1] == 2
        assert res.total_time > 400.0


class TestTimeouts:
    def test_recv_timeout_raises_inside_program(self, port_model):
        """A timed receive fails as a catchable error on both port models."""
        cfg = MachineConfig.create(4, t_s=10.0, t_w=1.0, port_model=port_model)

        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 1:
                try:
                    yield from rel.recv(0, tag=0, timeout=100.0)
                except CommTimeoutError:
                    return ("gave up", ctx.now)
                return "got data"
            return None

        res = run_spmd(cfg, prog)
        verdict, when = res.results[1]
        assert verdict == "gave up"
        assert when == pytest.approx(100.0)

    def test_raw_recv_timeout_both_port_models(self, port_model):
        cfg = MachineConfig.create(4, t_s=10.0, t_w=1.0, port_model=port_model)

        def prog(ctx):
            if ctx.rank == 2:
                try:
                    yield from ctx.recv(3, tag=4, timeout=77.0)
                except CommTimeoutError as exc:
                    return (exc.src, exc.tag, exc.timeout)
            return None

        res = run_spmd(cfg, prog)
        assert res.results[2] == (3, 4, 77.0)

    def test_send_to_peer_that_dies_mid_flight(self):
        """The peer fail-stops while the first (ack-tagged) transmission
        is still on the wire: retransmissions find only silence, and the
        sender gets a catchable CommTimeoutError — never an engine crash
        from the dead node trying to ack."""
        plan = FaultPlan(seed=1).with_node_failure(1, at=0.5)

        def prog(ctx):
            rel = ReliableContext(ctx, max_retries=2)
            if ctx.rank == 0:
                try:
                    yield from rel.send(1, np.ones(4), tag=0)
                except CommTimeoutError:
                    return "survived"
                return "impossible"
            yield from rel.elapse(100_000.0)  # stays busy; dies at t=0.5
            return None

        res = run_spmd(faulty(2, plan), prog)
        assert res.results[0] == "survived"
        assert res.failed_ranks == (1,)
        assert res.network.retransmissions == 2

    def test_exchange_timeout_against_failed_peer(self):
        """A rank exchanging with a fail-stopped peer times out and keeps
        going instead of deadlocking the run."""
        plan = FaultPlan().with_node_failure(1)

        def prog(ctx):
            rel = ReliableContext(ctx, max_retries=1)
            if ctx.rank == 0:
                try:
                    yield from rel.exchange(1, np.ones(2), timeout=500.0)
                except CommTimeoutError:
                    return "survived"
                return "impossible"
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[0] == "survived"
        assert res.failed_ranks == (1,)


class TestNonblockingAndPairwise:
    def test_isend_irecv_waitall(self):
        plan = FaultPlan(seed=2).with_drop_rate(0.2)

        def prog(ctx):
            rel = ReliableContext(ctx)
            peer = ctx.rank ^ 1
            hs = yield from rel.isend(peer, np.full(4, float(ctx.rank)), tag=0)
            hr = yield from rel.irecv(peer, tag=0)
            values = yield from rel.waitall([hs, hr])
            return float(values[1][0])

        res = run_spmd(faulty(4, plan), prog)
        for rank in range(4):
            assert res.results[rank] == float(rank ^ 1)

    def test_isend_overlaps_compute_before_waitall(self):
        """isend injects the first transmission at issue time, so the
        transfer overlaps compute done before waitall — the receiver gets
        the data at wire latency, not after the sender's compute."""

        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                h = yield from rel.isend(1, np.ones(4), tag=0)
                yield from rel.elapse(1000.0)
                yield from rel.waitall([h])
                return ctx.now
            if ctx.rank == 1:
                yield from rel.recv(0, tag=0)
                return ctx.now
            return None

        res = run_spmd(CFG, prog)
        # data hop = t_s + 4 t_w = 14: delivered during the sender's
        # compute window, and the ack is already waiting at waitall.
        assert res.results[1] == pytest.approx(14.0)
        assert res.results[0] == pytest.approx(1000.0)
        assert res.network.retransmissions == 0

    def test_eager_isend_to_self_completes_at_waitall(self):
        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                h = yield from rel.isend(0, np.full(4, 5.0), tag=1)
                data = yield from rel.recv(0, tag=1)
                yield from rel.waitall([h])
                return float(data[0])
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == 5.0

    def test_waitall_rejects_mixed_handles(self):
        def prog(ctx):
            rel = ReliableContext(ctx, force_protocol=True)
            if ctx.rank == 0:
                raw = yield from ctx.isend(1, np.ones(1))
                reliable = yield from rel.isend(1, np.ones(1), tag=0)
                with pytest.raises(CommunicatorError):
                    yield from rel.waitall([raw, reliable])
                # drain so the run ends cleanly
                yield from ctx.wait(raw)
                yield from rel.waitall([reliable])
            elif ctx.rank == 1:
                yield from ctx.recv(0)
                yield from rel.recv(0, tag=0)
            return None

        run_spmd(CFG, prog)

    def test_waitall_takes_subclassed_handles_and_refuses_any_mix(self):
        """A subclass of the reliable handle (the detector's is one) is a
        reliable handle to waitall; raw and reliable mixed in either order
        are refused before anything runs."""

        class Tagged(_ReliableHandle):
            __slots__ = ()

        def prog(ctx):
            rel = ReliableContext(ctx, force_protocol=True)
            if ctx.rank == 0:
                raw = yield from ctx.isend(1, np.ones(1))
                sent = yield from rel.isend(1, np.full(2, 3.0), tag=0)
                tagged = Tagged(sent.kind, sent.gen)
                for mixed in ([raw, tagged], [tagged, raw]):
                    with pytest.raises(CommunicatorError, match="cannot mix"):
                        yield from rel.waitall(mixed)
                yield from ctx.wait(raw)
                values = yield from rel.waitall([tagged])
                return tagged.done and values == [None]
            if ctx.rank == 1:
                yield from ctx.recv(0)
                data = yield from rel.recv(0, tag=0)
                return data.tolist()
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] is True
        assert res.results[1] == [3.0, 3.0]

    def test_ring_exchange_on_lossy_machine(self):
        """Every rank exchanges with both cube neighbours under 10% loss —
        the sendrecv protocol pairs must not deadlock on acks."""
        plan = FaultPlan(seed=4).with_drop_rate(0.1)

        def prog(ctx):
            rel = ReliableContext(ctx)
            total = 0.0
            for dim in (1, 2):
                theirs = yield from rel.exchange(
                    ctx.rank ^ dim, np.full(4, float(ctx.rank)), tag=dim
                )
                total += float(theirs[0])
            return total

        res = run_spmd(faulty(4, plan), prog)
        for rank in range(4):
            assert res.results[rank] == float((rank ^ 1) + (rank ^ 2))


class TestParallelUnderDegradation:
    def test_parallel_subtasks_complete_on_degraded_links(self, port_model):
        """ctx.parallel sub-tasks finish under link degradation, and the
        degraded run is slower than the healthy one."""

        def prog(ctx):
            rel = ReliableContext(ctx)

            def half(peer, tag):
                theirs = yield from rel.exchange(peer, np.ones(16), tag=tag)
                return float(theirs.sum())

            a, b = yield from rel.parallel(
                half(ctx.rank ^ 1, 1), half(ctx.rank ^ 2, 2)
            )
            return a + b

        healthy_cfg = MachineConfig.create(
            4, t_s=10.0, t_w=1.0, port_model=port_model
        )
        slow = (NetworkScenario()
                .with_link_cost(0, 1, tw_factor=4.0)
                .with_link_cost(2, 3, tw_factor=4.0)
                .with_adaptive_routing(False))
        degraded_cfg = MachineConfig.create(
            4, t_s=10.0, t_w=1.0, port_model=port_model, scenario=slow
        )
        healthy = run_spmd(healthy_cfg, prog)
        degraded = run_spmd(degraded_cfg, prog)
        assert all(v == 32.0 for v in healthy.results.values())
        assert degraded.results == healthy.results
        assert degraded.total_time > healthy.total_time


class TestPassthroughFastPath:
    """On a machine that cannot lose messages, the reliable layer must
    cost nothing: it delegates verbatim instead of running the protocol."""

    def test_passthrough_flag(self):
        class _Fake:
            config = CFG

        assert ReliableContext(_Fake()).passthrough
        assert not ReliableContext(_Fake(), force_protocol=True).passthrough

        class _Lossy:
            config = MachineConfig.create(
                4, faults=FaultPlan(seed=1).with_drop_rate(0.1)
            )

        assert not ReliableContext(_Lossy()).passthrough

        class _Empty:
            config = MachineConfig.create(4, faults=FaultPlan(seed=1))

        assert ReliableContext(_Empty()).passthrough

    def test_fault_free_algorithm_cost_is_exactly_baseline(self):
        """Acceptance: fault-free slowdown under ReliableContext is 1.0
        (the protocol previously cost ~1.8x in acks)."""
        from repro.algorithms.registry import get_algorithm

        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        cfg = MachineConfig.create(16)
        for key in ("cannon", "fox", "hje"):
            algo = get_algorithm(key)
            plain = algo.run(A, B, cfg, verify=True)
            rel = algo.run(
                A, B, cfg, verify=True, context_factory=ReliableContext
            )
            assert rel.total_time == plain.total_time, key
            assert rel.result.network.retransmissions == 0

    def test_lossless_plan_also_fast_paths(self):
        """A present-but-lossless plan (a dead link the engine detours
        around) still takes the fast path: a detour changes the route,
        not delivery."""
        plan = FaultPlan().with_link_fault(0, 1)

        def prog(ctx):
            rel = ReliableContext(ctx)
            assert rel.passthrough
            if ctx.rank == 0:
                yield from rel.send(1, np.ones(4), tag=0)
            elif ctx.rank == 1:
                yield from rel.recv(0, tag=0)
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.stats[1].messages_sent == 0  # no ack traffic

    def test_sendrecv_with_timeout_still_bounded(self):
        """The passthrough sendrecv keeps the timeout semantics a failure
        detector depends on."""

        def prog(ctx):
            rel = ReliableContext(ctx)
            if ctx.rank == 0:
                try:
                    yield from rel.sendrecv(
                        1, np.ones(2), src=1, send_tag=0, recv_tag=0,
                        timeout=200.0,
                    )
                except CommTimeoutError:
                    return ("gave up", ctx.now)
            if ctx.rank == 1:
                yield from ctx.recv(0, tag=0)  # receives, never replies
            return None

        res = run_spmd(CFG, prog)
        verdict, when = res.results[0]
        assert verdict == "gave up"
        assert when == pytest.approx(200.0)


class TestThroughCommunicators:
    def test_comm_collective_over_reliable_context(self):
        """A Comm built over ReliableContext runs a broadcast on a lossy
        machine and still delivers to every member."""
        from repro.collectives import broadcast

        plan = FaultPlan(seed=6).with_drop_rate(0.15)

        def prog(ctx):
            rel = ReliableContext(ctx)
            comm = Comm(rel, list(range(4)))
            data = np.arange(8.0) if ctx.rank == 0 else None
            out = yield from broadcast(comm, data, root=0)
            return float(out.sum())

        res = run_spmd(faulty(4, plan), prog)
        assert all(v == 28.0 for v in res.results.values())

    def test_algorithm_under_transient_scenario(self):
        """Acceptance shape: an algorithm completes and verifies under the
        canonical transient fault via context_factory, bit-identically."""
        from repro.algorithms.registry import get_algorithm
        from repro.analysis.resilience import transient_scenario

        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        cfg = MachineConfig.create(4, faults=transient_scenario(seed=5))
        algo = get_algorithm("cannon")

        runs = [
            algo.run(A, B, cfg, verify=True,
                     context_factory=ReliableContext, max_events=2_000_000)
            for _ in range(2)
        ]
        assert np.allclose(runs[0].C, A @ B)
        assert runs[0].total_time == runs[1].total_time
        assert runs[0].result.network == runs[1].result.network


@pytest.mark.parametrize("armed", [False, True], ids=["bare", "reliable"])
def test_an_irecv_handle_says_whether_its_timeout_expired(armed):
    """``handle.timed_out`` is False while pending and after a delivery,
    True once the window expired (the value is then ``TIMED_OUT``)."""

    def prog(ctx):
        c = ReliableContext(ctx, force_protocol=True) if armed else ctx
        if ctx.rank == 1:
            yield from c.send(0, np.ones(2), tag=8)
            return None
        if ctx.rank != 0:
            return None
        late = yield from c.irecv(1, tag=7, timeout=500.0)
        sent = yield from c.irecv(1, tag=8, timeout=500.0)
        assert not late.timed_out and not sent.timed_out
        got, expired = yield from c.waitall([sent, late])
        return got.tolist(), expired is TIMED_OUT, sent.timed_out, late.timed_out

    res = run_spmd(CFG, prog)
    assert res.results[0] == ([1.0, 1.0], True, False, True)
