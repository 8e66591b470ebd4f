"""Tests for the discrete-event SPMD engine: semantics and timing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import ANY_SOURCE, MachineConfig, PortModel, run_spmd
from repro.sim.engine import Engine

CFG = MachineConfig.create(8, t_s=10.0, t_w=1.0)


def idle(ctx):
    """Program for ranks that do nothing (still a generator)."""
    if False:
        yield
    return None


class TestPointToPoint:
    def test_send_recv_delivers_data(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.arange(4.0))
            elif ctx.rank == 1:
                data = yield from ctx.recv(0)
                return data.tolist()
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == [0.0, 1.0, 2.0, 3.0]

    def test_neighbor_timing(self):
        """One hop of m words costs t_s + t_w*m."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(7))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == pytest.approx(17.0)

    def test_multihop_store_and_forward(self):
        """Distance-3 transfer costs 3*(t_s + t_w*m)."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(7, np.ones(5))
            elif ctx.rank == 7:
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(CFG, prog)
        assert res.results[7] == pytest.approx(3 * 15.0)

    def test_self_send_is_free(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(0, np.ones(1000))
                got = yield from ctx.recv(0)
                return (ctx.now, got.size)
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == (0.0, 1000)

    def test_eager_buffering_message_before_recv(self):
        """A message may arrive before its receive is posted."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(2))
            elif ctx.rank == 1:
                yield from ctx.elapse(500.0)
                data = yield from ctx.recv(0)
                return (ctx.now, float(data[0]))
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == (500.0, 1.0)

    def test_tag_matching(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.array([1.0]), tag=5)
                yield from ctx.send(1, np.array([2.0]), tag=6)
            elif ctx.rank == 1:
                second = yield from ctx.recv(0, tag=6)
                first = yield from ctx.recv(0, tag=5)
                return (float(first[0]), float(second[0]))
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == (1.0, 2.0)

    def test_any_source(self):
        def prog(ctx):
            if ctx.rank in (1, 2):
                yield from ctx.send(0, np.array([float(ctx.rank)]))
            elif ctx.rank == 0:
                a = yield from ctx.recv(ANY_SOURCE)
                b = yield from ctx.recv(ANY_SOURCE)
                return sorted([float(a[0]), float(b[0])])
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == [1.0, 2.0]

    def test_copy_on_send_protects_buffer(self):
        """Sender may overwrite its buffer right after send returns."""

        def prog(ctx):
            if ctx.rank == 0:
                buf = np.ones(4)
                h = yield from ctx.isend(1, buf)
                buf[:] = -1.0
                yield from ctx.wait(h)
            elif ctx.rank == 1:
                data = yield from ctx.recv(0)
                return float(data.sum())
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == 4.0

    def test_out_of_range_peer_rejected(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(99, np.ones(1))
            return None
            yield

        with pytest.raises(SimulationError):
            run_spmd(CFG, prog)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda ctx: ctx.isend(-1, np.ones(1)), "rank -1 out of range on a 8-node"),
            (lambda ctx: ctx.recv(8), "rank 8 out of range"),
            (lambda ctx: ctx.irecv(np.int64(9)), "rank 9 out of range"),
            # the peer is checked before the word count
            (lambda ctx: ctx.send(99, None), "rank 99 out of range"),
            (lambda ctx: ctx.isend(1, None), "timing-only message needs an explicit nwords"),
            (lambda ctx: ctx.send(1, None, nwords=-2), "explicit nwords must be >= 0"),
        ],
    )
    def test_each_send_and_recv_checks_its_peer_then_its_word_count(
        self, call, message
    ):
        def prog(ctx):
            if ctx.rank == 0:
                yield from call(ctx)
            return None
            yield

        with pytest.raises(SimulationError, match=message):
            run_spmd(CFG, prog)

    def test_numpy_integer_peers_stay_python_ints(self):
        """Peers computed with numpy (``np.int64``) are normalized where
        the op is built: same route-cache keys, same trace digest as the
        ``int`` program, and a JSON-serializable trace."""

        def make(cast):
            def prog(ctx):
                peer = cast(ctx.rank ^ 5)  # two hops away
                got = yield from ctx.exchange(peer, np.ones(3), tag=cast(4))
                if ctx.rank == 0:
                    yield from ctx.send(cast(7), np.ones(2), tag=cast(9))
                elif ctx.rank == 7:
                    yield from ctx.recv(cast(0), tag=cast(9))
                return float(got.sum())

            return prog

        plain = run_spmd(CFG, make(int), trace=True)
        numpy_ = run_spmd(CFG, make(np.int64), trace=True)
        assert numpy_.trace_digest() == plain.trace_digest()
        for rec in numpy_.trace:
            assert type(rec.rank) is int
            json.dumps(rec.info)
        assert numpy_.results == plain.results

    def test_fifo_between_same_pair_same_tag(self):
        def prog(ctx):
            if ctx.rank == 0:
                for v in (1.0, 2.0, 3.0):
                    yield from ctx.send(1, np.array([v]))
            elif ctx.rank == 1:
                out = []
                for _ in range(3):
                    d = yield from ctx.recv(0)
                    out.append(float(d[0]))
                return out
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == [1.0, 2.0, 3.0]


class TestBlockingSemantics:
    def test_blocking_send_returns_after_injection(self):
        """Send returns once the first hop is done, not on delivery."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(7, np.ones(5))  # 3 hops, 15 each
                return ctx.now
            if ctx.rank == 7:
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == pytest.approx(15.0)
        assert res.results[7] == pytest.approx(45.0)

    def test_sendrecv_full_duplex(self):
        def prog(ctx):
            if ctx.rank in (0, 1):
                got = yield from ctx.exchange(1 - ctx.rank, np.ones(5))
                return ctx.now
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == pytest.approx(15.0)
        assert res.results[1] == pytest.approx(15.0)

    def test_recv_blocks_until_arrival(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.elapse(100.0)
                yield from ctx.send(1, np.ones(5))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(CFG, prog)
        assert res.results[1] == pytest.approx(115.0)

    def test_waitall_returns_values_in_order(self):
        def prog(ctx):
            if ctx.rank == 0:
                h1 = yield from ctx.irecv(1, tag=1)
                h2 = yield from ctx.irecv(2, tag=2)
                vals = yield from ctx.waitall([h2, h1])
                return [float(v[0]) for v in vals]
            if ctx.rank in (1, 2):
                yield from ctx.send(0, np.array([float(ctx.rank)]), tag=ctx.rank)
            return None

        res = run_spmd(CFG, prog)
        assert res.results[0] == [2.0, 1.0]

    def test_wait_on_foreign_handle_rejected(self):
        shared = {}

        def prog(ctx):
            if ctx.rank == 0:
                shared["h"] = yield from ctx.irecv(1)
                yield from ctx.send(1, np.ones(1))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
                yield from ctx.wait(shared["h"])
            return None

        with pytest.raises(SimulationError):
            run_spmd(CFG, prog)


class TestComputeAndClock:
    def test_elapse_advances_clock(self):
        def prog(ctx):
            yield from ctx.elapse(42.0)
            return ctx.now

        res = run_spmd(CFG, prog)
        assert all(v == 42.0 for v in res.results.values())

    def test_negative_elapse_rejected(self):
        def prog(ctx):
            yield from ctx.elapse(-1.0)

        with pytest.raises(SimulationError):
            run_spmd(CFG, prog)

    def test_local_matmul_counts_flops(self):
        def prog(ctx):
            if ctx.rank == 0:
                A = np.ones((4, 8))
                B = np.ones((8, 2))
                C = yield from ctx.local_matmul(A, B)
                return C.shape
            return None
            yield

        engine = Engine(CFG)
        res = engine.run(prog)
        assert res.results[0] == (4, 2)
        assert res.stats[0].flops == 2 * 4 * 8 * 2

    def test_local_matmul_charges_tc(self):
        cfg = MachineConfig.create(8, t_s=0, t_w=0, t_c=0.5)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.local_matmul(np.ones((2, 2)), np.ones((2, 2)))
                return ctx.now
            return None
            yield

        res = run_spmd(cfg, prog)
        assert res.results[0] == pytest.approx(0.5 * 16)

    def test_local_matmul_accumulates(self):
        def prog(ctx):
            if ctx.rank == 0:
                C = np.full((2, 2), 100.0)
                C = yield from ctx.local_matmul(np.eye(2), np.eye(2), C)
                return C[0, 0]
            return None
            yield

        res = run_spmd(CFG, prog)
        assert res.results[0] == 101.0

    def test_local_matmul_shape_mismatch(self):
        def prog(ctx):
            yield from ctx.local_matmul(np.ones((2, 3)), np.ones((2, 3)))

        with pytest.raises(SimulationError):
            run_spmd(CFG, prog)


class TestLifecycle:
    def test_deadlock_detection(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1)
            return None
            yield

        with pytest.raises(DeadlockError) as exc:
            run_spmd(CFG, prog)
        assert 0 in exc.value.blocked

    def test_engine_single_use(self):
        engine = Engine(CFG)
        engine.run(idle)
        with pytest.raises(SimulationError):
            engine.run(idle)

    def test_non_generator_program_rejected(self):
        with pytest.raises(SimulationError):
            run_spmd(CFG, lambda ctx: 42)

    def test_results_per_rank(self):
        def prog(ctx):
            if False:
                yield
            return ctx.rank * 10

        res = run_spmd(CFG, prog)
        assert res.results == {r: r * 10 for r in range(8)}

    def test_barrier_synchronizes(self):
        def prog(ctx):
            yield from ctx.elapse(float(ctx.rank))
            yield from ctx.barrier()
            return ctx.now

        res = run_spmd(CFG, prog)
        assert all(v == 7.0 for v in res.results.values())

    def test_determinism(self):
        def prog(ctx):
            r = ctx.rank
            got = yield from ctx.sendrecv((r + 1) % 8, np.ones(9), src=(r - 1) % 8)
            yield from ctx.sendrecv((r + 3) % 8, got, src=(r - 3) % 8)
            return ctx.now

        t1 = run_spmd(CFG, prog).total_time
        t2 = run_spmd(CFG, prog).total_time
        assert t1 == t2


class TestStats:
    def test_word_counters(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(12))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        res = run_spmd(CFG, prog)
        assert res.stats[0].words_sent == 12
        assert res.stats[0].messages_sent == 1
        assert res.stats[1].words_received == 12
        assert res.stats[1].messages_received == 1
        assert res.total_words_sent() == 12

    def test_memory_high_water_mark(self):
        def prog(ctx):
            ctx.note_memory(50)
            ctx.note_memory(10)
            if False:
                yield
            return None

        res = run_spmd(CFG, prog)
        assert res.stats[0].peak_memory_words == 50
        assert res.max_peak_memory_words() == 50
        assert res.total_peak_memory_words() == 8 * 50

    def test_phase_times(self):
        def prog(ctx):
            ctx.phase("alpha")
            yield from ctx.elapse(10.0)
            ctx.phase("beta")
            yield from ctx.elapse(5.0)
            return None

        res = run_spmd(CFG, prog)
        assert res.phase_times["alpha"] == (0.0, 10.0)
        assert res.phase_times["beta"] == (10.0, 15.0)
        assert res.phase_duration("beta") == 5.0

    def test_events_processed_is_surfaced_outside_the_digest(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(3, np.ones(5))
            elif ctx.rank == 3:
                yield from ctx.recv(0)
            return None

        res = run_spmd(CFG, prog)
        # 8 initial resumes, 2 hops x (ready + done), 2 wake-ups
        assert res.events_processed == 14
        # a diagnostic of host work: no digest moves with it
        assert replace(res, events_processed=0).trace_digest() == res.trace_digest()
        # it is the count the max_events watchdog caps (inclusive)
        assert Engine(CFG, max_events=14).run(prog).events_processed == 14

    def test_trace_records_hops(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(3, np.ones(5))
            elif ctx.rank == 3:
                yield from ctx.recv(0)
            return None

        res = run_spmd(CFG, prog, trace=True)
        hops = [t for t in res.trace if t.kind == "hop"]
        assert len(hops) == 2  # distance(0, 3) == 2
        assert hops[0].info["words"] == 5
