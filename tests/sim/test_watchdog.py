"""Watchdog tests: livelock caps and rich deadlock diagnostics.

A lost or impossible message must end in a typed exception carrying
enough state to diagnose it — never a silent hang."""

import numpy as np
import pytest

from repro import get_algorithm
from repro.errors import CommTimeoutError, DeadlockError, LivelockError
from repro.mpi import ReliableContext
from repro.sim import FaultPlan, MachineConfig, run_spmd
from repro.sim.ops import Handle

CFG = MachineConfig.create(4, t_s=10.0, t_w=1.0)


def ping_pong_forever(ctx):
    """Two ranks bounce a message endlessly: livelock, not deadlock."""
    peer = ctx.rank ^ 1
    if ctx.rank == 0:
        yield from ctx.send(peer, np.ones(1))
    if ctx.rank in (0, 1):
        while True:
            yield from ctx.recv(peer)
            yield from ctx.send(peer, np.ones(1))
    return None


class TestLivelock:
    def test_max_events_trips(self):
        with pytest.raises(LivelockError) as exc:
            run_spmd(CFG, ping_pong_forever, max_events=500)
        err = exc.value
        assert err.reason == "max_events"
        assert err.events_processed >= 500
        assert err.progress  # per-rank snapshot present
        assert "max_events" in str(err)

    def test_max_virtual_time_trips(self):
        with pytest.raises(LivelockError) as exc:
            run_spmd(CFG, ping_pong_forever, max_virtual_time=1000.0)
        err = exc.value
        assert err.reason == "max_virtual_time"
        assert err.virtual_time >= 1000.0

    def test_generous_caps_do_not_trip(self):
        def prog(ctx):
            yield from ctx.exchange(ctx.rank ^ 1, np.ones(4))
            return ctx.rank

        res = run_spmd(CFG, prog, max_events=100_000, max_virtual_time=1e9)
        assert res.results[0] == 0


class TestStaleTimers:
    """A receive timer whose receive completed first is no event: it
    neither counts nor trips a watchdog, however late it lies."""

    def test_a_timer_past_the_cap_whose_receive_completed_does_not_trip(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1, timeout=1000.0)
            elif ctx.rank == 1:
                yield from ctx.send(0, np.ones(4))
            return ctx.rank

        free = run_spmd(CFG, prog)
        assert free.total_time == 14.0
        # 4 starts, hop ready and done, rank 1's and rank 0's resumes
        assert free.events_processed == 8
        capped = run_spmd(CFG, prog, max_virtual_time=100.0, max_events=8)
        assert capped.total_time == 14.0
        assert capped.events_processed == 8

    def test_a_live_timeout_past_the_cap_still_trips(self):
        def prog(ctx):
            if ctx.rank == 0:
                try:
                    yield from ctx.recv(1, timeout=1000.0)  # nobody sends
                except CommTimeoutError:
                    pass
            return ctx.rank

        assert run_spmd(CFG, prog).events_processed == 4 + 2
        with pytest.raises(LivelockError) as exc:
            run_spmd(CFG, prog, max_virtual_time=100.0)
        assert exc.value.reason == "max_virtual_time"
        assert exc.value.virtual_time == 1000.0
        with pytest.raises(LivelockError) as exc:
            run_spmd(CFG, prog, max_events=5)
        assert exc.value.reason == "max_events"

    def test_a_finished_lossy_run_fits_caps_of_its_own_size(self):
        """Cannon, n = p = 16, a 5 % drop plan under ReliableContext: most
        ack timers outlive their acks (120 of them here).  The run fits a
        ``max_virtual_time`` of 1.5 × its makespan and a ``max_events`` of
        exactly the events it consumed."""
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))

        def run(**caps):
            plan = FaultPlan(seed=3).with_drop_rate(0.05)
            cfg = MachineConfig.create(16, t_s=10.0, t_w=1.0, faults=plan)
            return get_algorithm("cannon").run(
                a, b, cfg, verify=True, context_factory=ReliableContext, **caps
            ).result

        free = run()
        assert free.total_time == 2542.0
        assert free.events_processed == 1114
        assert free.network.retransmissions > 0
        for caps in (
            {"max_virtual_time": 1.5 * free.total_time},
            {"max_events": free.events_processed},
        ):
            capped = run(**caps)
            assert capped.total_time == free.total_time
            assert capped.events_processed == free.events_processed
        with pytest.raises(LivelockError):
            run(max_events=free.events_processed - 1)


class TestOperationText:
    """The operation summary a stuck handle renders (lazily, from its
    ``kind``/``peer``/``tag``) and the ``#id`` that disambiguates it."""

    def test_handle_detail_forms(self):
        assert Handle("send", 0, 4, 3, 7).detail == "send dst=3 tag=7"
        assert Handle("recv", 0, 4, 1, 7).detail == "recv src=1 tag=7"
        assert Handle("recv", (0, 2), 4, -1, -1).detail == "recv src=ANY tag=ANY"
        assert Handle("recv", 0, 4, 2, -1).detail == "recv src=2 tag=ANY"
        # a node's own ack send: no program ever waits on it
        assert Handle("send", 5).detail == ""
        assert "recv src=1 tag=7" in repr(Handle("recv", 0, 4, 1, 7))

    def test_deadlock_pins_recv_text(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1, tag=7)
            elif ctx.rank == 2:
                yield from ctx.recv()
            elif ctx.rank == 3:
                h = yield from ctx.irecv(2)
                yield from ctx.wait(h)
            return None

        with pytest.raises(DeadlockError) as exc:
            run_spmd(CFG, prog)
        assert exc.value.blocked == {
            0: "task 0: waiting on recv src=1 tag=7#0",
            2: "task 2: waiting on recv src=ANY tag=ANY#1",
            3: "task 3: waiting on recv src=2 tag=ANY#2",
        }

    def test_deadlock_pins_subtask_text(self):
        def stuck(ctx, src, tag):
            yield from ctx.recv(src, tag=tag)

        def prog(ctx):
            if ctx.rank == 1:
                yield from ctx.parallel(stuck(ctx, 0, 5), stuck(ctx, -1, 6))
            return None

        with pytest.raises(DeadlockError) as exc:
            run_spmd(CFG, prog)
        assert exc.value.blocked_tasks[1] == [
            "task (1, 1): waiting on recv src=0 tag=5#0",
            "task (1, 2): waiting on recv src=ANY tag=6#1",
            "task 1: waiting on sub-tasks ['(1, 1)', '(1, 2)']",
        ]

    def test_livelock_snapshot_pins_send_text(self):
        """A blocking send is pending only while its first hop is in
        flight, so a watchdog snapshot is where its text shows."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(3, np.ones(8), tag=5)
            return None

        with pytest.raises(LivelockError) as exc:
            run_spmd(CFG, prog, max_events=5)
        assert exc.value.progress == {
            0: "t=0, task 0: waiting on send dst=3 tag=5#0"
        }

    def test_error_text_does_not_depend_on_process_history(self):
        """Handle ids come from the engine, not from a module global: the
        same hanging program raises byte-identical text every time (a
        chaos ``hang`` violation's detail must not vary with trial order
        or worker sharding)."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1, tag=7)  # nobody sends
            return None

        texts = []
        for _ in range(2):
            with pytest.raises(DeadlockError) as exc:
                run_spmd(MachineConfig.create(2, t_s=10.0, t_w=1.0), prog)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]
        assert texts[0].endswith("waiting on recv src=1 tag=7#0")


class TestDeadlockDiagnostics:
    def test_plain_deadlock_names_the_blocked_recv(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1, tag=7)  # nobody sends
            return None

        with pytest.raises(DeadlockError) as exc:
            run_spmd(CFG, prog)
        err = exc.value
        assert 0 in err.blocked
        assert "src=1" in err.blocked[0] and "tag=7" in err.blocked[0]

    def test_all_blocked_subtasks_reported(self):
        """A rank stuck in several ctx.parallel children must report every
        stuck sub-task, not just the first one found."""

        def stuck(ctx, src, tag):
            yield from ctx.recv(src, tag=tag)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.parallel(
                    stuck(ctx, 1, 11),
                    stuck(ctx, 2, 22),
                    stuck(ctx, 3, 33),
                )
            return None

        with pytest.raises(DeadlockError) as exc:
            run_spmd(CFG, prog)
        err = exc.value
        stuck_recvs = [t for t in err.blocked_tasks[0] if "recv" in t]
        assert len(stuck_recvs) == 3
        joined = err.blocked[0]
        for tag in ("tag=11", "tag=22", "tag=33"):
            assert tag in joined
        # ...and the parent is reported waiting on its children
        assert any("sub-tasks" in t for t in err.blocked_tasks[0])
        # blocked keeps the one-line-per-rank shape for old callers
        assert isinstance(err.blocked[0], str)

    def test_deadlock_reports_failed_ranks(self):
        """Waiting (unprotected) on a fail-stopped node is a deadlock that
        names the corpse."""
        plan = FaultPlan().with_node_failure(1)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1)
            return None

        with pytest.raises(DeadlockError) as exc:
            run_spmd(MachineConfig.create(4, faults=plan), prog)
        err = exc.value
        assert err.failed_ranks == (1,)
        assert "fail-stopped" in str(err)

    def test_mixed_rank_and_subtask_blockage(self):
        def stuck(ctx, tag):
            yield from ctx.recv(2, tag=tag)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.parallel(stuck(ctx, 1), stuck(ctx, 2))
            elif ctx.rank == 1:
                yield from ctx.recv(3, tag=9)
            return None

        with pytest.raises(DeadlockError) as exc:
            run_spmd(CFG, prog)
        err = exc.value
        assert set(err.blocked) == {0, 1}
        assert len([t for t in err.blocked_tasks[0] if "recv" in t]) == 2
        assert len(err.blocked_tasks[1]) == 1
