"""Tests for ULFM-style recovery: dead-set consensus, communicator
shrink onto a live subcube, address translation, and checkpoint/restart."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.mpi import (
    CheckpointedMatmul,
    FailureDetectorContext,
    RecoveryContext,
    agree,
    shrink,
)
from repro.sim import FaultPlan, MachineConfig, run_spmd
from repro.topology.embedding import largest_live_subcube
from repro.topology.hypercube import Hypercube


def faulty(p: int, plan: FaultPlan) -> MachineConfig:
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, faults=plan)


class TestShrink:
    def test_no_dead_returns_full_cube(self):
        cube = Hypercube(3)
        sub = shrink(cube, [])
        assert sub is not None
        assert sub.num_nodes == 8

    def test_one_dead_yields_half_cube(self):
        cube = Hypercube(3)
        sub = shrink(cube, [5])
        assert sub is not None
        assert sub.num_nodes == 4
        assert 5 not in [sub.member(i) for i in range(sub.num_nodes)]

    def test_require_filters_candidates(self):
        cube = Hypercube(4)
        # Demand a square grid: only even dimensions qualify.
        sub = shrink(
            cube, [3],
            require=lambda s: s.dimension % 2 == 0,
        )
        assert sub is not None
        assert sub.dimension == 2

    def test_all_dead_returns_none(self):
        cube = Hypercube(2)
        assert shrink(cube, range(4)) is None

    def test_deterministic_across_callers(self):
        cube = Hypercube(4)
        subs = [shrink(cube, [2, 9]) for _ in range(3)]
        descs = {(s.free_dims, s.anchor) for s in subs}
        assert len(descs) == 1

    def test_largest_live_subcube_prefers_high_dimension(self):
        cube = Hypercube(3)
        sub = largest_live_subcube(cube, [n for n in range(8) if n != 0])
        assert sub is not None
        assert sub.dimension == 2


class TestAgree:
    def test_survivors_converge_on_dead_set(self):
        plan = FaultPlan(seed=1).with_node_failure(3, at=0.0)

        def prog(ctx):
            det = FailureDetectorContext(ctx)
            dead = yield from agree(det)
            return sorted(dead)

        res = run_spmd(faulty(8, plan), prog)
        assert 3 not in res.results
        assert all(v == [3] for v in res.results.values())

    def test_spreads_preexisting_convictions(self):
        """Only rank 0 has personally observed the death; after agree
        every survivor knows."""
        plan = FaultPlan(seed=1).with_node_failure(2, at=0.5)

        def prog(ctx):
            det = FailureDetectorContext(ctx)
            if ctx.rank == 0:
                yield from det.probe(2)
                assert det.known_dead == frozenset({2})
            dead = yield from agree(det)
            return sorted(dead)

        res = run_spmd(faulty(4, plan), prog)
        assert all(v == [2] for v in res.results.values())

    def test_clean_machine_agrees_on_nothing(self):
        plan = FaultPlan(seed=1).with_node_failure(3, at=1e9)

        def prog(ctx):
            det = FailureDetectorContext(ctx)
            dead = yield from agree(det)
            return sorted(dead)

        res = run_spmd(faulty(4, plan), prog)
        assert all(v == [] for v in res.results.values())


class TestRecoveryContext:
    def test_virtual_addressing_and_tag_shift(self):
        """Members of a shrunken machine talk by virtual rank; tags are
        relocated so reruns never consume stale first-attempt traffic."""
        cube = Hypercube(3)
        sub = shrink(cube, [5])
        members = [sub.member(i) for i in range(sub.num_nodes)]

        def prog(ctx):
            if ctx.rank not in members:
                return None
            rctx = RecoveryContext(ctx, sub, tag_shift=100)
            assert rctx.num_ranks == 4
            assert rctx.physical_rank == ctx.rank
            assert rctx.config.num_nodes == 4
            peer = rctx.rank ^ 1
            got = yield from rctx.exchange(
                peer, np.full(2, float(rctx.rank)), tag=3
            )
            return (rctx.rank, float(got[0]))

        res = run_spmd(MachineConfig.create(8, t_s=10.0, t_w=1.0), prog)
        for phys in members:
            vrank, got = res.results[phys]
            assert got == float(vrank ^ 1)

    def test_send_recv_and_sendrecv_translate_rank_and_tag(self):
        """Each point-to-point call maps a virtual peer to its physical
        subcube member and shifts the tag, both ways: a bare context on
        the other side sees physical ranks and shifted tags."""
        cube = Hypercube(3)
        sub = shrink(cube, [0])
        member = [sub.member(i) for i in range(sub.num_nodes)]
        assert member == [4, 5, 6, 7]  # virtual rank v is physical 4 + v

        def prog(ctx):
            if ctx.rank not in member:
                return None
            rctx = RecoveryContext(ctx, sub, tag_shift=100)
            v = rctx.rank
            if v == 0:  # virtual send -> bare receive at the physical peer
                yield from rctx.send(1, np.array([7.0]), tag=3)
                got = yield from rctx.recv(1, tag=4)
                return float(got[0])
            if v == 1:  # bare send -> virtual receive
                got = yield from ctx.recv(member[0], tag=103)
                yield from ctx.send(member[0], got + 1.0, tag=104)
                return float(got[0])
            if v == 2:  # virtual sendrecv <-> bare pair at the physical peer
                got = yield from rctx.sendrecv(
                    3, np.array([2.0]), src=3, send_tag=5, recv_tag=6
                )
                return float(got[0])
            got = yield from ctx.recv(member[2], tag=105)
            yield from ctx.send(member[2], got * 10.0, tag=106)
            return float(got[0])

        # a wrong rank or tag on any side leaves a receive unmatched, and
        # the run fails instead of returning these values
        res = run_spmd(MachineConfig.create(8, t_s=10.0, t_w=1.0), prog)
        assert [res.results[m] for m in member] == [8.0, 7.0, 20.0, 2.0]

    def test_non_member_is_rejected(self):
        cube = Hypercube(3)
        sub = shrink(cube, [5])
        outsiders = [5]

        def prog(ctx):
            if ctx.rank in outsiders:
                with pytest.raises(CommunicatorError):
                    RecoveryContext(ctx, sub)
                return "rejected"
            return None
            yield  # pragma: no cover

        res = run_spmd(MachineConfig.create(8, t_s=10.0, t_w=1.0), prog)
        assert res.results[5] == "rejected"


class TestCheckpointRestart:
    def test_one_kill_restarts_on_subcube_exactly(self):
        from repro.algorithms import get_algorithm

        rng = np.random.default_rng(0)
        n = 8
        A = rng.integers(-4, 5, (n, n)).astype(float)
        B = rng.integers(-4, 5, (n, n)).astype(float)
        algo = get_algorithm("cannon")
        cfg0 = MachineConfig.create(16, t_s=10.0, t_w=1.0)
        base = algo.run(A, B, cfg0)
        plan = FaultPlan(seed=1).with_node_failure(
            6, at=base.total_time * 0.4
        )
        run = CheckpointedMatmul(algo).run(A, B, cfg0.with_faults(plan))
        assert run.mode == "checkpoint"
        assert run.machine == "sub"
        assert run.dead == (6,)
        assert run.recovered
        assert run.epochs >= 1
        assert np.array_equal(run.C, A @ B)
        assert run.total_time > base.total_time

    def test_serial_fallback_when_no_subcube_fits(self):
        """On p=4 cannon cannot shrink (no 1- or 0-dim square grid), so
        the lowest survivor computes serially."""
        from repro.algorithms import get_algorithm

        rng = np.random.default_rng(1)
        n = 6
        A = rng.integers(-4, 5, (n, n)).astype(float)
        B = rng.integers(-4, 5, (n, n)).astype(float)
        algo = get_algorithm("cannon")
        cfg0 = MachineConfig.create(4, t_s=10.0, t_w=1.0)
        base = algo.run(A, B, cfg0)
        plan = FaultPlan(seed=1).with_node_failure(
            3, at=base.total_time * 0.5
        )
        run = CheckpointedMatmul(algo).run(A, B, cfg0.with_faults(plan))
        assert run.machine == "serial"
        assert np.array_equal(run.C, A @ B)

    def test_fault_free_checkpoint_only_pays_snapshot(self):
        from repro.algorithms import get_algorithm

        rng = np.random.default_rng(2)
        n = 8
        A = rng.integers(-4, 5, (n, n)).astype(float)
        B = rng.integers(-4, 5, (n, n)).astype(float)
        algo = get_algorithm("cannon")
        cfg0 = MachineConfig.create(16, t_s=10.0, t_w=1.0)
        base = algo.run(A, B, cfg0)
        run = CheckpointedMatmul(algo).run(A, B, cfg0)
        assert run.machine == "full"
        assert not run.recovered
        assert run.epochs == 0
        assert np.array_equal(run.C, A @ B)
        # snapshot charge only: strictly more than the plain run, but
        # within the cost of writing one input block per rank
        assert base.total_time < run.total_time <= base.total_time * 1.5

    def test_restart_distributes_inputs_once_per_submachine(
        self, monkeypatch, capsys
    ):
        """The survivors of a kill share one input distribution of the
        restart's sub-machine: 4 holders x 2 blocks on Cannon's 2x2 grid,
        not that once for every participant."""
        from repro.blocks.partition import BlockGrid
        from repro.cli import main

        grids = []
        extract = BlockGrid.extract

        def counting_extract(self, matrix, index):
            grids.append((self.rows, self.cols))
            return extract(self, matrix, index)

        monkeypatch.setattr(BlockGrid, "extract", counting_extract)
        assert main([
            "recover", "-n", "16", "-p", "16", "--algorithms", "cannon",
            "--kill-fracs", "0.3", "--modes", "checkpoint",
        ]) == 0
        assert " sub\n" in capsys.readouterr().out
        assert grids.count((2, 2)) == 8
        assert set(grids) == {(4, 4), (2, 2)}
