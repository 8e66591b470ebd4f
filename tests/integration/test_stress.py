"""Stress and fuzz tests: random concurrent collective workloads.

Random SPMD programs composed of concurrent collectives over random
subcube communicators — checking the engine never deadlocks, tags isolate
concurrent operations, and semantics hold under arbitrary interleavings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import allgather, allreduce, broadcast, reduce_scatter
from repro.mpi import Comm
from repro.sim import MachineConfig, PortModel, run_spmd
from repro.topology import Grid2DEmbedding


@settings(max_examples=12)
@given(
    st.sampled_from(list(PortModel)),
    st.integers(0, 10_000),
    st.integers(1, 3),
)
def test_random_concurrent_collectives(port, seed, rounds):
    """Row+column collectives run concurrently for several rounds."""
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, 3, size=rounds)

    def prog(ctx):
        grid = Grid2DEmbedding.square(ctx.config.cube)
        r, c = grid.coords_of(ctx.rank)
        row = Comm(ctx, grid.row_members(r))
        col = Comm(ctx, grid.col_members(c))
        for rnd, choice in enumerate(choices):
            base = 2 * rnd
            if choice == 0:
                a, b = yield from ctx.parallel(
                    allgather(row, np.full(4, float(c)), tag=base),
                    allgather(col, np.full(4, float(r)), tag=base + 1),
                )
                assert [float(np.asarray(x)[0]) for x in a] == [0.0, 1.0, 2.0, 3.0]
                assert [float(np.asarray(x)[0]) for x in b] == [0.0, 1.0, 2.0, 3.0]
            elif choice == 1:
                root_data = np.full(5, float(r)) if row.rank == 0 else None
                a, b = yield from ctx.parallel(
                    broadcast(row, root_data, root=0, tag=base),
                    allreduce(col, np.ones(8), tag=base + 1),
                )
                assert np.all(np.asarray(a) == r)
                assert np.all(np.asarray(b) == 4.0)
            else:
                blocks = [np.full(4, float(dst)) for dst in range(4)]
                a, b = yield from ctx.parallel(
                    reduce_scatter(row, blocks, tag=base),
                    reduce_scatter(col, blocks, tag=base + 1),
                )
                assert np.all(np.asarray(a) == 4 * row.rank)
                assert np.all(np.asarray(b) == 4 * col.rank)
        return True

    cfg = MachineConfig.create(16, t_s=3, t_w=1, port_model=port)
    res = run_spmd(cfg, prog)
    assert all(res.results.values())


@settings(max_examples=8)
@given(st.integers(0, 1000))
def test_random_point_to_point_permutations(seed):
    """Every rank sends to a random permutation target; all arrive."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(16)

    def prog(ctx):
        dst = int(perm[ctx.rank])
        src = int(np.where(perm == ctx.rank)[0][0])
        got = yield from ctx.sendrecv(
            dst, np.array([float(ctx.rank)]), src=src
        )
        return float(got[0])

    res = run_spmd(MachineConfig.create(16, t_s=2, t_w=1), prog)
    for rank in range(16):
        src = int(np.where(perm == rank)[0][0])
        assert res.results[rank] == float(src)


@settings(max_examples=6)
@given(st.sampled_from(list(PortModel)), st.integers(0, 500))
def test_algorithm_then_collective_composition(port, seed):
    """Run a matmul, then allreduce a checksum of C — composed workloads."""
    from repro.algorithms import get_algorithm

    n, p = 16, 16
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    expected = float(np.sum(A @ B))

    algo = get_algorithm("cannon")
    cfg = MachineConfig.create(p, t_s=2, t_w=1, port_model=port)
    initial = algo.distribute_inputs(A, B, cfg.cube)

    def prog(ctx):
        c_block = yield from algo.program(ctx, n, initial[ctx.rank])
        comm = Comm(ctx, list(range(p)))
        total = yield from allreduce(
            comm, np.array([float(c_block.sum())]), tag=50
        )
        return float(np.asarray(total).sum())

    res = run_spmd(cfg, prog)
    for rank in range(p):
        assert res.results[rank] == pytest.approx(expected)
