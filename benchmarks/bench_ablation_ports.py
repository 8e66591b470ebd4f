"""Ablation: one-port vs multi-port speedup, per collective and algorithm.

The paper's multi-port column promises a ``log N``-fold reduction of the
data-transmission terms plus phase overlap.  This bench quantifies the
realized end-to-end speedup on the simulator at several start-up/bandwidth
ratios, showing the speedup grow from ~1 (start-up bound) towards the
bandwidth bound as messages grow.

Written to ``benchmarks/results/ablation_ports.txt``.
"""

import numpy as np
import pytest

from _report import write_report
from repro.analysis.measure import measure_comm_time
from repro.analysis.report import format_table
from repro.collectives import allgather, broadcast
from repro.mpi import Comm
from repro.sim import MachineConfig, PortModel, run_spmd

_rows: list[list[str]] = []


def _collective_time(op, p, M, port):
    def prog(ctx):
        comm = Comm(ctx, list(range(p)))
        if op == "broadcast":
            data = np.ones(M) if comm.rank == 0 else None
            yield from broadcast(comm, data, root=0)
        else:
            yield from allgather(comm, np.ones(M))
        return ctx.now

    cfg = MachineConfig.create(p, t_s=150, t_w=3, port_model=port)
    return run_spmd(cfg, prog).total_time


@pytest.mark.parametrize("op", ["broadcast", "allgather"])
@pytest.mark.parametrize("M", [8, 64, 4096], ids=lambda m: f"M{m}")
def test_collective_speedup_grows_with_message_size(benchmark, op, M):
    p = 16

    def measure():
        one = _collective_time(op, p, M, PortModel.ONE_PORT)
        multi = _collective_time(op, p, M, PortModel.MULTI_PORT)
        return one / multi

    speedup = benchmark(measure)
    row = [op, str(M), f"{speedup:.2f}"]
    if row not in _rows:
        _rows.append(row)
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 0.99
    if M >= 4096:
        # bandwidth-bound: speedup approaches log sqrt-free log N = 4
        assert speedup > 2.5


@pytest.mark.parametrize(
    "key,n,p",
    [
        ("cannon", 64, 64),
        ("simple", 64, 64),
        ("berntsen", 64, 64),
        ("3dd", 64, 64),
        ("3d_all", 64, 64),
        ("dns", 64, 64),
    ],
)
def test_algorithm_port_speedup(benchmark, key, n, p):
    def measure():
        one = measure_comm_time(key, n, p, PortModel.ONE_PORT, 150, 3)
        multi = measure_comm_time(key, n, p, PortModel.MULTI_PORT, 150, 3)
        return one, multi

    one, multi = benchmark(measure)
    speedup = one / multi
    row = [key, f"n={n} p={p}", f"{speedup:.2f}"]
    if row not in _rows:
        _rows.append(row)
    assert multi <= one + 1e-9


def test_write_ablation_ports_report(benchmark):
    def render():
        return format_table(
            ["workload", "size", "one-port / multi-port speedup"],
            _rows,
            title="Ablation: multi-port speedup (t_s=150, t_w=3)",
        )

    assert write_report("ablation_ports", benchmark(render)).exists()
