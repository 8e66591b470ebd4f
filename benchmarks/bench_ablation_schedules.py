"""Ablation: SBT vs rotated-tree schedules on each machine type.

DESIGN.md calls out the schedule choice as the load-bearing design
decision behind the Table 1 multi-port column.  This bench runs *both*
schedules on *both* machines: the rotated schedule only pays off on
multi-port hardware with large-enough messages (the paper's ``M ≥ log N``
condition); on one-port machines or tiny messages its extra start-ups
lose.

Written to ``benchmarks/results/ablation_schedules.txt``.
"""

import numpy as np
import pytest

from _report import write_report
from repro.analysis.report import format_table
from repro.collectives import Schedule, broadcast
from repro.mpi import Comm
from repro.sim import MachineConfig, PortModel, run_spmd

_rows: list[list[str]] = []


def _time(schedule, port, M, p=16):
    def prog(ctx):
        comm = Comm(ctx, list(range(p)))
        data = np.ones(M) if comm.rank == 0 else None
        yield from broadcast(comm, data, root=0, schedule=schedule)
        return ctx.now

    cfg = MachineConfig.create(p, t_s=150, t_w=3, port_model=port)
    return run_spmd(cfg, prog).total_time


@pytest.mark.parametrize("M", [2, 16, 256, 4096], ids=lambda m: f"M{m}")
@pytest.mark.parametrize("port", list(PortModel), ids=str)
def test_schedule_choice(benchmark, M, port):
    def measure():
        return (
            _time(Schedule.SBT, port, M),
            _time(Schedule.ROTATED, port, M),
        )

    sbt, rotated = benchmark(measure)
    row = [str(port), str(M), f"{sbt:.0f}", f"{rotated:.0f}",
           "rotated" if rotated < sbt else "sbt"]
    if row not in _rows:
        _rows.append(row)

    if port is PortModel.ONE_PORT:
        # Chunking can't beat the one-port optimum.
        assert sbt <= rotated + 1e-9
    elif M >= 256:
        # Multi-port with M >= log N: rotated wins.
        assert rotated < sbt


def test_rotated_breakeven_message_size(benchmark):
    """Find the multi-port message size where rotated starts to win."""

    def breakeven():
        for M in range(1, 600):
            if _time(Schedule.ROTATED, PortModel.MULTI_PORT, M) < _time(
                Schedule.SBT, PortModel.MULTI_PORT, M
            ):
                return M
        return None

    M = benchmark.pedantic(breakeven, rounds=1, iterations=1)
    benchmark.extra_info["breakeven_M"] = M
    row = ["multi-port", "breakeven", str(M), "-", "-"]
    if row not in _rows:
        _rows.append(row)
    # On a multi-port machine the SBT already drives all children links
    # concurrently (same t_s depth as the rotated trees), so chunking wins
    # as soon as a message has enough words to split at all.
    assert M is not None
    assert 1 <= M <= 4  # log N = 4


def test_write_schedule_report(benchmark):
    def render():
        return format_table(
            ["machine", "M (words)", "SBT time", "rotated time", "winner"],
            _rows,
            title="Ablation: broadcast schedule choice, N=16, t_s=150, t_w=3",
        )

    assert write_report("ablation_schedules", benchmark(render)).exists()
