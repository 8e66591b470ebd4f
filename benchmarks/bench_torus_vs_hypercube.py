"""Extension bench: Cannon on a 2-D torus vs the hypercube embedding.

§3.3 notes that Cannon's shift-multiply phase performs identically on both
machines; only the alignment differs (arbitrary shifts cost up to ``q/2``
ring hops on the torus vs ``≤ log q`` e-cube hops).  This bench measures
both machines with the identical Cannon kernel and separates the phases.

Written to ``benchmarks/results/torus_vs_hypercube.txt``.
"""

import numpy as np
import pytest

from _report import write_report
from repro.algorithms import get_algorithm
from repro.algorithms.torus_cannon import run_cannon_on_torus, torus_machine_like
from repro.analysis.report import format_table
from repro.sim import MachineConfig

TS, TW = 10.0, 1.0

_rows: list[list[str]] = []


def _measure(n, q):
    rng = np.random.default_rng(17)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    hyper_cfg = MachineConfig.create(q * q, t_s=TS, t_w=TW)
    hyper = get_algorithm("cannon").run(A, B, hyper_cfg, verify=True)
    torus = run_cannon_on_torus(A, B, torus_machine_like(hyper_cfg, q), verify=True)
    return hyper.total_time, torus.total_time


@pytest.mark.parametrize("n,q", [(8, 2), (16, 4), (32, 8), (64, 16)])
def test_torus_vs_hypercube(benchmark, n, q):
    t_hyper, t_torus = benchmark(_measure, n, q)
    m = (n // q) ** 2
    shift_phase = 2 * (q - 1) * (TS + TW * m)
    row = [
        f"{q}x{q}",
        str(n),
        f"{shift_phase:.0f}",
        f"{t_hyper - shift_phase:.0f}",
        f"{t_torus - shift_phase:.0f}",
        f"{t_torus / t_hyper:.2f}",
    ]
    if row not in _rows:
        _rows.append(row)
    # Shift phase identical by construction; hypercube alignment never
    # slower than the torus ring alignment.
    assert t_hyper <= t_torus


def test_write_torus_report(benchmark):
    def render():
        return format_table(
            ["grid", "n", "shift phase (both)", "align (hypercube)",
             "align (torus)", "torus/hypercube total"],
            _rows,
            title=(
                "Cannon: torus vs Gray-embedded hypercube "
                f"(t_s={TS:g}, t_w={TW:g}); shift-multiply phase is machine-"
                "independent (§3.3)"
            ),
        )

    assert write_report("torus_vs_hypercube", benchmark(render)).exists()
