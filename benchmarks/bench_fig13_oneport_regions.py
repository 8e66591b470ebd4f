"""Reproduce **Figure 13**: one-port best-algorithm region maps.

Panels (a)-(d) evaluate the Table 2 expressions over the (log₂ n, log₂ p)
lattice for four ``(t_s, t_w)`` settings (the paper names t_s=150, t_w=3;
the others scan the start-up/bandwidth ratio downward) and mark each point
with the algorithm of least communication overhead — exactly what the
paper's analysis program did.

ASCII renderings are written to ``benchmarks/results/fig13_*.txt``; the
benchmark times the map computation.  Assertions pin the paper's stated
region structure.
"""

import pytest

from _report import format_table, write_report
from repro.analysis.figures import PANELS, render_ascii
from repro.analysis.measure import measure_cell
from repro.analysis.regions import best_algorithm, region_map
from repro.sim import PortModel

LOG2N, LOG2P = 13, 20


@pytest.mark.parametrize("panel", sorted(PANELS))
def test_fig13_panel(benchmark, panel):
    t_s, t_w = PANELS[panel]
    rm = benchmark(
        region_map, PortModel.ONE_PORT, t_s, t_w,
        log2_n_max=LOG2N, log2_p_max=LOG2P,
    )
    art = render_ascii(
        rm, f"Figure 13({panel}) reproduction: one-port, t_s={t_s:g}, t_w={t_w:g}"
    )
    write_report(f"fig13_{panel}", art)
    benchmark.extra_info.update(counts=rm.counts())

    # Paper §5.1: 3D All wins its whole applicability region (p >= 8).
    assert rm.fraction_won("3d_all", where=lambda n, p: 8 <= p <= n ** 1.5) == 1.0
    # 3DD is the only algorithm beyond p = n^2.
    assert rm.fraction_won("3dd", where=lambda n, p: n * n < p <= n ** 3) == 1.0


#: simulation-backed validation lattice: every one-port Figure 13
#: candidate that can actually run at these (n, p) grid points
MEASURED_NS = (16, 32)
MEASURED_PS = (16, 64)


def _measured_cells():
    from repro.algorithms import ALGORITHMS
    from repro.analysis.regions import candidates

    cells = []
    for n in MEASURED_NS:
        for p in MEASURED_PS:
            for key in candidates(PortModel.ONE_PORT):
                if ALGORITHMS[key].applicable(n, p):
                    cells.append((key, n, p, PortModel.ONE_PORT))
    return cells


def test_fig13_measured_winners(benchmark):
    """Validate the region map's t_s=150 winners against *simulated* runs.

    This is the expensive, simulation-backed counterpart of the analytic
    panels: every applicable candidate is executed in the event simulator
    at each lattice cell and its measured (a, b) coefficients decide the
    winner.
    """
    cells = _measured_cells()
    t_s, t_w = PANELS["a"]

    measured = benchmark(lambda: [measure_cell(cell) for cell in cells])

    by_cell = {}
    for key, n, p, (a, b) in measured:
        by_cell.setdefault((n, p), {})[key] = a * t_s + b * t_w
    rows = []
    for (n, p), times in sorted(by_cell.items()):
        sim_winner = min(times, key=times.get)
        analytic = best_algorithm(n, p, PortModel.ONE_PORT, t_s, t_w)
        rows.append(
            [n, p, sim_winner, f"{times[sim_winner]:.0f}",
             analytic[0] if analytic else "-"]
        )
        # The models are schedule approximations (and the analytic winner
        # may not even be *runnable* at a cell — 3D All needs cubic p),
        # so the pin is: wherever the analytic winner executes, its
        # measured time is within 25% of the measured best.  A bigger gap
        # means the Table 2 ranking and the simulator have diverged.
        if analytic is not None and analytic[0] in times:
            assert times[analytic[0]] <= 1.25 * times[sim_winner], (
                f"analytic winner {analytic[0]} measures "
                f"{times[analytic[0]]:.0f} vs simulated best "
                f"{sim_winner}={times[sim_winner]:.0f} at n={n}, p={p}"
            )
    write_report(
        "fig13_measured",
        format_table(
            ["n", "p", "simulated winner", "sim time", "analytic winner"],
            rows,
            title=f"Figure 13(a) winners, simulated vs Table 2 "
                  f"(t_s={t_s:g}, t_w={t_w:g})",
        ),
    )


def test_fig13_crossover_with_ts(benchmark):
    """The middle band n^1.5 < p <= n^2 flips from 3DD to Cannon as t_s
    shrinks — the crossover the paper highlights."""

    def fractions():
        out = {}
        for t_s in (150.0, 0.5):
            rm = region_map(
                PortModel.ONE_PORT, t_s, 3.0, log2_n_max=12, log2_p_max=18
            )
            out[t_s] = rm.fraction_won(
                "3dd", where=lambda n, p: max(8, n ** 1.5) < p <= n * n
            )
        return out

    frac = benchmark(fractions)
    assert frac[150.0] == 1.0
    assert frac[0.5] < 0.5
