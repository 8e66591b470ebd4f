"""The paper's evaluation, one artefact per function.

Each ``*_section`` function returns the exact text of one file under
``benchmarks/results/``: Tables 1–3 measured against their closed forms,
the §5/§6 claims checked on the simulator, the Figure 13/14 region maps
and Figure 13(a)'s winners re-decided by simulated runs.
:data:`ARTEFACTS` names them all by file name.
``hypercube-mm report`` prints them; ``hypercube-mm report -o DIR``
writes ``DIR/<name>.txt``, so ``-o benchmarks/results`` regenerates the
committed files byte for byte.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.analysis.figures import PANELS, render_ascii
from repro.analysis.measure import extract_coefficients, measure_comm_time
from repro.analysis.regions import best_algorithm, candidates, region_map
from repro.collectives import (
    CollectiveCosts,
    allgather,
    alltoall,
    broadcast,
    gather,
    reduce,
    reduce_scatter,
    scatter,
)
from repro.models.table2 import OVERHEAD_MODELS, overhead_coefficients
from repro.models.table3 import SPACE_MODELS, overall_space
from repro.mpi import Comm
from repro.sim import MachineConfig, PortModel, run_spmd

__all__ = [
    "ARTEFACTS",
    "claims_section",
    "fig13_measured_section",
    "figure_section",
    "format_table",
    "table1_section",
    "table2_section",
    "table3_section",
]

ONE, MULTI = PortModel.ONE_PORT, PortModel.MULTI_PORT

#: Table 1's rows: CollectiveCosts pattern -> (label, body on an M-word block)
TABLE1_ROWS: dict[str, tuple[str, Callable]] = {
    "broadcast": (
        "One-to-All Broadcast",
        lambda comm, M: broadcast(
            comm, np.ones(M) if comm.rank == 0 else None, root=0
        ),
    ),
    "scatter": (
        "One-to-All Personalized",
        lambda comm, M: scatter(
            comm, [np.ones(M)] * comm.size if comm.rank == 0 else None, root=0
        ),
    ),
    "gather": (
        "All-to-One Collection",
        lambda comm, M: gather(comm, np.ones(M), root=0),
    ),
    "allgather": (
        "All-to-All Broadcast",
        lambda comm, M: allgather(comm, np.ones(M)),
    ),
    "alltoall": (
        "All-to-All Personalized",
        lambda comm, M: alltoall(comm, [np.ones(M)] * comm.size),
    ),
    "reduce": (
        "All-to-One Reduction",
        lambda comm, M: reduce(comm, np.ones(M), root=0),
    ),
    "reduce_scatter": (
        "All-to-All Reduction",
        lambda comm, M: reduce_scatter(comm, [np.ones(M)] * comm.size),
    ),
}


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Left-aligned columns two spaces apart under a dashed rule."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title] if title else []
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def table1_section(N: int = 16, M: int = 32) -> str:
    """Measured vs Table 1 for every collective and port model.

    Each schedule runs once at ``(t_s, t_w) = (1, 0)`` and once at
    ``(0, 1)``, which reads off its ``(a, b)`` pair exactly.
    """
    rows = []
    for pattern, (label, body) in TABLE1_ROWS.items():
        def prog(ctx, body=body):
            yield from body(Comm(ctx, list(range(N))), M)
            return ctx.now

        for port in PortModel:
            a, b = (
                run_spmd(
                    MachineConfig.create(N, t_s=t_s, t_w=t_w, port_model=port),
                    prog,
                ).total_time
                for t_s, t_w in ((1.0, 0.0), (0.0, 1.0))
            )
            ma, mb = getattr(CollectiveCosts, pattern)(N, M, port)
            rows.append(
                [label, str(port), f"{a:g}", f"{ma:g}", f"{b:g}", f"{mb:g}"]
            )
    return format_table(
        ["communication", "port model", "a meas", "a model", "b meas", "b model"],
        rows,
        title=f"Table 1 reproduction: N={N} hypercube, M={M} words "
        "(cost = a*t_s + b*t_w)",
    )


def table2_section(n: int = 64, p: int = 64) -> str:
    """Measured vs Table 2 coefficients for every applicable algorithm/port.

    At the default ``n = p = 64`` all eight algorithms apply (64 is both
    a square and a cube, and ``p = n^1.5`` is 3D All's boundary).
    """
    rows = []
    for key in OVERHEAD_MODELS:
        if not ALGORITHMS[key].applicable(n, p):
            continue
        for port in PortModel:
            meas = extract_coefficients(key, n, p, port)
            model = overhead_coefficients(key, n, p, port)
            rows.append(
                [
                    ALGORITHMS[key].name,
                    str(port),
                    f"{meas[0]:.1f}",
                    f"{model[0]:.1f}" if model else "-",
                    f"{meas[1]:.1f}",
                    f"{model[1]:.1f}" if model else "-",
                ]
            )
    return format_table(
        ["algorithm", "port model", "a meas", "a model", "b meas", "b model"],
        rows,
        title=f"Table 2 reproduction: n={n}, p={p} "
        "(communication time = a*t_s + b*t_w)",
    )


def table3_section(n: int = 32) -> str:
    """Measured vs Table 3 overall space (sum of per-node peaks)."""
    p_of = {"simple": 16, "cannon": 16, "hje": 16}  # 2-D grids; the rest 3-D
    rng = np.random.default_rng(1)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    rows = []
    for key, space in SPACE_MODELS.items():
        p = p_of.get(key, 8)
        run = get_algorithm(key).run(A, B, MachineConfig.create(p))
        measured = run.result.total_peak_memory_words()
        model = overall_space(key, n, p)
        rows.append(
            [
                ALGORITHMS[key].name,
                space.formula,
                f"{model:.0f}",
                str(measured),
                f"{measured / model:.2f}",
            ]
        )
    return format_table(
        ["algorithm", "formula", "model words", "measured words", "ratio"],
        rows,
        title="Table 3 reproduction: overall space (sum of per-node peaks)",
    )


def claims_section() -> str:
    """The §5/§6 headline claims, each instance run on the simulator.

    1. 3DD ≤ DNS and 3D All ≤ 3D All_Trans on both port models — why the
       paper carries only the two new algorithms forward.
    2. 3D All has the least overhead of every applicable algorithm for
       8 ≤ p ≤ n^1.5.
    3. HJE beats Cannon on multi-port machines.
    4. In n^1.5 < p ≤ n², 3DD beats Cannon at t_s = 150 but not as
       t_s → 0.
    """
    t_s, t_w = PANELS["a"]
    rows = []

    def note(claim: str, instance: str, holds: bool) -> None:
        rows.append([claim, instance, "HOLDS" if holds else "VIOLATED"])

    def t(key, n, p, port, ts=t_s):
        return measure_comm_time(key, n, p, port, ts, t_w)

    for port in PortModel:
        for n, p in [(16, 8), (32, 64), (64, 64)]:
            for claim, new, old in (
                ("3DD <= DNS", "3dd", "dns"),
                ("3D All <= All_Trans", "3d_all", "3d_all_trans"),
            ):
                a, b = t(new, n, p, port), t(old, n, p, port)
                note(claim, f"n={n} p={p} {port}: {a:.0f} vs {b:.0f}", a <= b)
    for port in PortModel:
        for n, p in [(16, 8), (32, 64), (64, 64), (64, 512)]:
            t_all = t("3d_all", n, p, port)
            for rival in ("berntsen", "3dd", "dns", "3d_all_trans", "cannon"):
                if not ALGORITHMS[rival].applicable(n, p):
                    continue
                t_rival = t(rival, n, p, port)
                note(
                    "3D All best in region",
                    f"vs {rival} n={n} p={p} {port}: {t_all:.0f} vs {t_rival:.0f}",
                    t_all <= t_rival,
                )
    for n, p in [(32, 16), (64, 64), (128, 64)]:
        hje, cannon = t("hje", n, p, MULTI), t("cannon", n, p, MULTI)
        note(
            "HJE < Cannon (multi-port)",
            f"n={n} p={p}: {hje:.0f} vs {cannon:.0f}",
            hje < cannon,
        )
    n, p = 8, 64  # p = n^2, above n^1.5 ≈ 22.6
    dd, cannon = t("3dd", n, p, ONE), t("cannon", n, p, ONE)
    note("3DD < Cannon at t_s=150", f"n={n} p={p}: {dd:.0f} vs {cannon:.0f}",
         dd < cannon)
    dd, cannon = t("3dd", n, p, ONE, 0.01), t("cannon", n, p, ONE, 0.01)
    note("Cannon < 3DD at t_s→0", f"n={n} p={p}: {cannon:.2f} vs {dd:.2f}",
         cannon < dd)
    return format_table(
        ["claim", "instance", "verdict"],
        rows,
        title="Paper claims verified on the simulator "
        f"(t_s={t_s:g}, t_w={t_w:g} unless stated)",
    )


def figure_section(fig: int, panel: str) -> str:
    """One Figure 13 (one-port) or 14 (multi-port) panel as ASCII art,
    over the paper's lattice n ≤ 2^13, p ≤ 2^20."""
    port = {13: ONE, 14: MULTI}[fig]
    t_s, t_w = PANELS[panel]
    rm = region_map(port, t_s, t_w, log2_n_max=13, log2_p_max=20)
    return render_ascii(
        rm, f"Figure {fig}({panel}) reproduction: {port}, t_s={t_s:g}, t_w={t_w:g}"
    )


def fig13_measured_section() -> str:
    """Figure 13(a)'s winners re-decided by simulated runs.

    At each (n, p) of a small lattice, every applicable one-port
    candidate runs on the simulator and its measured ``(a, b)`` prices
    it at panel (a)'s ``(t_s, t_w)``; the cheapest is set beside the
    Table 2 winner.  The analytic winner may not be runnable at a point
    (3D All needs a cubic p).
    """
    t_s, t_w = PANELS["a"]
    rows = []
    for n in (16, 32):
        for p in (16, 64):
            times = {}
            for key in candidates(ONE):
                if ALGORITHMS[key].applicable(n, p):
                    a, b = extract_coefficients(key, n, p, ONE)
                    times[key] = a * t_s + b * t_w
            winner = min(times, key=times.get)
            analytic, _ = best_algorithm(n, p, ONE, t_s, t_w)
            rows.append([n, p, winner, f"{times[winner]:.0f}", analytic])
    return format_table(
        ["n", "p", "simulated winner", "sim time", "analytic winner"],
        rows,
        title=f"Figure 13(a) winners, simulated vs Table 2 "
        f"(t_s={t_s:g}, t_w={t_w:g})",
    )


#: every artefact's function, keyed by its file name (without ``.txt``)
ARTEFACTS: dict[str, Callable[[], str]] = {
    "table1": table1_section,
    "table2": table2_section,
    "table3": table3_section,
    "claims": claims_section,
    **{
        f"fig{fig}_{panel}": partial(figure_section, fig, panel)
        for fig in (13, 14)
        for panel in PANELS
    },
    "fig13_measured": fig13_measured_section,
}
