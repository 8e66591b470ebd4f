"""The paper's evaluation, one artefact per function.

Each ``*_section`` function returns the exact text of one file under
``benchmarks/results/``: Tables 1–3 measured against their closed forms,
the §5/§6 claims checked on the simulator, the Figure 13/14 region maps
and Figure 13(a)'s winners re-decided by simulated runs, then the
extension, ablation and robustness tables.
:data:`ARTEFACTS` names them all by file name.
``hypercube-mm report`` prints them; ``hypercube-mm report -o DIR``
writes ``DIR/<name>.txt``, so ``-o benchmarks/results`` regenerates the
committed files byte for byte.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable

import numpy as np

from repro.algorithms import ALGORITHMS, ABFTMatmul, get_algorithm
from repro.algorithms.torus_cannon import run_cannon_on_torus, torus_machine_like
from repro.analysis.figures import PANELS, render_ascii
from repro.analysis.measure import extract_coefficients, measure_comm_time
from repro.analysis.regions import best_algorithm, candidates, region_map
from repro.analysis.resilience import (
    degradation_sweep, format_recovery_table, format_resilience_table, recovery_sweep,
)
from repro.analysis.scalability import format_isoefficiency_table
from repro.collectives import (
    CollectiveCosts,
    Schedule,
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
from repro.mpi import Comm, IntegrityContext, ReliableContext
from repro.sim import MachineConfig, PortModel, RoutingMode, run_spmd
from repro.sim.scenario import hotspot, random_heterogeneous, uniform

__all__ = [
    "ARTEFACTS",
    "ablation_ports_section",
    "ablation_routing_section",
    "ablation_schedules_section",
    "claims_section",
    "combinations_section",
    "corruption_section",
    "degradation_section",
    "fault_tolerance_section",
    "fig13_measured_section",
    "figure_section",
    "format_table",
    "recovery_section",
    "scalability_section",
    "table1_section",
    "table2_section",
    "table3_section",
    "torus_vs_hypercube_section",
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


def _collective_time(
    body: Callable, N: int, port: PortModel, t_s: float, t_w: float
) -> float:
    """Simulated time of ``body(comm)`` over a whole ``N``-node cube."""

    def prog(ctx):
        yield from body(Comm(ctx, list(range(N))))
        return ctx.now

    config = MachineConfig.create(N, t_s=t_s, t_w=t_w, port_model=port)
    return run_spmd(config, prog).total_time


def table1_section(N: int = 16, M: int = 32) -> str:
    """Measured vs Table 1 for every collective and port model.

    Each schedule runs once at ``(t_s, t_w) = (1, 0)`` and once at
    ``(0, 1)``, which reads off its ``(a, b)`` pair exactly.
    """
    rows = []
    for pattern, (label, body) in TABLE1_ROWS.items():
        for port in PortModel:
            a, b = (
                _collective_time(lambda comm: body(comm, M), N, port, t_s, t_w)
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

    @cache  # the region claim re-reads the cells the first claim ran
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


def torus_vs_hypercube_section() -> str:
    """§3.3: Cannon on a ``q × q`` torus vs the Gray-embedded hypercube.
    The shift-multiply phase costs ``2(q-1)(t_s + t_w·m)`` on both; only
    the alignment differs (up to ``q/2`` ring hops vs ``log q`` e-cube)."""
    t_s, t_w = 10.0, 1.0
    rows = []
    for n, q in ((8, 2), (16, 4), (32, 8), (64, 16)):
        A, B = np.random.default_rng(17).standard_normal((2, n, n))
        config = MachineConfig.create(q * q, t_s=t_s, t_w=t_w)
        hyper = get_algorithm("cannon").run(A, B, config, verify=True).total_time
        torus_config = torus_machine_like(config, q)
        torus = run_cannon_on_torus(A, B, torus_config, verify=True).total_time
        shift = 2 * (q - 1) * (t_s + t_w * (n // q) ** 2)
        rows.append([f"{q}x{q}", str(n), f"{shift:.0f}", f"{hyper - shift:.0f}",
                     f"{torus - shift:.0f}", f"{torus / hyper:.2f}"])
    return format_table(
        ["grid", "n", "shift phase (both)", "align (hypercube)",
         "align (torus)", "torus/hypercube total"],
        rows,
        title=f"Cannon: torus vs Gray-embedded hypercube (t_s={t_s:g}, "
        f"t_w={t_w:g}); shift-multiply phase is machine-independent (§3.3)",
    )


def combinations_section() -> str:
    """§3.5: the supernode combinations against the plain 3-D algorithms
    at ``n = 64``, ``p = 512``: 3DD × Cannon beats DNS × Cannon and trades
    start-ups for a quarter of the space."""
    A, B = np.random.default_rng(13).standard_normal((2, 64, 64))
    config = MachineConfig.create(512, t_s=150.0, t_w=3.0)
    rows = []
    for key in ("dns", "3dd", "dns_cannon", "3dd_cannon"):
        run = get_algorithm(key).run(A, B, config)
        rows.append([key, f"{run.total_time:.0f}",
                     str(run.result.total_peak_memory_words()),
                     str(run.result.total_messages())])
    return format_table(
        ["algorithm", "time (ts=150, tw=3)", "total space (words)", "messages"], rows,
        title="Supernode combinations at n=64, p=512, one-port",
    )


def ablation_ports_section() -> str:
    """One-port / multi-port speedup at ``t_s = 150``, ``t_w = 3``: two
    collectives on 16 nodes, growing from start-up bound towards the
    ``log N`` bandwidth bound, then six algorithms at ``n = p = 64``."""
    rows = []
    for M in (8, 64, 4096):
        for op in ("broadcast", "allgather"):
            body = TABLE1_ROWS[op][1]
            one, multi = (_collective_time(lambda comm: body(comm, M), 16, port, 150, 3)
                          for port in PortModel)
            rows.append([op, str(M), f"{one / multi:.2f}"])
    for key in ("cannon", "simple", "berntsen", "3dd", "3d_all", "dns"):
        one, multi = (measure_comm_time(key, 64, 64, port, 150, 3)
                      for port in PortModel)
        rows.append([key, "n=64 p=64", f"{one / multi:.2f}"])
    return format_table(["workload", "size", "one-port / multi-port speedup"], rows,
                        title="Ablation: multi-port speedup (t_s=150, t_w=3)")


def ablation_routing_section() -> str:
    """Multi-port ``(a, b)`` at ``n = p = 64`` under store-and-forward and
    cut-through routing beside Table 2: cut-through reconciles DNS's and
    3DD's ``b``; 3D All has only neighbour transfers."""
    rows = []
    for key in ("dns", "3dd", "3d_all", "berntsen"):
        sf, ct = (extract_coefficients(key, 64, 64, MULTI, routing=mode)
                  for mode in (RoutingMode.STORE_AND_FORWARD, RoutingMode.CUT_THROUGH))
        model = overhead_coefficients(key, 64, 64, MULTI)
        rows.append([key, f"({sf[0]:.0f}, {sf[1]:.0f})", f"({ct[0]:.0f}, {ct[1]:.0f})",
                     f"({model[0]:.0f}, {model[1]:.1f})"])
    return format_table(
        ["algorithm", "S&F (a, b)", "cut-through (a, b)", "Table 2 (a, b)"], rows,
        title="Ablation: routing mode, multi-port, n=64, p=64",
    )


def ablation_schedules_section() -> str:
    """SBT vs rotated-tree broadcast on 16 nodes of each machine type,
    and the smallest multi-port message for which the rotated trees win."""

    def t(schedule, port, M):
        def body(comm):
            data = np.ones(M) if comm.rank == 0 else None
            return broadcast(comm, data, root=0, schedule=schedule)

        return _collective_time(body, 16, port, 150, 3)

    rows = []
    for port in PortModel:
        for M in (2, 16, 256, 4096):
            sbt, rotated = t(Schedule.SBT, port, M), t(Schedule.ROTATED, port, M)
            rows.append([str(port), str(M), f"{sbt:.0f}", f"{rotated:.0f}",
                         "rotated" if rotated < sbt else "sbt"])
    breakeven = next((M for M in range(1, 600) if t(Schedule.ROTATED, MULTI, M)
                      < t(Schedule.SBT, MULTI, M)), None)
    rows.append([str(MULTI), "breakeven", str(breakeven), "-", "-"])
    return format_table(
        ["machine", "M (words)", "SBT time", "rotated time", "winner"], rows,
        title="Ablation: broadcast schedule choice, N=16, t_s=150, t_w=3",
    )


def scalability_section() -> str:
    """What ``hypercube-mm scalability`` prints at its defaults."""
    return format_isoefficiency_table(
        ["cannon", "berntsen", "3dd", "3d_all"],
        [float(2 ** k) for k in range(3, 16)], 0.8, ONE, 150.0, 3.0,
    ) + "\n"


def fault_tolerance_section() -> str:
    """Reliable delivery at drop rates 0, 1 % and 5 % for four small
    (algorithm, n, p) cases, as ``hypercube-mm faults`` renders it."""
    cases = (("3d_all", 8, 8), ("berntsen", 8, 8), ("cannon", 16, 16), ("fox", 16, 16))
    points = [pt for key, n, p in cases
              for pt in degradation_sweep([key], n, p, [0.0, 0.01, 0.05], plan_seed=3)]
    return ("Fault tolerance: reliable delivery on lossy small cubes "
            "(baseline = fault-free run)\n" + format_resilience_table(points) + "\n")


def recovery_section() -> str:
    """One victim fail-stopped at 30 % and 70 % of the fault-free time,
    under each recovery mode, as ``hypercube-mm recover`` renders it."""
    cases = (("3d_all", 4, 8), ("cannon", 12, 16), ("fox", 12, 16))
    points = [pt for key, n, p in cases
              for pt in recovery_sweep([key], n, p, [0.3, 0.7])]
    return ("Node fail-stop recovery: one victim killed mid-run (baseline = "
            "fault-free run of the same wrapper)\n"
            + format_recovery_table(points) + "\n")


def _cannon_variants_table(
    title: str, columns: list[str], runs_at: Callable, flag: Callable
) -> str:
    """Cannon at three small ``(n, p)`` under the named variants
    ``runs_at(A, B, p)`` returns: time, overhead against the first
    variant, and ``flag(run, first, A @ B)``."""
    rows = []
    for n, p in ((8, 16), (16, 16), (16, 64)):
        A, B = np.random.default_rng(7).integers(-4, 5, (2, n, n)).astype(float)
        runs = runs_at(A, B, p)
        first = next(iter(runs.values()))
        for name, run in runs.items():
            rows.append([str(n), str(p), name, f"{run.total_time:.1f}",
                         f"{run.total_time / first.total_time:.2f}x",
                         str(flag(run, first, A @ B))])
    return format_table(["n", "p", *columns], rows, title=title)


def corruption_section() -> str:
    """What corruption protection costs on a fault-free machine: raw
    contexts, the reliable and integrity layers (both fast-path to plain
    delivery, so exactly 1.00x), the integrity protocol forced on, and
    ABFT over integrity; every stack must deliver the exact product."""
    cannon = get_algorithm("cannon")
    stacks = {"raw": None, "reliable": ReliableContext, "integrity": IntegrityContext,
              "integrity!": partial(IntegrityContext, force_protocol=True)}

    def runs_at(A, B, p):
        config = MachineConfig.create(p)
        runs = {name: cannon.run(A, B, config, context_factory=factory)
                for name, factory in stacks.items()}
        runs["abft"] = ABFTMatmul(
            cannon, mode="abft", context_factory=IntegrityContext
        ).run(A, B, config)
        return runs

    return _cannon_variants_table(
        "Corruption-protection overhead on the fault-free path (baseline = "
        "raw contexts; reliable/integrity fast-path to 1.00x)",
        ["stack", "time", "overhead", "exact"], runs_at,
        lambda run, raw, C: np.array_equal(run.C, C),
    )


def degradation_section() -> str:
    """Cannon under network scenarios against the seed engine: the
    explicit ``uniform()`` scenario is bit-identical (time, product,
    events, trace digest); hotspot and random heterogeneity cost time."""
    cannon = get_algorithm("cannon")

    def runs_at(A, B, p):
        config = MachineConfig.create(p)
        runs = {"seed": cannon.run(A, B, config)}
        for name, net in (("uniform", uniform()), ("hotspot 4x", hotspot(p, 0, 4.0)),
                          ("random s=1", random_heterogeneous(p, 1.0, seed=0))):
            runs[name] = cannon.run(A, B, config.with_scenario(net))
        return runs

    def identical(run, seed, _):
        return (run.total_time == seed.total_time and np.array_equal(run.C, seed.C)
                and run.result.events_processed == seed.result.events_processed
                and run.result.trace_digest() == seed.result.trace_digest())

    return _cannon_variants_table(
        "Network-scenario overhead (baseline = seed engine, no scenario; uniform "
        "passthrough pinned bit-identical: time, C, events, trace digest)",
        ["scenario", "time", "sim_overhead", "identical"], runs_at, identical,
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
    "torus_vs_hypercube": torus_vs_hypercube_section,
    "combinations": combinations_section,
    "ablation_ports": ablation_ports_section,
    "ablation_routing": ablation_routing_section,
    "ablation_schedules": ablation_schedules_section,
    "scalability": scalability_section,
    "fault_tolerance": fault_tolerance_section,
    "recovery": recovery_section,
    "corruption": corruption_section,
    "degradation": degradation_section,
}
