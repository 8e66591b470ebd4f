"""Network-scenario overhead bench: what does heterogeneity cost?

Two questions, one table:

* **Passthrough** — a machine carrying the explicit ``uniform()``
  scenario must be indistinguishable from the seed engine: the engine
  normalizes identity scenarios away at construction, so the simulated
  time, the product, the engine's event count and the trace digest are
  **bit-identical**.  The wall-clock ratio is printed, not gated: on a
  shared host it is noise, and the exact checks are stronger.
* **Degraded** — the same runs under hotspot / random-heterogeneous
  scenarios quantify the simulated-time overhead the graceful-degradation
  analysis ranks, and what the per-hop factor lookups cost in wall time.

Written to ``benchmarks/results/degradation.txt``.  Also runnable
directly::

    python benchmarks/bench_degradation.py [--smoke]

``--smoke`` restricts to one (n, p) point (the CI budget).
"""

import sys
import time

import numpy as np
import pytest

from _report import write_report
from repro.algorithms import get_algorithm
from repro.analysis.report import format_table
from repro.sim.machine import MachineConfig
from repro.sim.scenario import hotspot, random_heterogeneous, uniform

#: (n, p) points swept; Cannon everywhere (applicable at each point)
POINTS = [(8, 16), (16, 16), (16, 64)]

TITLE = ("Network-scenario overhead (baseline = seed engine, no scenario; "
         "uniform passthrough pinned bit-identical: time, C, events, "
         "trace digest)")

#: best-of repeats for wall-clock ratios (min absorbs scheduler noise)
REPEATS = 3


def _matrices(n: int):
    rng = np.random.default_rng(7)
    return (rng.integers(-4, 5, (n, n)).astype(float),
            rng.integers(-4, 5, (n, n)).astype(float))


def _timed_run(algo, A, B, config):
    """(run, best wall seconds) over REPEATS identical simulations."""
    best = float("inf")
    run = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run = algo.run(A, B, config)
        best = min(best, time.perf_counter() - t0)
    return run, best


def run_point(n: int, p: int) -> list[dict]:
    """Seed engine vs uniform passthrough vs degraded scenarios at (n, p)."""
    A, B = _matrices(n)
    algo = get_algorithm("cannon")
    base_cfg = MachineConfig.create(p)
    scenarios = [
        ("seed", None),
        ("uniform", uniform()),
        ("hotspot 4x", hotspot(p, 0, 4.0)),
        ("random s=1", random_heterogeneous(p, 1.0, seed=0)),
    ]
    rows = []
    base_run = base_wall = None
    for name, scenario in scenarios:
        cfg = base_cfg if scenario is None else base_cfg.with_scenario(scenario)
        run, wall = _timed_run(algo, A, B, cfg)
        if base_run is None:
            base_run, base_wall = run, wall
        rows.append({
            "n": n, "p": p, "scenario": name,
            "time": run.result.total_time,
            "sim_overhead": run.result.total_time / base_run.result.total_time,
            "wall_ratio": wall / base_wall,
            "identical": bool(
                run.result.total_time == base_run.result.total_time
                and np.array_equal(run.C, base_run.C)
                and run.result.events_processed
                == base_run.result.events_processed
                and run.result.trace_digest()
                == base_run.result.trace_digest()
            ),
        })
    return rows


_rows: list[list[str]] = []


def _record(rows) -> None:
    for r in rows:
        row = [
            str(r["n"]), str(r["p"]), r["scenario"],
            f"{r['time']:.1f}", f"{r['sim_overhead']:.2f}x",
            f"{r['wall_ratio']:.2f}x", str(r["identical"]),
        ]
        if row not in _rows:
            _rows.append(row)


@pytest.mark.parametrize("n,p", POINTS)
def test_degradation_overhead(benchmark, n, p):
    rows = benchmark(run_point, n, p)
    _record(rows)
    by_name = {r["scenario"]: r for r in rows}
    # uniform passthrough: bit-identical simulation
    assert by_name["uniform"]["identical"]
    assert by_name["uniform"]["sim_overhead"] == 1.0
    # degraded scenarios genuinely slow the simulated network down
    assert by_name["hotspot 4x"]["sim_overhead"] > 1.0
    assert by_name["random s=1"]["sim_overhead"] > 1.0


def test_write_degradation_report(benchmark):
    def render():
        return format_table(
            ["n", "p", "scenario", "time", "sim_overhead", "wall_ratio",
             "identical"],
            _rows,
            title=TITLE,
        )

    assert write_report("degradation", benchmark(render)).exists()


def main(argv=None) -> int:
    """Standalone entry: run the sweep and print/write the table."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="one (n, p) point (CI budget)"
    )
    args = parser.parse_args(argv)
    points = POINTS[:1] if args.smoke else POINTS
    all_rows = []
    for n, p in points:
        all_rows += run_point(n, p)
    _record(all_rows)
    text = format_table(
        ["n", "p", "scenario", "time", "sim_overhead", "wall_ratio",
         "identical"],
        _rows,
        title=TITLE,
    )
    print(text)
    bad = [
        r for r in all_rows
        if r["scenario"] == "uniform" and not r["identical"]
    ]
    if bad:
        print(f"FAILED passthrough cells: {len(bad)}", file=sys.stderr)
        return 1
    if not args.smoke:
        write_report("degradation_cli", text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
