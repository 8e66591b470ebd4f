"""Integrity / ABFT overhead bench: what does corruption protection cost?

Measures the *fault-free* path of each protection stack — the price paid
on every run for resilience that is only needed on the bad ones:

* ``raw``        no protection (the baseline),
* ``reliable``   :class:`~repro.mpi.reliable.ReliableContext`,
* ``integrity``  :class:`~repro.mpi.integrity.IntegrityContext`,
* ``integrity!`` the same with ``force_protocol=True`` (the CRC/ack
  protocol engaged even though nothing can go wrong),
* ``abft``       :class:`~repro.algorithms.abft.ABFTMatmul` over an
  integrity context (the full ``protected`` chaos stack).

The headline invariant: on a fault-free machine ``reliable`` and
``integrity`` both fast-path to plain delivery, so their simulated time
is **bit-identical** to raw — overhead exactly 1.00x.  The forced
protocol and the ABFT wrapper quantify what the fast path saves.

Written to ``benchmarks/results/corruption.txt``.  Also runnable
directly::

    python benchmarks/bench_corruption.py [--smoke]

``--smoke`` restricts to one (n, p) point (the CI budget).
"""

import sys

import numpy as np
import pytest

from _report import write_report
from repro.algorithms import get_algorithm
from repro.algorithms.abft import ABFTMatmul
from repro.analysis.report import format_table
from repro.mpi.integrity import IntegrityContext
from repro.mpi.reliable import ReliableContext
from repro.sim.machine import MachineConfig

#: (n, p) points swept; all use Cannon (every stack supports it)
POINTS = [(8, 16), (16, 16), (16, 64)]


def _forced_integrity(ctx):
    return IntegrityContext(ctx, force_protocol=True)


STACKS = [
    ("raw", None),
    ("reliable", ReliableContext),
    ("integrity", IntegrityContext),
    ("integrity!", _forced_integrity),
]


def _matrices(n: int):
    rng = np.random.default_rng(7)
    return (rng.integers(-4, 5, (n, n)).astype(float),
            rng.integers(-4, 5, (n, n)).astype(float))


def run_point(n: int, p: int) -> list[dict]:
    """Fault-free timings for every stack at one (n, p); rows for the table."""
    A, B = _matrices(n)
    config = MachineConfig.create(p)
    algo = get_algorithm("cannon")
    oracle = A @ B
    rows = []
    base = None
    for name, factory in STACKS:
        run = algo.run(A, B, config, context_factory=factory)
        t = run.result.total_time
        if base is None:
            base = t
        rows.append({
            "n": n, "p": p, "stack": name, "time": t,
            "overhead": t / base, "exact": bool(np.array_equal(run.C, oracle)),
        })
    abft = ABFTMatmul(algo, mode="abft", context_factory=IntegrityContext)
    run = abft.run(A, B, config)
    rows.append({
        "n": n, "p": p, "stack": "abft", "time": run.total_time,
        "overhead": run.total_time / base,
        "exact": bool(np.array_equal(run.C, oracle)),
    })
    return rows


_rows: list[list[str]] = []


def _record(rows) -> None:
    for r in rows:
        row = [
            str(r["n"]), str(r["p"]), r["stack"],
            f"{r['time']:.1f}", f"{r['overhead']:.2f}x", str(r["exact"]),
        ]
        if row not in _rows:
            _rows.append(row)


@pytest.mark.parametrize("n,p", POINTS)
def test_corruption_overhead(benchmark, n, p):
    rows = benchmark(run_point, n, p)
    _record(rows)
    by_stack = {r["stack"]: r for r in rows}
    # fault-free fast path: bit-identical, not merely close
    assert by_stack["reliable"]["time"] == by_stack["raw"]["time"]
    assert by_stack["integrity"]["time"] == by_stack["raw"]["time"]
    # every stack still computes the exact product
    for r in rows:
        assert r["exact"], r
    # engaging the protocol costs real time; ABFT adds checksum rows/cols
    assert by_stack["integrity!"]["overhead"] > 1.0
    assert by_stack["abft"]["overhead"] > 1.0


def test_write_corruption_report(benchmark):
    def render():
        return format_table(
            ["n", "p", "stack", "time", "overhead", "exact"],
            _rows,
            title="Corruption-protection overhead on the fault-free path "
                  "(baseline = raw contexts; reliable/integrity fast-path "
                  "to 1.00x)",
        )

    assert write_report("corruption", benchmark(render)).exists()


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
        ["n", "p", "stack", "time", "overhead", "exact"], _rows,
        title="Corruption-protection overhead on the fault-free path",
    )
    print(text)
    bad = [r for r in all_rows if not r["exact"]]
    bad += [
        r for r in all_rows
        if r["stack"] in ("reliable", "integrity") and r["overhead"] != 1.0
    ]
    if bad:
        print(f"FAILED cells: {len(bad)}", file=sys.stderr)
        return 1
    if not args.smoke:
        write_report("corruption_cli", text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
