"""Node fail-stop recovery bench: kill ranks mid-run, demand the product.

Sweeps kill-time × algorithm × recovery mode with the failure-detection /
recovery stack (:mod:`repro.algorithms.abft`) and records

* completion (the recovering modes must finish; ``none`` must fail with a
  diagnosed :class:`~repro.errors.RankFailedError` — never a hang),
* correctness (a recovered product must equal ``A @ B`` bit-exactly —
  the sweep uses integer-valued operands),
* recovery overhead (time relative to the fault-free run of the same
  wrapper) and the machine that produced the result.

Written to ``benchmarks/results/recovery.txt``.  Also runnable directly::

    python benchmarks/bench_recovery.py [--smoke]

``--smoke`` restricts to one algorithm and one kill time (the CI budget).
"""

import sys

import pytest

from _report import write_report
from repro.analysis.report import format_table
from repro.analysis.resilience import format_recovery_table, recovery_sweep

#: algorithm -> an applicable (n, p) point on a small machine
CASES = {
    "cannon": (12, 16),
    "fox": (12, 16),
    "3d_all": (4, 8),
}
KILL_FRACS = [0.3, 0.7]
MODES = ("abft", "checkpoint", "none")

_rows: list[list[str]] = []


def _record(points) -> None:
    for pt in points:
        row = [
            pt.algorithm,
            pt.mode,
            f"{pt.kill_frac:.2f}",
            ",".join(str(v) for v in pt.victims),
            "ok" if pt.completed else (pt.error or "").split(":")[0],
            str(pt.exact) if pt.completed else "-",
            f"{pt.overhead:.2f}" if pt.completed else "-",
            str(pt.epochs) if pt.completed else "-",
            pt.machine,
        ]
        if row not in _rows:
            _rows.append(row)


@pytest.mark.parametrize("key", sorted(CASES))
def test_recovery_sweep(benchmark, key):
    n, p = CASES[key]
    points = benchmark(
        recovery_sweep, [key], n, p, KILL_FRACS, MODES, plan_seed=1
    )
    _record(points)
    for pt in points:
        if pt.mode == "none":
            # detection without recovery: a diagnosed failure, not a hang
            assert not pt.completed
            assert "RankFailedError" in (pt.error or "")
        else:
            assert pt.completed, pt.error
            assert pt.exact
            assert pt.recovered
            assert pt.overhead is not None and pt.overhead >= 1.0


def test_write_recovery_report(benchmark):
    def render():
        return format_table(
            ["algorithm", "mode", "kill", "victims", "status", "exact",
             "overhead", "epochs", "machine"],
            _rows,
            title="Node fail-stop recovery: one victim killed mid-run "
                  "(baseline = fault-free run of the same wrapper)",
        )

    assert write_report("recovery", benchmark(render)).exists()


def main(argv=None) -> int:
    """Standalone entry: run the sweep and print/write the table."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one algorithm, one kill time (CI budget)",
    )
    args = parser.parse_args(argv)
    cases = {"cannon": CASES["cannon"]} if args.smoke else CASES
    fracs = [0.3] if args.smoke else KILL_FRACS
    all_points = []
    for key, (n, p) in sorted(cases.items()):
        all_points += recovery_sweep([key], n, p, fracs, MODES, plan_seed=1)
    text = format_recovery_table(all_points)
    print(text)
    bad = [
        pt for pt in all_points
        if (pt.mode == "none") == pt.completed
        or (pt.completed and not pt.exact)
    ]
    if bad:
        print(f"FAILED cells: {len(bad)}", file=sys.stderr)
        return 1
    if not args.smoke:
        write_report("recovery_cli", text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
