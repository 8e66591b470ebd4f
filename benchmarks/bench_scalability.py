"""Extension bench: isoefficiency of the Table 2 models.

Not a table in the paper, but the asymptotic restatement of its
conclusion: 3D All needs the slowest-growing problem size to keep a fixed
parallel efficiency, because its communication overhead has both the
fewest start-ups (``O(log p)``) and the smallest data term.  The paper
cites Gupta & Kumar's scalability methodology [5]; this regenerates that
style of analysis from our Table 2 implementation.

Written to ``benchmarks/results/scalability.txt``.
"""

import pytest

from _report import write_report
from repro.analysis.report import format_table
from repro.analysis.scalability import isoefficiency_n
from repro.sim import PortModel

ONE = PortModel.ONE_PORT
KEYS = ["cannon", "berntsen", "3dd", "3d_all"]
PS = [8, 64, 512, 4096, 32768]

_rows: list[list[str]] = []


def test_isoefficiency_table(benchmark):
    def compute():
        table = {}
        for p in PS:
            table[p] = {
                key: isoefficiency_n(key, p, 0.8, ONE, 150, 3, 1.0)
                for key in KEYS
            }
        return table

    table = benchmark(compute)
    _rows.clear()
    for p in PS:
        _rows.append(
            [str(p)]
            + [
                f"{table[p][key]:.0f}" if table[p][key] else "-"
                for key in KEYS
            ]
        )

    # 3D All needs the smallest matrix at every processor count.
    for p in PS:
        vals = {k: v for k, v in table[p].items() if v is not None}
        assert min(vals, key=vals.get) == "3d_all"

    # Cannon's O(sqrt p) start-ups show: its required n grows faster than
    # 3D All's by an increasing factor.
    r_small = table[64]["cannon"] / table[64]["3d_all"]
    r_big = table[32768]["cannon"] / table[32768]["3d_all"]
    assert r_big > r_small


def test_write_scalability_report(benchmark):
    def render():
        return format_table(
            ["p"] + KEYS,
            _rows,
            title=(
                "Isoefficiency (extension): smallest n with efficiency 0.8 "
                "(one-port, t_s=150, t_w=3, t_c=1)"
            ),
        )

    assert write_report("scalability", benchmark(render)).exists()
