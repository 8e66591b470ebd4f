"""Extension bench: supernode combination algorithms (§3.5).

Regenerates the comparison behind the paper's remark that combining its
new algorithms with Cannon dominates the DNS × Cannon combination, and
quantifies the space-for-startups trade against the plain 3-D algorithms.

Written to ``benchmarks/results/combinations.txt``.
"""

import numpy as np
import pytest

from _report import write_report
from repro.algorithms import get_algorithm
from repro.analysis.report import format_table
from repro.sim import MachineConfig, PortModel

_rows: list[list[str]] = []


def _run(key, n, p, t_s=150.0, t_w=3.0):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    cfg = MachineConfig.create(p, t_s=t_s, t_w=t_w)
    return get_algorithm(key).run(A, B, cfg)


@pytest.mark.parametrize("key", ["dns", "3dd", "dns_cannon", "3dd_cannon"])
def test_combination_profile(benchmark, key):
    n, p = 64, 512
    run = benchmark(_run, key, n, p)
    row = [
        key,
        f"{run.total_time:.0f}",
        f"{run.result.total_peak_memory_words()}",
        f"{run.result.total_messages()}",
    ]
    if row not in _rows:
        _rows.append(row)


def test_claims(benchmark):
    def check():
        n, p = 64, 512
        combo_new = _run("3dd_cannon", n, p)
        combo_dns = _run("dns_cannon", n, p)
        plain_3dd = _run("3dd", n, p)
        return {
            "new_beats_dns_combo": combo_new.total_time < combo_dns.total_time,
            "combo_saves_space": (
                combo_new.result.total_peak_memory_words()
                < plain_3dd.result.total_peak_memory_words()
            ),
        }

    verdicts = benchmark(check)
    assert all(verdicts.values()), verdicts


def test_write_combinations_report(benchmark):
    def render():
        return format_table(
            ["algorithm", "time (ts=150, tw=3)", "total space (words)", "messages"],
            _rows,
            title="Supernode combinations at n=64, p=512, one-port",
        )

    assert write_report("combinations", benchmark(render)).exists()
