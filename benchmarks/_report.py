"""Shared reporting for the benchmark harness.

Each bench module writes its reproduced artefact (a formatted text table,
rendered with :func:`repro.analysis.report.format_table`) into
``benchmarks/results/`` so the comparison survives the run.  The paper's
Tables 1–3, claims and Figure 13/14 files there come from
``python -m repro report -o benchmarks/results`` instead.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_report(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text)
    return path
