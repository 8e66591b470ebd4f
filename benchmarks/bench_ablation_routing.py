"""Ablation: store-and-forward vs cut-through routing.

The paper's one-port rows account multi-hop point-to-point transfers
store-and-forward (``h·(t_s + t_w·M)``) while its multi-port rows for DNS
and 3DD implicitly assume pipelined transfers (``h·t_s + t_w·M``).  This
bench quantifies the difference and shows cut-through reconciles the
remaining Table 2 gaps exactly.

Written to ``benchmarks/results/ablation_routing.txt``.
"""

import pytest

from _report import write_report
from repro.analysis.measure import extract_coefficients
from repro.analysis.report import format_table
from repro.models.table2 import overhead_coefficients
from repro.sim import PortModel, RoutingMode

SF = RoutingMode.STORE_AND_FORWARD
CT = RoutingMode.CUT_THROUGH

_rows: list[list[str]] = []


@pytest.mark.parametrize("key", ["dns", "3dd", "3d_all", "berntsen"])
def test_routing_effect_on_multiport_b(benchmark, key):
    n, p = 64, 64

    def measure():
        sf = extract_coefficients(key, n, p, PortModel.MULTI_PORT, routing=SF)
        ct = extract_coefficients(key, n, p, PortModel.MULTI_PORT, routing=CT)
        return sf, ct

    sf, ct = benchmark(measure)
    model = overhead_coefficients(key, n, p, PortModel.MULTI_PORT)
    row = [
        key,
        f"({sf[0]:.0f}, {sf[1]:.0f})",
        f"({ct[0]:.0f}, {ct[1]:.0f})",
        f"({model[0]:.0f}, {model[1]:.1f})",
    ]
    if row not in _rows:
        _rows.append(row)

    # cut-through never increases either coefficient
    assert ct[0] <= sf[0] + 1e-9
    assert ct[1] <= sf[1] + 1e-9
    if key in ("dns", "3dd"):
        # and reconciles the paper's multi-port b exactly
        assert ct[1] == pytest.approx(model[1])
    elif key == "3d_all":
        # every transfer in 3D All is a neighbour exchange inside a
        # collective: routing mode is irrelevant
        assert ct == pytest.approx(sf)
    else:
        # Berntsen's embedded Cannon has a multi-hop alignment phase, so
        # cut-through helps it a little (beyond the paper's accounting).
        assert ct[1] <= sf[1]


def test_write_routing_report(benchmark):
    def render():
        return format_table(
            ["algorithm", "S&F (a, b)", "cut-through (a, b)", "Table 2 (a, b)"],
            _rows,
            title="Ablation: routing mode, multi-port, n=64, p=64",
        )

    assert write_report("ablation_routing", benchmark(render)).exists()
