"""Tests for the paper's artefacts, one function each."""

import functools
import pathlib
import re

import pytest

from repro.algorithms import ALGORITHMS
from repro.analysis.figures import PANELS
from repro.analysis.measure import extract_coefficients, measured_vs_model
from repro.analysis.regions import best_algorithm, candidates
from repro.analysis.report import (
    ARTEFACTS,
    TABLE1_ROWS,
    claims_section,
    table1_section,
    table2_section,
    table3_section,
)
from repro.collectives import CollectiveCosts
from repro.models.table2 import OVERHEAD_MODELS
from repro.sim import PortModel

#: Table 1's seven patterns, as CollectiveCosts names them
TABLE1_PATTERNS = {
    "broadcast": "One-to-All Broadcast",
    "scatter": "One-to-All Personalized",
    "gather": "All-to-One Collection",
    "allgather": "All-to-All Broadcast",
    "alltoall": "All-to-All Personalized",
    "reduce": "All-to-One Reduction",
    "reduce_scatter": "All-to-All Reduction",
}


class TestSections:
    def test_table1_small(self):
        text = table1_section(N=8, M=24)  # divisible by log N chunks
        assert text.startswith("Table 1 reproduction: N=8")
        # every measured value equals its model value in the rendered rows
        for line in text.splitlines()[3:]:
            cells = line.split()
            a_meas, a_model, b_meas, b_model = cells[-4:]
            assert (a_meas, b_meas) == (a_model, b_model), line

    def test_every_collective_pattern_on_both_ports(self):
        assert all(hasattr(CollectiveCosts, name) for name in TABLE1_PATTERNS)
        rows = table1_section(N=8, M=24).lower().splitlines()
        missing = [
            (label, str(port))
            for label in TABLE1_PATTERNS.values()
            for port in PortModel
            if not any(label.lower() in r and str(port) in r for r in rows)
        ]
        assert missing == []
        assert set(TABLE1_ROWS) == set(TABLE1_PATTERNS)

    def test_table2_small_3d_grid(self):
        text = table2_section(n=16, p=8)
        assert text.startswith("Table 2 reproduction: n=16, p=8")
        assert "3D All" in text
        assert "Cannon" not in text  # square-grid algorithms skipped at p=8

    def test_table2_small_2d_grid(self):
        text = table2_section(n=16, p=16)
        assert "Cannon" in text
        # HJE has no one-port Table 2 row
        assert "-" in text

    @pytest.mark.parametrize("port", list(PortModel), ids=str)
    def test_table2_within_documented_allowance(self, port):
        """At n = p = 64 the start-up count never exceeds Table 2 (phases
        may overlap) and the word count stays within the store-and-forward
        allowance EXPERIMENTS.md documents for 3DD and DNS."""
        for key in OVERHEAD_MODELS:
            cmp = measured_vs_model(key, 64, 64, port)
            if cmp.model is None:  # HJE one-port: no Table 2 entry
                continue
            (a, b), (ma, mb) = cmp.measured, cmp.model
            assert a <= ma + 1e-9, key
            assert 0.6 * mb - 1e-9 <= b <= 1.55 * mb + 1e-9, key

    def test_table3(self):
        text = table3_section(n=16)
        assert text.startswith("Table 3 reproduction")
        assert "3·n²" in text

    def test_claims_hold(self):
        text = claims_section()
        assert "VIOLATED" not in text
        assert text.count("HOLDS") == 53

    def test_analytic_winner_measures_near_the_simulated_best(self):
        """Wherever Table 2's panel (a) winner runs, its measured time is
        within 25 % of the simulated best; a bigger gap means the Table 2
        ranking and the simulator have diverged."""
        port = PortModel.ONE_PORT
        t_s, t_w = PANELS["a"]
        for n in (16, 32):
            for p in (16, 64):
                times = {}
                for key in candidates(port):
                    if ALGORITHMS[key].applicable(n, p):
                        a, b = extract_coefficients(key, n, p, port)
                        times[key] = a * t_s + b * t_w
                analytic, _ = best_algorithm(n, p, port, t_s, t_w)
                if analytic in times:
                    assert times[analytic] <= 1.25 * min(times.values()), (
                        n, p, analytic, times,
                    )


class TestFullReport:
    def test_skeleton_without_figures(self):
        assert [name for name in ARTEFACTS if not name.startswith("fig")] == [
            "table1", "table2", "table3", "claims",
            "torus_vs_hypercube", "combinations",
            "ablation_ports", "ablation_routing", "ablation_schedules",
            "scalability", "fault_tolerance", "recovery",
            "corruption", "degradation",
        ]

    def test_with_figures_smoke(self):
        assert [name for name in ARTEFACTS if name.startswith("fig")] == [
            "fig13_a", "fig13_b", "fig13_c", "fig13_d",
            "fig14_a", "fig14_b", "fig14_c", "fig14_d",
            "fig13_measured",
        ]

    def test_every_committed_result_has_a_generator(self):
        """``benchmarks/results/`` holds exactly the report's artefacts
        (beside the wall-clock tables the two service benches may leave
        there, which are never committed)."""
        stems = {path.stem for path in RESULTS.glob("*.txt")}
        assert set(ARTEFACTS) == stems - {"service", "service_soak"}


RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/results"


@functools.cache
def _rows(name: str) -> tuple[dict[str, str], ...]:
    """The artefact's table rows keyed by header.

    A :func:`format_table` artefact is cut at the columns of its dashed
    rule; a CLI renderer's right-aligned table (no rule, one token per
    cell) is split on whitespace, a summary line after it dropped.
    """
    lines = ARTEFACTS[name]().splitlines()
    header = lines[1]
    if set(lines[2]) <= {"-", " "}:
        spans = [m.span() for m in re.finditer("-+", lines[2])]
        return tuple(
            {header[a:b].strip(): line[a:b].strip() for a, b in spans}
            for line in lines[3:]
        )
    keys = header.split()
    cells = (line.split() for line in lines[2:])
    return tuple(dict(zip(keys, c)) for c in cells if len(c) == len(keys))


def _pair(cell: str) -> tuple[float, float]:
    a, b = cell.strip("()").split(", ")
    return float(a), float(b)


class TestExtensionArtefacts:
    """The invariants each extension table states, read off its rows."""

    def test_torus_never_beats_the_hypercube(self):
        rows = _rows("torus_vs_hypercube")
        assert [r["grid"] for r in rows] == ["2x2", "4x4", "8x8", "16x16"]
        for r in rows:
            assert int(r["align (hypercube)"]) <= int(r["align (torus)"]), r
            assert float(r["torus/hypercube total"]) >= 1.0, r

    def test_3dd_cannon_beats_dns_cannon_and_saves_space(self):
        rows = {r["algorithm"]: r for r in _rows("combinations")}
        time, space = "time (ts=150, tw=3)", "total space (words)"
        assert int(rows["3dd_cannon"][time]) < int(rows["dns_cannon"][time])
        assert int(rows["3dd_cannon"][space]) < int(rows["3dd"][space])

    def test_multi_port_never_slower_and_bandwidth_bound_collectives_gain(self):
        rows = _rows("ablation_ports")
        assert len(rows) == 12
        for r in rows:
            speedup = float(r["one-port / multi-port speedup"])
            assert speedup >= (0.99 if r["size"].isdigit() else 1.0), r
            if r["size"] == "4096":
                assert speedup > 2.5, r

    def test_cut_through_never_costs_more(self):
        rows = {r["algorithm"]: r for r in _rows("ablation_routing")}
        for key, r in rows.items():
            (sa, sb), (ca, cb) = _pair(r["S&F (a, b)"]), _pair(r["cut-through (a, b)"])
            assert ca <= sa and cb <= sb, key
        for key in ("dns", "3dd"):  # reconciles the paper's multi-port b
            assert _pair(rows[key]["cut-through (a, b)"])[1] == pytest.approx(
                _pair(rows[key]["Table 2 (a, b)"])[1]
            )
        # 3D All moves data only between neighbours: routing is irrelevant
        assert rows["3d_all"]["cut-through (a, b)"] == rows["3d_all"]["S&F (a, b)"]

    def test_rotated_trees_win_only_on_multi_port(self):
        *rows, breakeven = _rows("ablation_schedules")
        for r in rows:
            sbt, rotated = int(r["SBT time"]), int(r["rotated time"])
            if r["machine"] == "one-port":
                assert sbt <= rotated, r
            elif int(r["M (words)"]) >= 256:
                assert rotated < sbt, r
        assert breakeven["M (words)"] == "breakeven"
        assert 1 <= int(breakeven["SBT time"]) <= 4  # log N = 4

    def test_3d_all_has_the_smallest_isoefficiency_n(self):
        rows = _rows("scalability")
        assert len(rows) == 13
        for r in rows:
            needed = {k: float(v) for k, v in r.items() if k != "p" and v != "-"}
            assert min(needed, key=needed.get) == "3d_all", r
        by_p = {r["p"]: r for r in rows}

        def cannon_over_3d_all(p):
            return float(by_p[p]["cannon"]) / float(by_p[p]["3d_all"])

        assert cannon_over_3d_all("32768") > cannon_over_3d_all("64")

    def test_every_lossy_cell_completes(self):
        rows = _rows("fault_tolerance")
        assert len(rows) == 12
        for r in rows:
            assert r["status"] == "ok", r
            assert float(r["slowdown"]) >= 1.0, r
            if float(r["drop"]) == 0.0:
                assert r["retrans"] == "0", r
        assert "completion rate: 100.0% (12/12 cells)" in ARTEFACTS[
            "fault_tolerance"
        ]()

    def test_recovering_modes_are_exact_and_none_is_diagnosed(self):
        rows = _rows("recovery")
        assert len(rows) == 18
        for r in rows:
            if r["mode"] == "none":
                assert r["status"] == "RankFailedError", r
            else:
                assert (r["status"], r["exact"]) == ("ok", "True"), r
                assert float(r["overhead"]) >= 1.0, r

    def test_fast_paths_cost_exactly_nothing(self):
        rows = _rows("corruption")
        assert len(rows) == 15
        raw = {(r["n"], r["p"]): r["time"] for r in rows if r["stack"] == "raw"}
        for r in rows:
            assert r["exact"] == "True", r
            if r["stack"] in ("reliable", "integrity"):
                assert (r["time"], r["overhead"]) == (raw[r["n"], r["p"]], "1.00x")
            elif r["stack"] in ("integrity!", "abft"):
                assert float(r["overhead"].rstrip("x")) > 1.0, r

    def test_uniform_scenario_is_bit_identical_and_degraded_ones_cost(self):
        rows = _rows("degradation")
        assert len(rows) == 12
        for r in rows:
            if r["scenario"] in ("seed", "uniform"):
                assert (r["sim_overhead"], r["identical"]) == ("1.00x", "True")
            else:
                assert float(r["sim_overhead"].rstrip("x")) > 1.0, r
