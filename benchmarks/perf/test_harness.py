"""Tests of the benchmark harness itself (``pytest benchmarks/perf``).

Not part of the tier-1 suite: the smoke runs at the end take about a
minute and a half.
"""

import json
import re
import subprocess
import sys

import pytest

import layers
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((layers.ROOT / "BENCHMARK.json").read_text())


def test_every_source_file_has_exactly_one_named_layer():
    files = sorted(layers.PACKAGE.rglob("*.py"))
    assert len(files) > 80
    for path in files:
        relative = path.relative_to(layers.PACKAGE).as_posix()
        layer = layers.package_layer(relative)
        assert layer in layers.LAYERS and layer != "stdlib", relative
        assert layers.layer_of(str(path), "f") == layer


def test_c_functions_and_foreign_files_have_a_layer():
    assert layers.layer_of("~", "<built-in method numpy.array>") == "numpy"
    assert layers.layer_of("~", "<method 'append' of 'list' objects>") == "builtins"
    assert layers.layer_of(json.__file__, "dumps") == "stdlib"
    assert layers.layer_of(str(layers.HARNESS / "run.py"), "main") == "harness"


def test_layers_are_the_26_the_readme_lists():
    assert len(layers.LAYERS) == len(set(layers.LAYERS)) == 26
    readme = (layers.HARNESS / "README.md").read_text()
    for layer in layers.LAYERS:
        assert f"`{layer}`" in readme, layer


def test_calibrated_units_cancel_a_slow_host_phase():
    quiet = {"a": [(0.30, 0.010), (0.32, 0.010), (0.28, 0.010)],
             "b": [(0.10, 0.010), (0.10, 0.010), (0.10, 0.010)]}
    # The same run on a host that is 1.5x slower throughout, and one that
    # turns slow after the first pass: unit and kernel slow down alike.
    slow = {n: [(1.5 * dt, 1.5 * k) for dt, k in v] for n, v in quiet.items()}
    mixed = {n: [v[0]] + [(1.5 * dt, 1.5 * k) for dt, k in v[1:]]
             for n, v in quiet.items()}
    want = {"a": pytest.approx(0.30 * run.KERNEL_REF_S / 0.010),
            "b": pytest.approx(0.10 * run.KERNEL_REF_S / 0.010)}
    for samples in (quiet, slow, mixed):
        assert run.calibrated_units(samples) == want
    # One disturbed execution moves a mean, not the median.
    quiet["b"].append((9.0, 0.010))
    quiet["b"].append((0.10, 0.010))
    assert run.calibrated_units(quiet) == want


def test_table2_gap_skips_rows_without_a_closed_form():
    rows = [["hje", "one-port", [10.0, 300.0], None],
            ["dns", "multi-port", [7.0, 1280.0], [8.0, 1024.0]]]
    assert run.table2_gap(rows) == pytest.approx(0.25)


def test_names_are_well_formed_and_unique():
    units = [u for w in WORKLOADS.values() for u in w.units]
    assert len(units) == len(set(units))
    names = list(WORKLOADS) + units + list(run.END_TO_END) \
        + list(run.PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(run.PER_LAYER) <= 128


def test_benchmark_json_names_what_run_py_emits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])


def test_expected_json_pins_every_unit():
    pins = json.loads(run.EXPECTED.read_text())
    assert pins["seed"] == run.DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        assert tuple(pins["units"][name]) == workload.units
    assert len(pins["table2"]) == 16


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(layers.HARNESS / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 5 * len(WORKLOADS[workload].units)
    return result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    metrics = _smoke(workload, 0)
    assert {n: m["unit"] for n, m in metrics.items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_smoke_reports_every_layer_and_the_bypass_predictions():
    metrics = _smoke("event_core", 1)
    assert {n: m["unit"] for n, m in metrics.items()} == run.PER_LAYER
    value = {n: m["value"] for n, m in metrics.items()}
    for unit in WORKLOADS["event_core"].units:
        assert 0 < value[f"unit.{unit}.cal_s"]
    assert value["unit.sweep_cold.cal_s"] == 0
    assert value["host.pass_min_s"] <= value["host.pass_p50_s"]
    assert value["sim.superstep.self_share"] < 0.05
    assert sum(value[f"mpi.{layer}.self_share"]
               for layer in ("reliable", "integrity", "detector")) < 0.01
    assert value["span.run_spmd.calls"] == len(WORKLOADS["event_core"].units)
    trace = json.loads(
        (layers.HARNESS / ".work" / "trace-event_core.json").read_text())
    passes = {s["name"] for s in trace["spans"] if s["parent"] == "event_core"}
    assert {"warm-up", "pass-1", "traced"} <= passes
