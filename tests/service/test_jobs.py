"""Job-kind normalization and evaluation, beyond what the end-to-end
service tests cover: the region-map backend switch."""

from __future__ import annotations

import pytest

from repro.analysis.regions import region_map
from repro.errors import ServiceError
from repro.service.jobs import build_cells, evaluate_chunk, finalize, make_spec
from repro.sim.machine import PortModel

_LATTICE = {
    "log2_n_min": 3, "log2_n_max": 4,
    "log2_p_min": 2, "log2_p_max": 3,
}


class TestRegionMapBackend:
    def test_backend_defaults_to_model(self):
        spec = make_spec("region_map", dict(_LATTICE))
        assert spec.params["backend"] == "model"

    def test_vector_backend_rejected_for_jobs(self):
        """The job backends are the library's: ``model`` and ``sim``."""
        for old in ("vector", "scalar"):
            with pytest.raises(ServiceError, match="backend"):
                make_spec("region_map", {**_LATTICE, "backend": old})

    @pytest.mark.parametrize("port", list(PortModel), ids=lambda p: p.value)
    def test_model_rows_match_whole_map(self, port):
        """Rows leased one at a time reassemble the one-shot map — also
        from a journal written when the backend was called ``scalar``."""
        spec = make_spec("region_map", {"port": port})
        records = evaluate_chunk(spec.kind, spec.params, build_cells(spec))
        rm = region_map(port, 150.0, 3.0)
        assert [r["winners"] for r in records] == rm.winners
        for rec, row in zip(records, rm.times.tolist()):
            assert rec["times"] == [None if t != t else t for t in row]
        journaled = {**spec.params, "backend": "scalar"}
        assert evaluate_chunk(spec.kind, journaled, build_cells(spec)) == records

    def test_sim_backend_rows_match_direct_sim_row(self):
        from repro.analysis.regions import _sim_row
        from repro.sim.machine import PortModel

        spec = make_spec("region_map", {**_LATTICE, "backend": "sim"})
        cells = build_cells(spec)
        records = evaluate_chunk(spec.kind, spec.params, cells)
        assert [r["log2_n"] for r in records] == [3.0, 4.0]
        for cell, rec in zip(cells, records):
            port_value, t_s, t_w, ln, log2_p, algos = cell
            row_w, row_t = _sim_row(
                (PortModel(port_value), t_s, t_w, ln, log2_p, algos)
            )
            assert rec["winners"] == row_w
            assert rec["times"] == [None if t != t else t for t in row_t]

    def test_sim_and_model_backends_can_disagree_only_in_times(self):
        """Same cells, different oracle: the record schema is identical
        so finalize/digest machinery never needs to know the backend."""
        sim = make_spec("region_map", {**_LATTICE, "backend": "sim"})
        model = make_spec("region_map", dict(_LATTICE))
        sim_recs = evaluate_chunk(sim.kind, sim.params, build_cells(sim))
        model_recs = evaluate_chunk(
            model.kind, model.params, build_cells(model)
        )
        for a, b in zip(sim_recs, model_recs):
            assert set(a) == set(b) == {"log2_n", "winners", "times"}
            assert len(a["winners"]) == len(b["winners"])


class TestChaosJob:
    @pytest.mark.parametrize("stack", ["none", "protected"])
    def test_report_matches_the_one_shot_campaign(self, stack):
        """A chaos job's cells carry the one-shot campaign's fault-free
        horizon, and its report the same clean count and violations."""
        from repro.analysis.chaos import run_campaign

        spec = make_spec("chaos", {"trials": 4, "seed": 2026, "stack": stack})
        cells = build_cells(spec)
        report = finalize(spec, evaluate_chunk(spec.kind, spec.params, cells))
        one_shot = run_campaign(
            trials=4, seed=2026, stack=stack, minimize=False
        )
        assert [c["trial"] for c in cells] == [0, 1, 2, 3]
        assert {c["horizon"] for c in cells} == {one_shot["horizon"]}
        assert report["horizon"] == one_shot["horizon"]
        assert report["clean"] == one_shot["clean"]
        assert report["violations"] == one_shot["violations"]
        assert report["quarantined_cells"] == []
        assert report["digest"] == one_shot["digest"]

    def test_quarantined_trial_changes_the_digest(self):
        spec = make_spec("chaos", {"trials": 4, "seed": 2026, "stack": "none"})
        records = evaluate_chunk(spec.kind, spec.params, build_cells(spec))
        whole = finalize(spec, records)
        for hole in range(len(records)):
            holed = finalize(spec, records[:hole] + [None] + records[hole + 1:])
            assert holed["quarantined_cells"] == [hole]
            assert holed["digest"] != whole["digest"]


class TestMakeSpecRefusals:
    """``make_spec`` is the submission boundary: only ``ServiceError``."""

    @pytest.mark.parametrize("kind,params", [
        ("sweep", {"values": "abc"}),
        ("sweep", {"values": [64], "n": "x"}),
        ("sweep", [64]),
        ("region_map", {"log2_n_max": "big"}),
        ("region_map", {"algorithms": 5}),
        ("degrade", {"algorithms": ["cannonn"]}),
        ("chaos", {"trials": None}),
    ])
    def test_malformed_params_raise_service_error(self, kind, params):
        with pytest.raises(ServiceError, match=kind):
            make_spec(kind, params)

    @pytest.mark.parametrize("kind,params", [
        ("sweep", {"values": [64]}),
        ("region_map", {**_LATTICE, "backend": "model"}),
        ("region_map", {**_LATTICE, "backend": "sim"}),
    ], ids=["sweep", "region_map-model", "region_map-sim"])
    def test_unknown_algorithm_key_refused(self, kind, params):
        """A typo must not seal an all-``None`` report (or poison a sim
        worker): the offending key is named at submission."""
        with pytest.raises(ServiceError, match="cannonn"):
            make_spec(kind, {**params, "algorithms": ["cannon", "cannonn"]})

    def test_registered_key_without_table2_row_still_admitted(self):
        spec = make_spec("sweep", {"values": [64], "algorithms": ["fox"]})
        assert spec.params["algorithms"] == ["fox"]
