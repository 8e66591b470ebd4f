"""Tests for the chaos-campaign harness: the seeded demo campaign, the
delta-debugging minimizer, worker-count invariance, and reproducer
replay.

The demo campaign (seed 2026, 25 trials, cannon n=8 p=16) is the
acceptance artefact: unprotected it yields oracle violations whose
minimized reproducers have at most 2 faults; under the full protection
stack it is clean.
"""

import numpy as np
import pytest

from repro.analysis.chaos import (
    STACKS,
    format_report,
    minimize_atoms,
    plan_from_atoms,
    run_campaign,
    sample_atoms,
)
from repro.cli import main

DEMO_SEED = 2026
DEMO_TRIALS = 25


@pytest.fixture(scope="module")
def unprotected_report():
    return run_campaign(
        trials=DEMO_TRIALS, seed=DEMO_SEED, stack="none"
    )


@pytest.fixture(scope="module")
def protected_report():
    return run_campaign(
        trials=DEMO_TRIALS, seed=DEMO_SEED, stack="protected"
    )


class TestDemoCampaign:
    def test_unprotected_catches_corruption(self, unprotected_report):
        """Acceptance: with protection OFF the oracle invariant catches
        injected corruption — at least one oracle violation."""
        kinds = [v["kind"] for v in unprotected_report["violations"]]
        assert "oracle" in kinds

    def test_minimized_reproducers_are_tiny(self, unprotected_report):
        """Acceptance: every minimized reproducer has <= 2 faults."""
        assert unprotected_report["violations"]
        for v in unprotected_report["violations"]:
            rep = v["reproducer"]
            assert 1 <= len(rep["atoms"]) <= 2
            assert "repro chaos" in rep["command"]
            assert f"--only-trial {v['trial']}" in rep["command"]

    def test_protected_campaign_is_clean(self, protected_report):
        """Acceptance: the same campaign with integrity + ABFT enabled
        yields zero violations."""
        assert protected_report["violations"] == []
        assert protected_report["clean"] == DEMO_TRIALS

    def test_jobs_invariance(self, unprotected_report, on_service):
        """Acceptance: the campaign outcome is identical on the service's
        forked workers and in this process.  The service's report has its
        own schema (no minimized reproducers), hence its own digest, so
        the outcomes are compared: ``detail`` strings embed
        process-global counters and are left out, as from every digest."""
        sharded = on_service(
            "chaos", {"trials": DEMO_TRIALS, "seed": DEMO_SEED, "stack": "none"}
        )

        def outcomes(report):
            return [(v["trial"], v["kind"], v["atoms"])
                    for v in report["violations"]]

        assert sharded["clean"] == unprotected_report["clean"]
        assert outcomes(sharded) == outcomes(unprotected_report)

    def test_rerun_is_bit_identical(self, protected_report):
        again = run_campaign(
            trials=DEMO_TRIALS, seed=DEMO_SEED, stack="protected"
        )
        assert again["digest"] == protected_report["digest"]

    def test_format_report_mentions_reproducers(self, unprotected_report):
        text = format_report(unprotected_report)
        assert "chaos campaign" in text
        assert "$ repro chaos" in text
        assert unprotected_report["digest"] in text


class TestReproducerReplay:
    def test_minimized_reproducer_reproduces(self, unprotected_report):
        """Replaying a violation's minimized atom subset via
        only_trial/atom_subset (the CLI reproducer path) shows the same
        violation kind."""
        v = next(
            x for x in unprotected_report["violations"]
            if x["kind"] == "oracle"
        )
        rep = v["reproducer"]
        replay = run_campaign(
            trials=DEMO_TRIALS, seed=DEMO_SEED, stack="none",
            only_trial=v["trial"], atom_subset=rep["atom_indices"],
        )
        assert len(replay["violations"]) == 1
        assert replay["violations"][0]["kind"] == "oracle"

    def test_only_trial_runs_one_trial(self):
        report = run_campaign(
            trials=DEMO_TRIALS, seed=DEMO_SEED, stack="none", only_trial=3
        )
        assert report["clean"] + len(report["violations"]) == 1


class TestSampling:
    def test_atoms_are_deterministic(self, rng_seed):
        a = sample_atoms(np.random.default_rng([rng_seed, 1]), 16, 1000.0)
        b = sample_atoms(np.random.default_rng([rng_seed, 1]), 16, 1000.0)
        assert a == b
        assert 1 <= len(a) <= 3

    def test_at_most_one_node_level_fault(self, rng_seed):
        """The sampler never combines fail-stop and compute corruption —
        an erasure and a silent error in one decode line poison each
        other's reconstruction."""
        for trial in range(200):
            atoms = sample_atoms(
                np.random.default_rng([rng_seed, trial]), 16, 1000.0
            )
            node_level = [
                a for a in atoms if a["kind"] in ("node_fail", "node_corrupt")
            ]
            assert len(node_level) <= 1, atoms

    def test_corruption_rates_stay_below_one(self, rng_seed):
        for trial in range(100):
            for a in sample_atoms(
                np.random.default_rng([rng_seed + 1, trial]), 16, 500.0
            ):
                if "rate" in a:
                    assert 0.0 < a["rate"] < 1.0

    def test_plan_from_atoms_round_trip(self):
        atoms = [
            {"kind": "link_corrupt", "u": 0, "v": 1, "rate": 0.5,
             "start": 0.0, "end": 100.0, "model": "sign", "flips": 2},
            {"kind": "node_fail", "node": 3, "at": 50.0},
        ]
        plan = plan_from_atoms(atoms, seed=9)
        assert plan.seed == 9
        assert len(plan.corruptions) == 1
        assert plan.corruptions[0].model == "sign"
        assert len(plan.node_failures) == 1
        with pytest.raises(ValueError):
            plan_from_atoms([{"kind": "gamma_ray"}], seed=0)

    def test_campaign_validates_inputs(self):
        with pytest.raises(ValueError):
            run_campaign(trials=0, stack="none")
        with pytest.raises(ValueError):
            run_campaign(trials=1, stack="kevlar")
        assert STACKS == ("none", "reliable", "integrity", "protected")


class TestMinimizeAtoms:
    def test_single_culprit_found(self):
        atoms = list("abcdef")
        keep = minimize_atoms(atoms, lambda s: 3 in s)
        assert keep == [3]

    def test_conjunction_of_two(self):
        atoms = list("abcdef")
        keep = minimize_atoms(atoms, lambda s: 1 in s and 4 in s)
        assert sorted(keep) == [1, 4]

    def test_result_is_one_minimal(self):
        """Dropping any single kept atom must break reproduction."""
        atoms = list(range(8))
        pred = lambda s: {0, 5, 7} <= set(s)
        keep = minimize_atoms(atoms, pred)
        assert sorted(keep) == [0, 5, 7]
        for i in keep:
            assert not pred([j for j in keep if j != i])

    def test_full_set_kept_when_everything_matters(self):
        atoms = list("ab")
        keep = minimize_atoms(atoms, lambda s: len(s) == 2)
        assert sorted(keep) == [0, 1]


class TestChaosCLI:
    def test_require_violation_gate(self, capsys):
        code = main([
            "chaos", "--trials", "6", "--seed", str(DEMO_SEED),
            "--stack", "none", "--require-violation",
        ])
        assert code == 0
        assert "violations" in capsys.readouterr().out

    def test_require_clean_fails_on_unprotected(self, capsys):
        code = main([
            "chaos", "--trials", "6", "--seed", str(DEMO_SEED),
            "--stack", "none", "--require-clean", "--no-minimize",
        ])
        assert code == 1
        assert "require-clean" in capsys.readouterr().err

    def test_reproducer_command_line_replays(self, capsys):
        code = main([
            "chaos", "--stack", "none", "--algorithm", "cannon",
            "-n", "8", "-p", "16", "--seed", str(DEMO_SEED),
            "--trials", "6", "--only-trial", "2", "--atoms", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "violations: 1" in out

    def test_atoms_requires_only_trial(self, capsys):
        code = main(["chaos", "--trials", "2", "--atoms", "0"])
        assert code == 1
        assert "--only-trial" in capsys.readouterr().err

    def test_json_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main([
            "chaos", "--trials", "3", "--seed", "1", "--stack", "reliable",
            "--json", str(out_file), "--no-replay-check",
        ])
        assert code == 0
        capsys.readouterr()
        import json

        report = json.loads(out_file.read_text())
        assert report["trials"] == 3 and report["stack"] == "reliable"
