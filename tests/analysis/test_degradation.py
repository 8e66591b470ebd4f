"""Graceful-degradation analysis layer: sweeps, ranking, cache keys, CLI.

Pins the robustness acceptance contract: seeded severity sweeps are
replay-deterministic and worker-count invariant, the report ranks at
least three
algorithms by overhead growth, and network scenarios are first-class in
the result-cache addressing (two scenarios on machines with equal
lattices must never collide on one cache key).
"""

import pytest

from repro.analysis.cache import (
    _fingerprint_sources,
    ResultCache,
    task_digest,
)
from repro.analysis.degradation import (
    DEFAULT_ALGORITHMS,
    DegradationPoint,
    format_degradation_table,
    format_region_map,
    graceful_region_map,
    scenario_for,
    severity_sweep,
)
from repro.service.jobs import evaluate, make_spec
from repro.cli import main
from repro.errors import SimulationError
from repro.sim.scenario import hotspot, random_heterogeneous

FAST = {"t_s": 7.0, "t_w": 3.0}
SEVERITIES = [0.5, 1.0, 2.0]


class TestScenarioFor:
    def test_severity_zero_is_uniform_for_every_profile(self):
        for profile in ("uniform", "random", "hotspot", "dimension",
                        "background"):
            assert scenario_for(profile, 16, 0.0).is_uniform

    def test_random_profile_matches_module_constructor(self):
        got = scenario_for("random", 16, 1.5, seed=3)
        want = random_heterogeneous(16, 1.5, seed=3)
        assert got.descriptor() == want.descriptor()

    def test_unknown_profile_rejected(self):
        with pytest.raises(SimulationError):
            scenario_for("wormhole", 16, 1.0)

    def test_negative_severity_rejected(self):
        with pytest.raises(SimulationError):
            scenario_for("random", 16, -0.1)

    def test_adaptive_flag_threads_through(self):
        assert not scenario_for("hotspot", 16, 1.0,
                                adaptive=False).adaptive_routing


class TestSeveritySweep:
    def test_overheads_grow_with_severity(self):
        points = severity_sweep(
            ["cannon"], 8, 16, SEVERITIES, scenario_seed=1, **FAST
        )
        assert all(isinstance(pt, DegradationPoint) for pt in points)
        overheads = [pt.overhead for pt in points]
        assert all(o is not None and o >= 1.0 for o in overheads)
        assert overheads == sorted(overheads)

    def test_uniform_profile_has_unit_overhead(self):
        points = severity_sweep(
            ["cannon"], 8, 16, [1.0, 2.0], profile="uniform", **FAST
        )
        assert [pt.overhead for pt in points] == [1.0, 1.0]

    def test_jobs_invariant(self, on_service):
        kw = dict(scenario_seed=2, **FAST)
        serial = severity_sweep(["cannon", "fox"], 8, 16, [1.0], **kw)
        sharded = on_service("degrade", dict(
            algorithms=["cannon", "fox"], n=8, p=16, severities=[1.0], **kw
        ))
        # ``detail`` is left out, as from the digest: engine diagnostics
        # embed process-global counters.
        assert [
            {k: v for k, v in pt.items() if k != "detail"}
            for pt in sharded["points"]
        ] == [
            {
                "algorithm": pt.algorithm, "severity": pt.severity,
                "completed": pt.completed, "total_time": pt.total_time,
                "baseline_time": pt.baseline_time, "overhead": pt.overhead,
                "messages_sent": pt.messages_sent,
                "hops_rerouted": pt.hops_rerouted,
            }
            for pt in serial
        ]


class TestDegradationReport:
    @staticmethod
    def degradation_report(**params):
        return evaluate(make_spec("degrade", dict(
            algorithms=DEFAULT_ALGORITHMS, n=8, p=16, severities=SEVERITIES,
            **FAST, **params,
        )))

    @pytest.fixture(scope="class")
    def report(self):
        return self.degradation_report()

    def test_ranks_at_least_three_algorithms(self, report):
        """Acceptance: >= 3 algorithms ranked across >= 3 severities."""
        assert len(report["ranking"]) >= 3
        assert len(report["severities"]) >= 3
        growths = [e["growth"] for e in report["ranking"]]
        assert all(g is not None for g in growths)
        assert growths == sorted(growths)
        assert report["most_graceful"] == report["ranking"][0]["algorithm"]

    def test_replay_and_jobs_invariant(self, report, on_service):
        """Acceptance: identical report on replay and on the service's
        forked workers."""
        again = self.degradation_report()
        sharded = on_service("degrade", dict(
            algorithms=DEFAULT_ALGORITHMS, n=8, p=16, severities=SEVERITIES,
            **FAST,
        ))
        for other in (again, sharded):
            assert other["digest"] == report["digest"]
            assert other["ranking"] == report["ranking"]

    def test_scenario_seed_changes_the_outcome(self, report):
        other = self.degradation_report(scenario_seed=99)
        assert other["digest"] != report["digest"]

    def test_table_renders_every_ranked_algorithm(self, report):
        text = format_degradation_table(report)
        for entry in report["ranking"]:
            assert entry["algorithm"] in text
        assert report["digest"] in text
        assert "most graceful degrader" in text


class TestRegionMap:
    def test_winner_per_matrix_size(self):
        region = graceful_region_map(
            [8, 16], 16, 1.0, algorithms=["cannon", "fox"], **FAST
        )
        assert [row["n"] for row in region["rows"]] == [8, 16]
        for row in region["rows"]:
            assert row["winner"] in ("cannon", "fox")
            assert set(row["growth"]) == {"cannon", "fox"}
        text = format_region_map(region)
        assert "most graceful degrader by n" in text


class TestScenarioCacheKeys:
    """Satellite: scenarios are part of the content address."""

    def test_engine_fingerprint_covers_scenario_source(self):
        assert "sim/scenario.py" in _fingerprint_sources()

    def test_equal_lattices_distinct_scenarios_distinct_keys(self):
        """Two machines with identical (p, t_s, t_w) lattices but
        different network scenarios must hash to different cache keys."""
        lattice = {"n": 8, "p": 16, "t_s": 7.0, "t_w": 3.0}
        a = task_digest(dict(lattice, scenario=hotspot(16, 0).descriptor()))
        b = task_digest(dict(lattice, scenario=hotspot(16, 1).descriptor()))
        assert a != b

    def test_equal_scenarios_share_a_key(self):
        lattice = {"n": 8, "p": 16, "t_s": 7.0, "t_w": 3.0}
        sc = random_heterogeneous(16, 1.0, seed=5)
        again = random_heterogeneous(16, 1.0, seed=5)
        assert task_digest(dict(lattice, scenario=sc.descriptor())) == \
            task_digest(dict(lattice, scenario=again.descriptor()))

    def test_cache_stores_scenarios_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        lattice = {"n": 8, "p": 16}
        d_hot = dict(lattice, scenario=hotspot(16, 0).descriptor())
        d_rand = dict(
            lattice, scenario=random_heterogeneous(16, 1.0).descriptor()
        )
        cache.put("degradation_report", d_hot, {"who": "hot"})
        cache.put("degradation_report", d_rand, {"who": "rand"})
        assert cache.get("degradation_report", d_hot) == {"who": "hot"}
        assert cache.get("degradation_report", d_rand) == {"who": "rand"}


class TestDegradeCli:
    ARGS = [
        "degrade", "-n", "8", "-p", "16",
        "--severities", "0.5", "1.0", "2.0",
        "--ts", "7", "--tw", "3", "--no-cache",
    ]

    def test_degrade_reports_and_checks(self, capsys):
        assert main(self.ARGS + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "most graceful degrader" in out
        assert "replay check OK" in out

    def test_degrade_serves_from_cache(self, tmp_path, capsys):
        args = self.ARGS[:-1] + ["--cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        cache = ResultCache(tmp_path)
        assert cache.stats()["entries"] == 1

    def test_no_applicable_algorithm_fails(self, capsys):
        rc = main(["degrade", "-n", "8", "-p", "16",
                   "--algorithms", "dns", "--no-cache"])
        assert rc == 1
