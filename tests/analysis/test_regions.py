"""Tests for the Section 5 region analysis and the paper's claims."""

import math

import pytest

from repro.analysis.figures import PANELS, figure13, figure14, render_ascii
from repro.analysis.regions import (
    FIGURE_ALGORITHMS,
    best_algorithm,
    candidates,
    region_map,
)
from repro.errors import ModelError
from repro.sim.machine import PortModel

ONE = PortModel.ONE_PORT
MULTI = PortModel.MULTI_PORT


class TestCandidates:
    def test_hje_excluded_one_port(self):
        assert "hje" not in candidates(ONE)
        assert "hje" in candidates(MULTI)

    def test_simple_never_a_candidate(self):
        """§5 drops Algorithm Simple for its space cost."""
        assert "simple" not in candidates(ONE)
        assert "simple" not in candidates(MULTI)


class TestBestAlgorithm:
    def test_none_beyond_n_cubed(self):
        assert best_algorithm(8, 1024, ONE, 150, 3) is None

    def test_3dd_only_in_deep_region(self):
        """§5.1: 3DD is the only algorithm in n² < p ≤ n³."""
        key, _ = best_algorithm(8, 128, ONE, 150, 3)
        assert key == "3dd"
        key, _ = best_algorithm(8, 128, MULTI, 150, 3)
        assert key == "3dd"

    def test_explicit_algorithm_set(self):
        key, _ = best_algorithm(64, 64, ONE, 150, 3, algorithms=("cannon",))
        assert key == "cannon"


#: the paper's lattice, which ``benchmarks/results/fig1{3,4}_*.txt`` draw
PAPER_LATTICE = {"log2_n_max": 13, "log2_p_max": 20}


class TestHeadlineClaims:
    """§5/§6 quantitative claims, checked over the whole lattice."""

    @pytest.mark.parametrize("port", [ONE, MULTI], ids=str)
    @pytest.mark.parametrize("panel", sorted(PANELS))
    def test_3d_all_wins_its_region(self, port, panel):
        """3D All has least overhead whenever p ≤ n^1.5 and p ≥ 8...

        ...for one-port always (the paper proves it); for multi-port the
        paper allows HJE to win at very small p, so we assert ≥ 95% there.
        """
        t_s, t_w = PANELS[panel]
        rm = region_map(port, t_s, t_w, **PAPER_LATTICE)
        frac = rm.fraction_won(
            "3d_all", where=lambda n, p: 8 <= p <= n ** 1.5
        )
        if port is ONE:
            assert frac == 1.0
        else:
            assert frac >= 0.95

    def test_3dd_wins_middle_band_at_ipsc_params(self):
        """§5.1: for t_s=150, t_w=3, 3DD is best over n^1.5 < p ≤ n²."""
        rm = region_map(ONE, 150, 3, **PAPER_LATTICE)
        frac = rm.fraction_won(
            "3dd", where=lambda n, p: max(8, n ** 1.5) < p <= n * n
        )
        assert frac == 1.0

    def test_cannon_takes_middle_band_for_small_ts(self):
        """§5.1: for very small t_s, Cannon wins most of n^1.5 < p ≤ n²."""
        rm = region_map(ONE, 0.5, 3, **PAPER_LATTICE)
        frac = rm.fraction_won(
            "cannon", where=lambda n, p: n ** 1.5 < p <= n * n
        )
        assert frac > 0.5
        # ...so the band that 3DD owns at t_s=150 flips away from it
        assert rm.fraction_won(
            "3dd", where=lambda n, p: max(8, n ** 1.5) < p <= n * n
        ) < 0.5

    def test_deep_region_is_all_3dd(self):
        for port in (ONE, MULTI):
            for t_s, t_w in PANELS.values():
                rm = region_map(port, t_s, t_w, **PAPER_LATTICE)
                frac = rm.fraction_won(
                    "3dd", where=lambda n, p: n * n < p <= n ** 3
                )
                assert frac == 1.0, (port, t_s)

    def test_multi_port_keeps_3d_all_share(self):
        """Multi-port does not shrink 3D All's winning share: HJE takes a
        few small-p points at most."""
        one, multi = (
            region_map(port, 150, 3, log2_n_max=12, log2_p_max=16)
            .counts().get("3d_all", 0)
            for port in (ONE, MULTI)
        )
        assert multi >= 0.9 * one > 0

    def test_cannon_wins_p4_row(self):
        """p = 4 < 8: no 3-D algorithm forms a grid; Cannon (q=2) wins."""
        rm = region_map(ONE, 150, 3, log2_n_max=8, log2_p_max=4)
        for ln in range(2, 9):
            assert rm.winner_at(float(ln), 2.0) == "cannon"


class TestRegionMap:
    def test_counts_sum_to_applicable_points(self):
        rm = region_map(ONE, 150, 3, log2_n_max=6, log2_p_max=8)
        total_applicable = sum(
            1 for row in rm.winners for w in row if w is not None
        )
        assert sum(rm.counts().values()) == total_applicable
        assert total_applicable > 0

    def test_empty_lattice_rejected(self):
        with pytest.raises(ModelError):
            region_map(ONE, 150, 3, log2_n_min=5, log2_n_max=4)

    def test_winner_at_off_lattice_names_point_and_bounds(self):
        """Off-lattice queries raise ModelError citing coordinate + bounds."""
        rm = region_map(ONE, 150, 3, log2_n_max=6, log2_p_max=8)
        with pytest.raises(ModelError) as exc:
            rm.winner_at(99.0, 2.0)
        msg = str(exc.value)
        assert "log2_n=99" in msg
        assert "[1, 6]" in msg
        assert "[2, 8]" in msg
        with pytest.raises(ModelError) as exc:
            rm.winner_at(3.5, 3.0)  # non-integer: between lattice points
        assert "log2_n=3.5" in str(exc.value)

    def test_winner_at_hole_returns_none(self):
        rm = region_map(ONE, 150, 3, log2_n_max=6, log2_p_max=12)
        # p = 2^12 > n³ = 2^9 at n = 2^3: structural hole
        assert rm.winner_at(3.0, 12.0) is None

    def test_counts_is_dict_of_positive_ints(self):
        rm = region_map(ONE, 150, 3, log2_n_max=6, log2_p_max=8)
        counts = rm.counts()
        assert counts
        for key, c in counts.items():
            assert key in rm.algorithms
            assert isinstance(c, int) and c > 0

    def test_fraction_won_unknown_key_is_zero(self):
        rm = region_map(ONE, 150, 3, log2_n_max=5, log2_p_max=6)
        assert rm.fraction_won("nope") == 0.0

    def test_times_match_winner(self):
        from repro.models.table2 import communication_overhead

        rm = region_map(ONE, 150, 3, log2_n_max=6, log2_p_max=6)
        for i, ln in enumerate(rm.log2_n):
            for j, lp in enumerate(rm.log2_p):
                w = rm.winners[i][j]
                if w is None:
                    assert math.isnan(rm.times[i][j])
                else:
                    t = communication_overhead(
                        w, 2.0 ** ln, 2.0 ** lp, ONE, 150, 3
                    )
                    assert rm.times[i][j] == pytest.approx(t)

    def test_unknown_backend_rejected(self):
        for backend in ("quantum", "scalar", "vector"):
            with pytest.raises(ModelError, match="backend"):
                region_map(ONE, 150, 3, log2_n_max=4, log2_p_max=4,
                           backend=backend)

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ModelError, match="empty candidate set"):
            region_map(ONE, 150, 3, log2_n_max=4, log2_p_max=4, algorithms=())


class TestSimBackend:
    """``backend="sim"``: winners timed by the engine, not Table 2."""

    _LATTICE = dict(
        log2_n_min=3, log2_n_max=5, log2_p_min=2, log2_p_max=4
    )

    def test_simulated_map_structure(self):
        rm = region_map(ONE, 150, 3, backend="sim", **self._LATTICE)
        assert rm.winner_idx.shape == (3, 3)
        some_winner = False
        for i in range(3):
            for j in range(3):
                w = rm.winners[i][j]
                if w is None:
                    assert math.isnan(rm.times[i][j])
                    continue
                some_winner = True
                assert w in rm.algorithms
                assert math.isfinite(rm.times[i][j])
                assert rm.times[i][j] >= 0.0
        assert some_winner

    def test_sim_map_bit_identical_across_jobs(self, on_service):
        """The service's forked workers seal the in-process map's rows."""
        seq = region_map(ONE, 150, 3, backend="sim", **self._LATTICE)
        par = on_service("region_map", dict(backend="sim", **self._LATTICE))
        assert [row["winners"] for row in par["rows"]] == seq.winners
        # NaN (no applicable algorithm) travels as None in a report
        assert [row["times"] for row in par["rows"]] == [
            [None if t != t else t for t in row] for row in seq.times.tolist()
        ]

    def test_sim_winner_is_cheapest_simulated_candidate(self):
        """Cross-check one lattice point against direct engine runs."""
        import numpy as np

        from repro.algorithms import get_algorithm
        from repro.sim.machine import MachineConfig

        rm = region_map(ONE, 150, 3, backend="sim", log2_n_min=4,
                        log2_n_max=4, log2_p_min=4, log2_p_max=4)
        n, p = 16, 16
        times = {}
        for key in rm.algorithms:
            algo = get_algorithm(key)
            if not algo.applicable(n, p):
                continue
            Z = np.zeros((n, n))
            run = algo.run(
                Z, Z, MachineConfig.create(p, t_s=150, t_w=3, t_c=0.0),
                timing_only=True,
            )
            times[key] = run.result.total_time
        assert times
        best = min(times, key=times.get)
        assert rm.winner_at(4.0, 4.0) == best
        assert rm.times[0][0] == times[best]


class TestFigures:
    def test_figure13_has_four_panels(self):
        figs = figure13(log2_n_max=5, log2_p_max=6)
        assert sorted(figs) == ["a", "b", "c", "d"]
        assert all(f.port is ONE for f in figs.values())

    def test_figure14_multi_port(self):
        figs = figure14(log2_n_max=5, log2_p_max=6)
        assert all(f.port is MULTI for f in figs.values())

    def test_render_ascii_structure(self):
        rm = region_map(ONE, 150, 3, log2_n_max=5, log2_p_max=6)
        art = render_ascii(rm, "test title")
        lines = art.splitlines()
        assert lines[0] == "test title"
        assert "legend:" in lines[-1]
        # one row per log2 p value
        assert len([l for l in lines if "|" in l]) == 5

    def test_hje_appears_in_multiport_small_ts(self):
        """§5.2: HJE can beat 3D All for small p on multi-port machines."""
        figs = figure14(log2_n_max=12, log2_p_max=8)
        seen = set()
        for f in figs.values():
            seen |= set(f.counts())
        # HJE wins somewhere across the multi-port panels
        assert "hje" in seen
