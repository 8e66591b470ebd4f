"""Tests for the rectangular-grid 3D All variant (§4.2.2's remark)."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.all3d_rect import All3DRectAlgorithm, _split_sides
from repro.errors import NotApplicableError
from repro.sim import MachineConfig, PortModel


class TestSplitSides:
    def test_auto_prefers_smallest_y(self):
        assert _split_sides(8, None) == (2, 2)      # the cubic case
        assert _split_sides(16, None) == (2, 4)
        assert _split_sides(64, None) == (4, 4)
        assert _split_sides(256, None) == (8, 4)
        assert _split_sides(1024, None) == (16, 4)

    def test_explicit_y_side(self):
        assert _split_sides(256, 16) == (4, 16)     # the paper's p^(1/4) x sqrt(p)
        assert _split_sides(256, 64) == (2, 64)
        assert _split_sides(4096, 1) == (64, 1)     # degenerate, p = q1^2
        assert _split_sides(256, 8) is None         # (256/8) not a square
        assert _split_sides(12, None) is None

    def test_p4_impossible(self):
        assert _split_sides(4, None) is None


class TestCorrectness:
    @pytest.mark.parametrize(
        "n,p",
        [(16, 16), (16, 8), (32, 64), (32, 256), (32, 128)],
    )
    def test_product(self, n, p):
        rng = np.random.default_rng(n * p + 1)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        run = get_algorithm("3d_all_rect").run(
            A, B, MachineConfig.create(p, t_s=5, t_w=1), verify=True
        )
        assert np.allclose(run.C, A @ B)

    @pytest.mark.parametrize("port", list(PortModel), ids=str)
    def test_both_ports(self, port):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        cfg = MachineConfig.create(16, t_s=5, t_w=1, port_model=port)
        run = get_algorithm("3d_all_rect").run(A, B, cfg, verify=True)
        assert np.allclose(run.C, A @ B)

    def test_cubic_side_choice_matches_3d_all(self):
        """With y_side = ∛p the variant *is* the cubic 3D All: one program,
        so product, time and engine work agree exactly, not approximately."""
        cubic_algo = get_algorithm("3d_all")
        assert isinstance(cubic_algo, All3DRectAlgorithm)
        rng = np.random.default_rng(3)
        for n, p, q in [(16, 8, 2), (32, 64, 4)]:
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            for port in PortModel:
                cfg = MachineConfig.create(p, t_s=10, t_w=1, port_model=port)
                rect = All3DRectAlgorithm(y_side=q).run(A, B, cfg, verify=True)
                cubic = cubic_algo.run(A, B, cfg, verify=True)
                assert np.array_equal(rect.C, cubic.C)
                assert rect.total_time == cubic.total_time
                assert rect.result.network == cubic.result.network
                assert (rect.result.events_processed
                        == cubic.result.events_processed)

    def test_explicit_elongated_grid(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        run = All3DRectAlgorithm(y_side=16).run(
            A, B, MachineConfig.create(256, t_s=10, t_w=1), verify=True
        )
        assert np.allclose(run.C, A @ B)


class TestExtendedRange:
    """The variant's raison d'être: processor counts past the cubic grid."""

    def test_runs_beyond_n_to_the_1_5(self):
        n, p = 32, 256  # p > n^1.5 ≈ 181, and 256 is not 8^k
        with pytest.raises(NotApplicableError):
            get_algorithm("3d_all").check_applicable(n, p)
        run = get_algorithm("3d_all_rect").run(
            np.eye(n), np.eye(n), MachineConfig.create(p, t_s=1, t_w=1)
        )
        assert np.allclose(run.C, np.eye(n))

    def test_plane_limit_enforced(self):
        # q1*q2 = 32 > n = 16
        with pytest.raises(NotApplicableError):
            get_algorithm("3d_all_rect").check_applicable(16, 256)

    def test_divisibility_enforced(self):
        with pytest.raises(NotApplicableError):
            get_algorithm("3d_all_rect").check_applicable(20, 16)
