"""Tests for Table 3 (space usage, processor limits) — model and measured."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.errors import ModelError, NotApplicableError
from repro.models.table3 import SPACE_MODELS, overall_space, processor_limit
from repro.sim import MachineConfig


class TestSpaceFormulas:
    def test_cannon_constant_storage(self):
        assert overall_space("cannon", 100, 4) == 3 * 100 * 100
        assert overall_space("cannon", 100, 1024) == 3 * 100 * 100

    def test_simple_scales_with_sqrt_p(self):
        assert overall_space("simple", 10, 16) == 2 * 100 * 4

    def test_3d_family(self):
        for key in ("dns", "3dd", "3d_all", "3d_all_trans"):
            assert overall_space(key, 10, 8) == 2 * 100 * 2

    def test_berntsen(self):
        assert overall_space("berntsen", 10, 8) == 2 * 100 + 100 * 2

    def test_unknown_key(self):
        with pytest.raises(ModelError):
            overall_space("nope", 10, 8)
        with pytest.raises(ModelError):
            processor_limit("nope", 10)

    def test_limits(self):
        assert processor_limit("cannon", 10) == 100
        assert processor_limit("berntsen", 4) == 8
        assert processor_limit("3dd", 4) == 64

    def test_all_rows_present(self):
        assert set(SPACE_MODELS) == {
            "simple", "cannon", "hje", "berntsen",
            "dns", "3dd", "3d_all", "3d_all_trans",
        }


class TestMeasuredSpace:
    """Simulated per-node peaks reproduce the Table 3 scaling."""

    @staticmethod
    def _measured_total(key, n, p):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=1, t_w=1)
        run = get_algorithm(key).run(A, B, cfg)
        return run.result.total_peak_memory_words()

    def test_cannon_total_is_3n2(self):
        assert self._measured_total("cannon", 16, 16) == 3 * 16 * 16

    def test_simple_total_is_2n2_sqrtp(self):
        measured = self._measured_total("simple", 16, 16)
        # model: 2 n^2 sqrt(p); the C block adds n^2 more
        assert measured >= 2 * 256 * 4
        assert measured <= 2 * 256 * 4 + 256

    def test_3d_all_total_close_to_model(self):
        measured = self._measured_total("3d_all", 16, 8)
        model = overall_space("3d_all", 16, 8)
        assert 0.9 * model <= measured <= 1.6 * model

    @pytest.mark.parametrize("key", sorted(SPACE_MODELS))
    def test_every_algorithm_within_a_constant_of_the_model(self, key):
        """Accounting granularity (result blocks, staging buffers) allows
        a modest constant factor at n = 32; the scaling term must match."""
        p = 16 if key in ("simple", "cannon", "hje") else 8
        measured = self._measured_total(key, 32, p)
        model = overall_space(key, 32, p)
        assert 0.65 * model <= measured <= 1.7 * model

    def test_space_ordering_simple_worst(self):
        """Table 3's point: Simple uses the most space at scale."""
        n, p = 32, 16
        simple = overall_space("simple", n, p)
        cannon = overall_space("cannon", n, p)
        assert simple > cannon
        assert overall_space("simple", 256, 4096) > overall_space(
            "3dd", 256, 4096
        )


def test_runs_beyond_the_processor_limit_refuse():
    """Table 3's ``p ≤ n^k`` columns hold at run time, not only in
    :func:`processor_limit`."""
    for key, n, p in [("cannon", 4, 64), ("berntsen", 32, 512),
                      ("3d_all", 32, 512), ("3d_all_trans", 32, 512)]:
        assert p > processor_limit(key, n)
        with pytest.raises(NotApplicableError):
            get_algorithm(key).check_applicable(n, p)
    get_algorithm("3dd").check_applicable(8, 512)  # 3DD reaches p = n³
