"""Tests for the Table 2 closed-form overhead models."""

import hashlib
import struct

import numpy as np
import pytest

from repro.analysis.regions import candidates
from repro.errors import ModelError
from repro.models.table2 import (
    OVERHEAD_MODELS,
    communication_overhead,
    overhead_coefficients,
    structurally_applicable,
    winner_grids,
)
from repro.sim.machine import PortModel

ONE = PortModel.ONE_PORT
MULTI = PortModel.MULTI_PORT

# the default figure lattice (n = 2^1..2^13, p = 2^2..2^20) plus values off
# it; p = 1 and 6 sit below every min_p
GOLDEN_N = [2.0 ** e for e in range(1, 14)] + [3.0, 48.0, 100.0, 1000.0]
GOLDEN_P = [2.0 ** e for e in range(2, 21)] + [1.0, 6.0, 27.0, 100.0]

#: first 16 hex digits of SHA-256 over ``struct.pack("<dd", a, b)``
#: (``b"N"`` where not applicable) for n in GOLDEN_N, p in GOLDEN_P
GOLDEN = {
    ("3d_all", ONE): "3103bf58b58135fa",
    ("3d_all", MULTI): "a7f8354898b386f5",
    ("3d_all_trans", ONE): "ea4d1a65c57e1d9e",
    ("3d_all_trans", MULTI): "54a584affed6c908",
    ("3dd", ONE): "ed74c792be366639",
    ("3dd", MULTI): "e70b84ed94e7d06c",
    ("berntsen", ONE): "8d418b40850aedde",
    ("berntsen", MULTI): "f7f2cc9a7dc93dae",
    ("cannon", ONE): "e0b57067647113d7",
    ("cannon", MULTI): "c31b83a8e08b2c77",
    ("dns", ONE): "b5fe2a0780f15893",
    ("dns", MULTI): "0d69d362d5525450",
    ("hje", ONE): "ee5d1f6b25e3ad73",
    ("hje", MULTI): "2109f0395f528582",
    ("simple", ONE): "2e2ac5b15c389176",
    ("simple", MULTI): "4aff34527c184da5",
}


@pytest.mark.parametrize(
    "key,port", sorted(GOLDEN, key=lambda kp: (kp[0], kp[1].value)),
    ids=lambda v: getattr(v, "value", v),
)
def test_golden_coefficient_digest(key, port):
    """Every ``(a, b)`` bit and every hole is what commit f7e3b5e computed.

    The digests were recorded from that commit's per-point
    ``overhead_coefficients`` — a separate transcription of Table 2 that
    was deleted in favour of this one — before any formula here was
    edited.  A mismatch names the pair whose formula, condition or
    fallback wiring moved; 3 190 of the 16 × 391 cells are applicable.
    """
    h = hashlib.sha256()
    for n in GOLDEN_N:
        for p in GOLDEN_P:
            coeffs = overhead_coefficients(key, n, p, port)
            h.update(b"N" if coeffs is None else struct.pack("<dd", *coeffs))
    assert h.hexdigest()[:16] == GOLDEN[key, port], (key, port)


def test_golden_covers_every_table2_row():
    assert {key for key, _ in GOLDEN} == set(OVERHEAD_MODELS)


class TestSpotValues:
    """Hand-computed Table 2 entries at n=16, p=16 (q=4, log p=4)."""

    def test_simple(self):
        a, b = overhead_coefficients("simple", 16, 16, ONE)
        assert a == 4
        assert b == pytest.approx(2 * 256 / 4 * (1 - 0.25))  # 96
        a, b = overhead_coefficients("simple", 16, 16, MULTI)
        assert a == 2
        assert b == pytest.approx(256 / (4 * 2) * 0.75)  # 24

    def test_cannon(self):
        a, b = overhead_coefficients("cannon", 16, 16, ONE)
        assert a == 2 * 3 + 4
        assert b == pytest.approx(64 * (2 - 0.5 + 1))  # 160
        a, b = overhead_coefficients("cannon", 16, 16, MULTI)
        assert a == 3 + 2
        assert b == pytest.approx(64 * (1 - 0.25 + 0.5))  # 80

    def test_hje_one_port_absent(self):
        assert overhead_coefficients("hje", 16, 16, ONE) is None

    def test_hje_multi(self):
        a, b = overhead_coefficients("hje", 16, 16, MULTI)
        assert a == 5
        assert b == pytest.approx(64 * (2 / 4 - 2 / 16 + 0.5))  # 56

    def test_3d_family_at_p8(self):
        # n=16, p=8: q=2, log p = 3, n^2/p^(2/3) = 64
        assert overhead_coefficients("3dd", 16, 8, ONE) == pytest.approx((4, 256))
        assert overhead_coefficients("3dd", 16, 8, MULTI) == pytest.approx((3, 192))
        assert overhead_coefficients("dns", 16, 8, ONE) == pytest.approx((5, 320))
        assert overhead_coefficients("dns", 16, 8, MULTI) == pytest.approx((4, 256))
        a, b = overhead_coefficients("3d_all", 16, 8, ONE)
        assert (a, b) == (4, pytest.approx(64 * (1.5 + 0.25)))
        a, b = overhead_coefficients("3d_all_trans", 16, 8, ONE)
        assert (a, b) == (4, pytest.approx(64 * (1.5 + 1)))

    def test_berntsen(self):
        a, b = overhead_coefficients("berntsen", 16, 8, ONE)
        assert a == 2 * 1 + 3
        assert b == pytest.approx(64 * (1.5 + 1))
        a, b = overhead_coefficients("berntsen", 16, 8, MULTI)
        assert a == 1 + 2
        assert b == pytest.approx(64 * ((1 + 1) * 0.5 + 0.5))


class TestApplicability:
    def test_structural_limits(self):
        assert structurally_applicable("cannon", 16, 256)
        assert not structurally_applicable("cannon", 15, 256)
        assert structurally_applicable("3dd", 8, 512)  # p = n^3
        assert not structurally_applicable("3dd", 8, 1024)
        assert structurally_applicable("3d_all", 16, 64)  # p = n^1.5
        assert not structurally_applicable("3d_all", 16, 128)

    def test_min_p(self):
        assert not structurally_applicable("cannon", 100, 2)
        assert not structurally_applicable("3d_all", 100, 4)
        assert structurally_applicable("3d_all", 100, 8)

    def test_unknown_key_not_applicable(self):
        assert not structurally_applicable("diagonal2d", 16, 16)
        assert overhead_coefficients("diagonal2d", 16, 16, ONE) is None

    def test_out_of_domain_returns_none(self):
        assert overhead_coefficients("3d_all", 16, 1 << 20, ONE) is None

    def test_bad_inputs(self):
        with pytest.raises(ModelError):
            overhead_coefficients("cannon", 0, 4, ONE)


class Test3DAllMultiPortVariants:
    def test_full_bandwidth_when_condition_holds(self):
        # n^2 >= p^(4/3) log cbrt(p): n=64, p=64 -> 4096 >= 256*2
        a, b = overhead_coefficients("3d_all", 64, 64, MULTI)
        cb = 4.0
        expected = 4096 / 16 * (6 / 6 * (1 - 1 / cb) + 1 / (2 * cb))
        assert b == pytest.approx(expected)

    def test_partial_fallback(self):
        # n=16, p=64: n^2=256 < p^(4/3) log = 512, but >= p log cbrt = 128
        a, b = overhead_coefficients("3d_all", 16, 64, MULTI)
        cb = 4.0
        partial = 256 / 16 * (1 * (1 - 1 / cb) + 6 / (6 * cb))
        assert b == pytest.approx(partial)

    def test_partial_worse_than_full(self):
        from repro.models.table2 import (
            _3d_all_multi_full,
            _3d_all_multi_partial,
            _PointAxes,
        )

        for n, p in [(64, 64), (256, 512)]:
            ax = _PointAxes(n, p)
            assert _3d_all_multi_partial(ax)[1] > _3d_all_multi_full(ax)[1]


class TestTotalTime:
    def test_linear_in_params(self):
        t1 = communication_overhead("cannon", 32, 16, ONE, 10, 0)
        t2 = communication_overhead("cannon", 32, 16, ONE, 0, 2)
        t3 = communication_overhead("cannon", 32, 16, ONE, 10, 2)
        assert t3 == pytest.approx(t1 + t2)

    def test_none_propagates(self):
        assert communication_overhead("hje", 32, 16, ONE, 1, 1) is None


class TestAsymptotics:
    def test_3d_all_beats_3dd_in_coefficients(self):
        """3D All's b grows like 3M; 3DD's like (4/3 log p)·M."""
        for n, p in [(64, 64), (512, 4096), (1024, 32768)]:
            if not structurally_applicable("3d_all", n, p):
                continue
            b_all = overhead_coefficients("3d_all", n, p, ONE)[1]
            b_3dd = overhead_coefficients("3dd", n, p, ONE)[1]
            assert b_all < b_3dd

    def test_cannon_startups_dominate_for_large_p(self):
        a_cannon = overhead_coefficients("cannon", 4096, 4096, ONE)[0]
        a_3d_all = overhead_coefficients("3d_all", 4096, 4096, ONE)[0]
        assert a_cannon > 8 * a_3d_all

    def test_all_models_positive(self):
        for key, model in OVERHEAD_MODELS.items():
            for port in (ONE, MULTI):
                c = overhead_coefficients(key, 256, 64, port)
                if c is not None:
                    assert c[0] > 0 and c[1] > 0


@pytest.mark.parametrize("port", [ONE, MULTI], ids=lambda port: port.value)
def test_one_row_lattice_equals_whole_lattice_row(port):
    """Service jobs evaluate a region map one leased row at a time."""
    algos = candidates(port)
    n_values, p_values = GOLDEN_N[:13], GOLDEN_P[:19]
    idx, times = winner_grids(algos, n_values, p_values, port, 150.0, 3.0)
    for i, n in enumerate(n_values):
        row_idx, row_times = winner_grids(algos, [n], p_values, port, 150.0, 3.0)
        assert np.array_equal(row_idx[0], idx[i])
        assert np.array_equal(row_times[0], times[i], equal_nan=True)
