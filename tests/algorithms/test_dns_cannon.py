"""Tests specific to the DNS × Cannon combination (§3.5 extension)."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.dns_cannon import DNSCannonAlgorithm
from repro.algorithms.supernode import SupernodeLayout, decompose
from repro.errors import NotApplicableError
from repro.sim import MachineConfig


class TestDecomposition:
    def test_auto_prefers_small_mesh(self):
        assert decompose(32, None) == (1, 1)     # 8 * 4
        assert decompose(256, None) == (2, 1)    # 64 * 4
        assert decompose(128, None) == (1, 2)    # 8 * 16

    def test_k6_is_impossible(self):
        # 64 = 2^6: 3a + 2b = 6 has no solution with a, b >= 1
        assert decompose(64, None) is None

    def test_explicit_mesh(self):
        assert decompose(128, 16) == (1, 2)
        assert decompose(512, 64) == (1, 3)
        assert decompose(512, 4) is None  # 512/4 = 128 is not 8^a
        assert decompose(128, 8) is None  # mesh must be 4^b

    def test_non_power_of_two(self):
        assert decompose(48, None) is None


class TestLayout:
    def test_coords_roundtrip(self):
        layout = SupernodeLayout(1, 1)  # 2x2x2 supernodes of 2x2 meshes, p=32
        seen = set()
        for I in range(2):
            for J in range(2):
                for K in range(2):
                    for u in range(2):
                        for v in range(2):
                            node = layout.node(I, J, K, u, v)
                            assert layout.coords(node) == (I, J, K, u, v)
                            seen.add(node)
        assert seen == set(range(32))

    def test_mesh_neighbors_are_cube_neighbors(self):
        from repro.topology.hypercube import Hypercube

        layout = SupernodeLayout(1, 2)  # p = 8 * 16 = 128
        cube = Hypercube.with_nodes(128)
        for u in range(4):
            for v in range(4):
                a = layout.node(1, 0, 1, u, v)
                assert cube.are_neighbors(a, layout.node(1, 0, 1, u, v + 1)) or 4 == 2
                assert cube.are_neighbors(a, layout.node(1, 0, 1, u + 1, v))

    def test_supernode_lines_are_subcubes(self):
        from repro.mpi.communicator import Comm  # noqa: F401 - construction below

        layout = SupernodeLayout(1, 1)
        members = [layout.node(0, y, 1, 1, 0) for y in range(2)]
        diff = members[0] ^ members[1]
        assert bin(diff).count("1") == 1  # single varying supernode-y bit


class TestCorrectness:
    @pytest.mark.parametrize("n,p", [(16, 32), (32, 128), (32, 256)])
    def test_product(self, n, p):
        rng = np.random.default_rng(n * p)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        run = get_algorithm("dns_cannon").run(
            A, B, MachineConfig.create(p, t_s=5, t_w=1), verify=True
        )
        assert np.allclose(run.C, A @ B)

    def test_explicit_mesh_size(self):
        algo = DNSCannonAlgorithm(mesh_size=16)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        run = algo.run(A, B, MachineConfig.create(128, t_s=5, t_w=1), verify=True)
        assert np.allclose(run.C, A @ B)

    def test_rejects_p64(self):
        with pytest.raises(NotApplicableError):
            get_algorithm("dns_cannon").check_applicable(32, 64)

    def test_rejects_indivisible_n(self):
        with pytest.raises(NotApplicableError):
            get_algorithm("dns_cannon").check_applicable(10, 32)


class TestTradeoff:
    def test_saves_space_vs_dns(self):
        """§3.5's point: supernode replication ∛s < ∛p saves memory."""
        n, p = 64, 512
        rng = np.random.default_rng(1)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=150, t_w=3)
        dns = get_algorithm("dns").run(A, B, cfg)
        combo = get_algorithm("dns_cannon").run(A, B, cfg)
        assert (
            combo.result.total_peak_memory_words()
            < dns.result.total_peak_memory_words() / 2
        )

    def test_costs_more_startups_than_dns(self):
        n, p = 64, 512
        rng = np.random.default_rng(2)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=1.0, t_w=0.0)
        dns = get_algorithm("dns").run(A, B, cfg)
        combo = get_algorithm("dns_cannon").run(A, B, cfg)
        assert combo.total_time > dns.total_time
