"""Each algorithm's placement: where the blocks of A, B and C live.

``MatmulAlgorithm.distribute_inputs`` and ``collect_output`` are derived
from ``placement(n, cube)``, so one check of the placement covers both.
"""

import numpy as np
import pytest

from repro import MachineConfig
from repro.algorithms import ALGORITHMS, get_algorithm
from repro.errors import AlgorithmError
from repro.topology.hypercube import Hypercube

CASES = [
    (key, n, 1 << k)
    for key in sorted(ALGORITHMS)
    for n in (16, 32, 64, 128, 256)
    for k in range(13)
    if ALGORITHMS[key].applicable(n, 1 << k)
]


@pytest.mark.parametrize("key,n,p", CASES)
def test_every_block_sits_on_exactly_one_node(key, n, p):
    *grids, holders = get_algorithm(key).placement(n, Hypercube.with_nodes(p))
    nodes = [node for node, *_ in holders]
    assert len(set(nodes)) == len(nodes)
    assert all(0 <= node < p for node in nodes)
    for m, grid in enumerate(grids):
        assert sorted(h[1 + m] for h in holders) == [
            (i, j) for i in range(grid.rows) for j in range(grid.cols)
        ]


def _smallest_run(key):
    """A small fault-free run of ``key`` and its per-node returns."""
    algo = get_algorithm(key)
    n, p = next((16, p) for p in (8, 16, 32) if algo.applicable(16, p))
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    run = algo.run(A, B, MachineConfig.create(p, t_s=1, t_w=1), verify=True)
    return algo, n, run


@pytest.mark.parametrize("key", sorted(ALGORITHMS))
def test_a_missing_c_block_names_the_algorithm_and_node(key):
    algo, n, run = _smallest_run(key)
    results = run.result.results
    cube = run.config.cube
    assert np.array_equal(algo.collect_output(n, cube, dict(results)), run.C)
    node = next(r for r in sorted(results) if results[r] is not None)
    blank = dict(results)
    blank[node] = None
    missing = dict(results)
    del missing[node]
    for broken in (blank, missing):
        with pytest.raises(AlgorithmError) as info:
            algo.collect_output(n, cube, broken)
        assert algo.name in str(info.value)
        assert f"node {node} " in str(info.value)
