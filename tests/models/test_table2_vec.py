"""Lattice evaluation of Table 2 against point evaluation, bit for bit.

:mod:`repro.models.table2` spells each formula once and evaluates it on
two input shapes: :func:`~repro.models.table2.overhead_coefficients` at a
point and :func:`~repro.models.table2.coefficient_grids` over a lattice.
The two promise results **bit-identical** (``==``, not ``allclose``).
These property-style tests enumerate every ``(algorithm, port)`` pair over
the default figure lattice plus off-lattice values — including the
``NaN``/``None`` hole pattern and the multi-port fallback-chain
boundaries — and compare cell by cell.
"""

import math

import numpy as np
import pytest

from repro.analysis.regions import best_algorithm, candidates
from repro.models.table2 import (
    OVERHEAD_MODELS,
    LatticeAxes,
    coefficient_grids,
    communication_overhead,
    overhead_coefficients,
    overhead_grid,
    winner_grids,
)
from repro.sim.machine import PortModel

ONE = PortModel.ONE_PORT
MULTI = PortModel.MULTI_PORT

# the default figure lattice: n = 2^1..2^13, p = 2^2..2^20
N_VALUES = [2.0 ** e for e in range(1, 14)]
P_VALUES = [2.0 ** e for e in range(2, 21)]
# values off the power-of-two lattice (p = 1, 6 sit below every min_p)
N_OFF = [3.0, 48.0, 100.0, 1000.0]
P_OFF = [1.0, 6.0, 27.0, 100.0]

ALL_PAIRS = [
    (key, port)
    for key in sorted(OVERHEAD_MODELS)
    for port in (ONE, MULTI)
]


@pytest.mark.parametrize(
    "key,port", ALL_PAIRS, ids=[f"{k}-{p.value}" for k, p in ALL_PAIRS]
)
def test_coefficient_grids_bit_identical(key, port):
    """Every cell equals the point evaluation exactly — holes included."""
    n_values, p_values = N_VALUES + N_OFF, P_VALUES + P_OFF
    grids = coefficient_grids(key, n_values, p_values, port)
    if grids is None:  # no Table 2 entry: no point yields coefficients
        assert all(
            overhead_coefficients(key, n, p, port) is None
            for n in n_values for p in p_values
        )
        return
    a, b = grids
    assert a.shape == b.shape == (len(n_values), len(p_values))
    for i, n in enumerate(n_values):
        for j, p in enumerate(p_values):
            coeffs = overhead_coefficients(key, n, p, port)
            if coeffs is None:
                assert math.isnan(a[i, j]), (key, port, n, p)
                assert math.isnan(b[i, j]), (key, port, n, p)
            else:
                # bit-exact: == on floats, not approx
                assert a[i, j] == coeffs[0], (key, port, n, p)
                assert b[i, j] == coeffs[1], (key, port, n, p)


def test_default_lattice_exercises_fallback_boundaries():
    """The lattice must straddle the multi-port fallback boundaries.

    A bit-identity sweep proves nothing about fallback selection if every
    cell lands on the same branch.  Assert that for each model whose
    condition *can* flip within its applicability window, both sides are
    actually selected somewhere on the default lattice.  (For ``berntsen``
    and ``3d_all_trans`` — and 3d_all's final one-port branch — the
    condition ``n² ≥ p·lg∛p`` cannot fail under ``p ≤ n^1.5``, so there is
    nothing to straddle there.)
    """
    ax = LatticeAxes(N_VALUES, P_VALUES)

    def window(model):
        return (ax.p >= model.min_p) & (ax.p <= ax.n_pow(model.p_limit_exponent))

    for key in ("simple", "hje", "dns", "3dd", "3d_all"):
        model = OVERHEAD_MODELS[key]
        met = model.multi_port_condition(ax)
        assert (met & window(model)).any(), key
        assert (~met & window(model)).any(), key
    # the 3d_all chain additionally selects its degraded partial row
    model = OVERHEAD_MODELS["3d_all"]
    partial = (
        window(model)
        & ~model.multi_port_condition(ax)
        & model.fallback_condition(ax)
    )
    assert partial.any()


def test_hje_one_port_has_no_grid():
    """HJE has no one-port Table 2 row: grid is None, like the point path."""
    assert overhead_coefficients("hje", 16, 16, ONE) is None
    assert coefficient_grids("hje", N_VALUES, P_VALUES, ONE) is None
    assert overhead_grid("hje", N_VALUES, P_VALUES, ONE, 150.0, 3.0) is None


def test_unknown_key_yields_none():
    assert coefficient_grids("nope", N_VALUES, P_VALUES, ONE) is None


@pytest.mark.parametrize("port", [ONE, MULTI], ids=str)
def test_overhead_grid_matches_scalar(port):
    """a·t_s + b·t_w per cell, bit-identical to the point combination."""
    t_s, t_w = 150.0, 3.0
    for key in sorted(OVERHEAD_MODELS):
        grid = overhead_grid(key, N_VALUES, P_VALUES, port, t_s, t_w)
        for i, n in enumerate(N_VALUES):
            for j, p in enumerate(P_VALUES):
                t = communication_overhead(key, n, p, port, t_s, t_w)
                if grid is None or math.isnan(grid[i, j]):
                    assert t is None
                else:
                    assert grid[i, j] == t


@pytest.mark.parametrize("port", [ONE, MULTI], ids=str)
@pytest.mark.parametrize("t_s,t_w", [(150.0, 3.0), (0.5, 3.0), (5000.0, 0.5)])
def test_winner_grids_match_best_algorithm(port, t_s, t_w):
    """Masked argmin reproduces the strict-< first-wins scan exactly."""
    algos = candidates(port)
    winner_idx, times = winner_grids(algos, N_VALUES, P_VALUES, port, t_s, t_w)
    for i, n in enumerate(N_VALUES):
        for j, p in enumerate(P_VALUES):
            best = best_algorithm(n, p, port, t_s, t_w, algorithms=algos)
            if best is None:
                assert winner_idx[i, j] == -1
                assert math.isnan(times[i, j])
            else:
                assert algos[winner_idx[i, j]] == best[0]
                assert times[i, j] == best[1]


def test_lattice_axes_shared_across_algorithms():
    """Passing a prebuilt LatticeAxes changes nothing about the result."""
    ax = LatticeAxes(N_VALUES, P_VALUES)
    for key in sorted(OVERHEAD_MODELS):
        lone = coefficient_grids(key, N_VALUES, P_VALUES, MULTI)
        shared = coefficient_grids(key, N_VALUES, P_VALUES, MULTI, axes=ax)
        assert np.array_equal(lone[0], shared[0], equal_nan=True)
        assert np.array_equal(lone[1], shared[1], equal_nan=True)


def test_lattice_axes_primitives_are_scalar_computed():
    """Axis primitives match Python scalar math bit for bit."""
    ax = LatticeAxes([6.0, 10.0], [3.0, 12.0, 100.0])
    assert list(ax.sq) == [v ** 0.5 for v in (3.0, 12.0, 100.0)]
    assert list(ax.cb) == [v ** (1 / 3) for v in (3.0, 12.0, 100.0)]
    assert list(ax.lgp) == [math.log2(v) for v in (3.0, 12.0, 100.0)]
    col = ax.n_pow(1.5)
    assert col.shape == (2, 1)
    assert list(col[:, 0]) == [6.0 ** 1.5, 10.0 ** 1.5]
    # memoized: same object on repeat lookup
    assert ax.n_pow(1.5) is col
