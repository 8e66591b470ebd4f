"""Metamorphic linearity property of the measurement layer.

With ``t_c = 0`` and a fixed schedule, every quantity the engine adds up
is a (start-up count, word count) pair: each hop costs ``t_s + t_w·m``,
waits are maxima of such sums, and the makespan is therefore *exactly*
``a·t_s + b·t_w`` with integer ``a`` and ``b``.  That makes the
``extract_coefficients`` trick — run once at ``(1, 0)`` and once at
``(0, 1)`` — not an approximation but an identity, and at integer-valued
parameters the float arithmetic is exact, so the prediction must match a
third measurement *bit for bit*.

Any engine change that breaks this (a time-dependent tie-break, a
non-linear cost term, a schedule that inspects the parameters) fails
loudly here for every registered algorithm.
"""

from __future__ import annotations

import pytest

from repro.algorithms import ALGORITHMS
from repro.analysis.measure import (
    extract_coefficients,
    measure_comm_time,
    measured_vs_model,
)
from repro.models.table2 import overhead_coefficients
from repro.sim import PortModel

#: candidate matrix sizes, smallest applicable one is used per algorithm
_CANDIDATE_NS = (4, 6, 8, 9, 12, 16, 24, 27, 32, 48, 64)

#: the third measurement point: integer-valued, unequal, both nonzero
_THIRD_POINT = (7.0, 3.0)


def _cases() -> list[tuple[str, str, int, int]]:
    cases = []
    for key in sorted(ALGORITHMS):
        algo = ALGORITHMS[key]
        for p in (8, 16, 64):
            n = next(
                (n for n in _CANDIDATE_NS if algo.applicable(n, p)), None
            )
            if n is not None:
                cases.append((f"{key}-n{n}-p{p}", key, n, p))
                break
    return cases


CASES = _cases()


@pytest.mark.parametrize(
    "case_id,key,n,p", CASES, ids=[c[0] for c in CASES]
)
def test_comm_time_is_exactly_linear(case_id, key, n, p, port_model):
    a, b = extract_coefficients(key, n, p, port_model)
    t_s, t_w = _THIRD_POINT
    measured = measure_comm_time(key, n, p, port_model, t_s=t_s, t_w=t_w)
    predicted = a * t_s + b * t_w
    assert measured == predicted, (
        f"{case_id} ({port_model.value}): comm time is not the linear form "
        f"a·t_s + b·t_w: measured {measured!r} != {a!r}·{t_s:g} + "
        f"{b!r}·{t_w:g} = {predicted!r}"
    )


@pytest.mark.parametrize(
    "case_id,key,n,p", CASES[:3], ids=[c[0] for c in CASES[:3]]
)
def test_coefficients_are_integral(case_id, key, n, p):
    """(a, b) count start-ups and words, so they come out whole numbers."""
    a, b = extract_coefficients(key, n, p, PortModel.ONE_PORT)
    assert a == int(a) and b == int(b), (a, b)
    assert a > 0 and b > 0


def test_scaling_homogeneity():
    """Doubling both parameters exactly doubles the comm time (degree-1
    homogeneity — the sanity complement of the two-point extraction)."""
    base = measure_comm_time("cannon", 16, 16, PortModel.ONE_PORT,
                             t_s=7.0, t_w=3.0)
    doubled = measure_comm_time("cannon", 16, 16, PortModel.ONE_PORT,
                                t_s=14.0, t_w=6.0)
    assert doubled == 2.0 * base


@pytest.mark.parametrize("key,n,p", [("cannon", 16, 16), ("3d_all", 16, 8)])
def test_measured_vs_model_pairs_the_engine_with_table2(key, n, p):
    for port in PortModel:
        cmp = measured_vs_model(key, n, p, port)
        assert (cmp.key, cmp.n, cmp.p, cmp.port) == (key, n, p, port)
        assert cmp.measured == extract_coefficients(key, n, p, port)
        assert cmp.model == overhead_coefficients(key, n, p, port)
