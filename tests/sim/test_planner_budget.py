"""The collective planner's cost grows with layouts, not groups.

Every row, column and line of a Gray-code embedded grid is a subcube, so
all groups of a collective phase run the same Table 1 schedule and differ
only in their node addresses.  ``sim.superstep._reserve`` folds such
groups into *families* (same slot, same step-table object, same free
dimensions) and builds each merged row once per family.  Two gates hold
that, counting every call ``cProfile`` sees while ``_reserve`` runs (its
callees' callees included, ``_seed`` among them):

* multi-port 3D All at p = 4096 has four times the groups of p = 512 and
  sixteen times the group-rows; its count may grow by a few calls per
  added group, never by one or more per group-row;
* multi-port 3D All (n = 256) and DNS (n = 64) at p = 4096 stay below
  ceilings ~5 % above today's counts.

Like ``tests/sim/test_event_path_budget.py``, the counts are CPython 3.11
counts of timing-only runs after a warm-up run has filled the shared
tables: a count then repeats exactly, and interpreters that inline
comprehensions count fewer calls.
"""

import cProfile
import gc

import numpy as np
import pytest

from repro import MachineConfig, get_algorithm
from repro.sim import PortModel, superstep

#: calls per added group the planner may spend (it spends ~3.2)
PER_GROUP = 4


def _reserve_calls(monkeypatch, key, n, p):
    """``(calls inside _reserve, groups it planned, group-rows)`` of one
    timing-only multi-port run, after a warm-up run."""
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    cfg = MachineConfig.create(
        p, t_s=150, t_w=3, t_c=0.5, port_model=PortModel.MULTI_PORT
    )
    get_algorithm(key).run(A, B, cfg, timing_only=True)
    real, prof, planned = superstep._reserve, cProfile.Profile(), []

    def reserve(engine, groups, at):
        planned.extend(groups)
        prof.enable()
        try:
            return real(engine, groups, at)
        finally:
            prof.disable()

    monkeypatch.setattr(superstep, "_reserve", reserve)
    gc.collect()
    gc.disable()  # (a gc callback another test installed would count)
    try:
        run = get_algorithm(key).run(A, B, cfg, timing_only=True)
    finally:
        gc.enable()
        monkeypatch.undo()
    assert run.result.closed_form_refusals == {}
    calls = sum(
        e.callcount for e in prof.getstats()
        # not _reserve's own entry, nor the call that stops the profile
        if e.code is not real.__code__ and "disable" not in str(e.code)
    )
    rows = sum(len(row) for g in planned for row in g.steps)
    return calls, len(planned), rows


def test_reserve_grows_per_group_not_per_row(monkeypatch):
    small = _reserve_calls(monkeypatch, "3d_all", 64, 512)
    large = _reserve_calls(monkeypatch, "3d_all", 256, 4096)
    (c0, g0, r0), (c1, g1, r1) = small, large
    assert (g0, g1) == (256, 1024) and (r0, r1) == (2304, 16384)
    assert c1 - c0 <= PER_GROUP * (g1 - g0), (
        f"{c0} -> {c1} calls for {g0} -> {g1} groups ({r0} -> {r1} group-rows)"
    )


@pytest.mark.parametrize(
    "key, n, ceiling",
    [
        # 3 616 calls for 1 024 groups in 3 phases (148 489 merging per
        # group and row)
        ("3d_all", 256, 3_800),
        # 4 484 calls for 768 groups in 2 phases (172 797 merging per
        # group and row)
        ("dns", 64, 4_700),
    ],
    ids=["3d_all_n256", "dns_n64"],
)
def test_reserve_ceiling_at_p4096(monkeypatch, key, n, ceiling):
    calls, groups, rows = _reserve_calls(monkeypatch, key, n, 4096)
    assert calls <= ceiling, f"{calls} calls for {groups} groups, {rows} group-rows"
