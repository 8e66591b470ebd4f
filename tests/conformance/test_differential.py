"""Differential conformance: fast path ≡ event path.

This suite is the enforcement arm of the superstep contract: for a
seeded sample of ≥ 50 (algorithm, machine, fault, scenario)
configurations spanning every registered algorithm, both execution
paths must produce bit-identical simulated times, statistics, trace
digests, and result matrices — and identical *errors* when a fault plan
makes the run fail; the registry pass's healthy cases are compared a
second time traced, hop record by hop record, where no phase parks and
the engine's own rounds stand against the generator loops.  On mismatch
the failing configuration is shrunk with the chaos ddmin helper and a
paste-ready reproducer is printed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.algorithms import ALGORITHMS
from repro.analysis.conformance import (
    SUITE_COUNT,
    Case,
    closed_form_reach,
    diff_case,
    reproducer,
    sample_cases,
    shrink_case,
)

SEED = 2026
COUNT = SUITE_COUNT

CASES = sample_cases(SEED, COUNT)


class TestSampler:
    def test_covers_every_registered_algorithm(self):
        assert len(CASES) >= 52
        assert {c.algorithm for c in CASES} == set(ALGORITHMS)

    def test_oversamples_collective_heavy_family(self):
        """Past full coverage, extra cases go to the 3D/DNS family (the
        collective closed form's surface), including fault-free runs on
        the largest applicable machines."""
        from repro.analysis.conformance import _COLLECTIVE_HEAVY

        heavy = [c for c in CASES if c.algorithm in _COLLECTIVE_HEAVY]
        other = [c for c in CASES if c.algorithm not in _COLLECTIVE_HEAVY]
        assert len(heavy) / len(_COLLECTIVE_HEAVY) > len(other) / (
            len(ALGORITHMS) - len(_COLLECTIVE_HEAVY)
        )
        assert any(
            not c.atoms and c.p >= 64 for c in heavy
        )  # fault-free large-machine cases exercise the closed form itself

    def test_oversamples_cannon_kernel_callers_on_staggering_machines(self):
        """Past the collective passes, every other case is a fault-free
        run of a ``cannon_kernel`` caller at p >= 64, where the contended
        skew leaves the shift phase's frontier rounds apart — and growing
        the sample renames no earlier case."""
        from repro.analysis.conformance import _SHIFT_HEAVY

        tail = [c for c in CASES[61:] if c.algorithm in _SHIFT_HEAVY and not c.atoms]
        assert {c.algorithm for c in tail} == set(_SHIFT_HEAVY)
        assert len(tail) >= 2 * len(_SHIFT_HEAVY)
        assert all(c.p >= 64 for c in tail)
        assert {c.port for c in tail} == {"one-port", "multi-port"}
        assert sample_cases(SEED, 60) == CASES[:60]

    def test_oversamples_single_hop_family_on_every_port_and_routing(self):
        """Cases 77..96 are the single-hop family (neighbour-exchange rounds
        and one-port fused allgather pairs) fault-free at p >= 64, one per
        algorithm x port model x routing mode — and they rename none of the
        first 77."""
        from repro.analysis.conformance import _SINGLE_HOP

        assert sample_cases(SEED, 77) == CASES[:77]
        single = CASES[77:97]
        assert {(c.algorithm, c.port, c.routing) for c in single} == {
            (key, port, routing)
            for key in _SINGLE_HOP
            for port in ("one-port", "multi-port")
            for routing in ("store-and-forward", "cut-through")
        }
        assert all(not c.atoms and c.p >= 64 for c in single)

    def test_single_hop_family_batches_every_collective_phase(self):
        """The engine's own counters (``RunResult.closed_form_refusals``)
        say the closed forms answered every phase those cases declare: a
        planner that silently refused would still pass the digests."""
        reach = closed_form_reach(CASES[77:97])
        assert reach["eligible"] == reach["declared"] == reach["batched"] == 20
        assert reach["refusals"] == {}

    def test_registry_pass_is_also_compared_traced(self, monkeypatch):
        """Every algorithm's first, healthy case gets a second leg with
        ``trace=True``: no phase parks there, so the engine's own rounds
        are compared with the generator loops hop record by hop record."""
        from repro.analysis import conformance

        assert [c for c in CASES if c.traced] == CASES[: len(ALGORITHMS)]
        assert not any(c.atoms for c in CASES if c.traced)
        legs = []
        outcome = conformance._outcome

        def recording(case, **kw):
            legs.append(kw)
            return outcome(case, **kw)

        monkeypatch.setattr(conformance, "_outcome", recording)
        assert diff_case(CASES[6]) is None  # cannon
        assert legs == [
            {"superstep": True}, {"superstep": False},
            {"superstep": True, "trace": True}, {"superstep": False, "trace": True},
        ]

    def test_a_product_wrong_on_both_paths_fails_where_data_is_safe(self, monkeypatch):
        """Agreement is not enough: a fast path wrong the same way as the
        event path passes the comparison, so a case without fault atoms —
        healthy or scenario-only — must also return ``C ≈ A @ B``.  Fault
        atoms may corrupt or drop data; those cases keep comparing paths."""
        from repro.analysis import conformance

        outcome = conformance._outcome

        def wrong_on_both(case, **kw):
            return {**outcome(case, **kw), "product_ok": False}

        monkeypatch.setattr(conformance, "_outcome", wrong_on_both)

        def smallest(pred):
            return min((c for c in CASES if pred(c)), key=lambda c: (c.p, c.n))

        def faulted(c):
            return any(a["kind"] != "scenario" for a in c.atoms)

        label = "fast path: C != A @ B"
        assert diff_case(smallest(lambda c: not c.atoms)) == label
        assert diff_case(smallest(lambda c: c.atoms and not faulted(c))) == label
        assert diff_case(smallest(faulted)) is None

    def test_sampler_is_deterministic(self):
        assert sample_cases(SEED, COUNT) == CASES
        assert sample_cases(SEED + 1, COUNT) != CASES

    def test_sampler_spans_fault_and_scenario_flavors(self):
        fault_kinds = {
            a["kind"] for c in CASES for a in c.atoms if a["kind"] != "scenario"
        }
        assert fault_kinds  # at least one chaos fault flavor in the sample
        assert any(
            a["kind"] == "scenario" for c in CASES for a in c.atoms
        )
        assert any(not c.atoms for c in CASES)  # and plain healthy runs


@pytest.mark.parametrize(
    "case", CASES, ids=lambda c: f"{c.algorithm}-p{c.p}-s{c.data_seed}"
)
def test_paths_bit_identical(case):
    label = diff_case(case)
    if label is not None:
        minimal = shrink_case(case)
        pytest.fail(
            f"{label}\n  shrunk case: {minimal!r}\n"
            f"  reproduce: {reproducer(minimal)}"
        )


class TestShrinker:
    """The shrinker itself is pinned against a synthetic mismatch (real
    ones must not exist), so a future regression gets a small repro."""

    def test_shrinks_atoms_and_axes_to_local_minimum(self):
        case = next(
            c for c in CASES
            if len(c.atoms) >= 2 and c.port == "multi-port"
        )

        # Synthetic oracle: "mismatches" iff the last atom survives.
        culprit = case.atoms[-1]
        seen = []

        def mismatches(c: Case) -> bool:
            seen.append(c)
            return culprit in c.atoms

        minimal = shrink_case(case, mismatches)
        assert minimal.atoms == (culprit,)
        # Axis resets applied: everything the oracle ignores was simplified.
        assert minimal.port == "one-port"
        assert minimal.routing == "store-and-forward"
        assert (minimal.t_s, minimal.t_w, minimal.t_c) == (1.0, 1.0, 0.0)
        assert len(seen) > 1

    def test_refuses_non_mismatching_start(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="mismatching"):
            shrink_case(CASES[0], lambda c: False)

    def test_minimal_case_without_atoms_keeps_machine_shrinks(self):
        case = replace(CASES[0], atoms=())
        minimal = shrink_case(case, lambda c: True)
        assert minimal.atoms == ()
        assert minimal.routing == "store-and-forward"
