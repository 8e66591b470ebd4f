"""Unit tests for the closed-form superstep fast path.

The heavyweight guarantee (bit-identical times/digests on every
registered algorithm across seeded configurations) lives in
``tests/conformance/``; these tests pin the mechanics — eligibility
gating, per-round fallback, hazard release, selective laggard release,
timing-only mode — on machines small enough to read.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.engine as engine_mod
from repro.algorithms import get_algorithm
from repro.errors import AlgorithmError, SimulationError
from repro.sim import FaultPlan, MachineConfig, PortModel, run_spmd
from repro.sim.engine import Engine
from repro.sim.scenario import hotspot
from repro.sim.superstep import superstep_ineligibility_reason

PARAMS = {"t_s": 7.0, "t_w": 3.0, "t_c": 0.5}


def _shift_program(steps: int, *, tag_b: int = 2, delay_rank: int | None = None):
    """A uniform shift phase on p=4: A partners via XOR 1, B via XOR 2.

    Both masks are self-inverse cube-neighbor permutations, so the phase
    is closed-form eligible by construction.  ``delay_rank`` staggers one
    rank's park time to prove mixed park times still batch exactly.
    """

    def prog(ctx):
        if delay_rank is not None and ctx.rank == delay_rank:
            yield from ctx.elapse(11.0)
        a = np.full((2, 2), float(ctx.rank + 1))
        b = np.full((2, 2), float(10 * ctx.rank + 1))
        return (
            yield from ctx.shift_phase(
                steps=steps,
                a_to=ctx.rank ^ 1, a_from=ctx.rank ^ 1,
                b_to=ctx.rank ^ 2, b_from=ctx.rank ^ 2,
                a_block=a, b_block=b, tag_a=1, tag_b=tag_b,
            )
        )

    return prog


class _PathCounter:
    """Counts closed-form successes/refusals seen by the engine."""

    def __init__(self, monkeypatch):
        self.ok = 0
        self.refused = 0
        real = engine_mod.try_advance_superstep

        def counted(engine, parked):
            out = real(engine, parked)
            if out is None:
                self.refused += 1
            else:
                self.ok += 1
            return out

        monkeypatch.setattr(engine_mod, "try_advance_superstep", counted)


def _both_paths(prog, p=4, *, trace=False, **cfg_kw):
    kw = {**PARAMS, **cfg_kw}
    fast = run_spmd(MachineConfig.create(p, **kw), prog, superstep=True,
                    trace=trace)
    slow = run_spmd(MachineConfig.create(p, **kw), prog, superstep=False,
                    trace=trace)
    return fast, slow


def _assert_identical(fast, slow):
    assert fast.total_time == slow.total_time
    assert fast.trace_digest() == slow.trace_digest()
    assert fast.stats == slow.stats
    assert fast.network == slow.network
    for rank, value in slow.results.items():
        a, b, c = value
        fa, fb, fc = fast.results[rank]
        assert np.array_equal(fa, a) and np.array_equal(fb, b)
        assert np.array_equal(fc, c)


class TestClosedForm:
    def test_uniform_phase_is_batched_and_bitwise_identical(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        fast, slow = _both_paths(_shift_program(5))
        _assert_identical(fast, slow)
        assert counter.ok == 1 and counter.refused == 0

    def test_staggered_park_times_still_batch(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        fast, slow = _both_paths(_shift_program(4, delay_rank=2))
        _assert_identical(fast, slow)
        assert counter.ok == 1

    def test_multiport_phase_batches(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        fast, slow = _both_paths(
            _shift_program(3), port_model=PortModel.MULTI_PORT
        )
        _assert_identical(fast, slow)
        assert counter.ok == 1

    def test_single_step_phase(self):
        fast, slow = _both_paths(_shift_program(1))
        _assert_identical(fast, slow)

    def test_tag_collision_falls_back(self, monkeypatch):
        """tag_a == tag_b would cross-match receives; the closed form must
        refuse every shifting round (the final steps=1 boundary is a pure
        multiply, tag-safe by construction) and the event-path rounds
        still agree bitwise."""
        counter = _PathCounter(monkeypatch)
        fast, slow = _both_paths(_shift_program(3, tag_b=1))
        _assert_identical(fast, slow)
        assert counter.refused == 2  # boundaries with 3 and 2 rounds left
        assert counter.ok == 1       # the shift-free final round

    def test_steps_below_one_rejected(self):
        with pytest.raises(SimulationError, match="steps"):
            run_spmd(
                MachineConfig.create(4, **PARAMS), _shift_program(0)
            )


class TestCannonPaths:
    """Cannon's skewed alignment drives every engine mechanism at once:
    hazard releases during the contended skew, selective laggard release
    through the ±1-round staircase, then one closed-form batch."""

    def _runs(self, n, p, **kw):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg_kw = {**PARAMS, **kw}
        algo = get_algorithm("cannon")
        fast = algo.run(A, B, MachineConfig.create(p, **cfg_kw))
        slow = algo.run(
            A, B, MachineConfig.create(p, **cfg_kw), superstep=False
        )
        return fast, slow

    def test_contended_run_exercises_release_then_batches(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        releases = []
        real_release = Engine._release_parked
        monkeypatch.setattr(
            Engine, "_release_parked",
            lambda self: (releases.append(1), real_release(self))[1],
        )
        fast, slow = self._runs(16, 64)
        assert counter.ok >= 1      # the synchronized tail batched
        assert counter.refused >= 1  # the skew staircase refused at least once
        assert len(releases) >= 1    # and forced an event-path round
        assert fast.total_time == slow.total_time
        assert fast.result.trace_digest() == slow.result.trace_digest()
        assert np.array_equal(fast.C, slow.C)

    def test_uncontended_run_batches_immediately(self, monkeypatch):
        counter = _PathCounter(monkeypatch)
        fast, slow = self._runs(8, 16)
        assert counter.ok == 1 and counter.refused == 0
        assert fast.total_time == slow.total_time
        assert np.array_equal(fast.C, slow.C)


class TestEligibilityGates:
    def test_engine_mode_gates(self):
        reason = superstep_ineligibility_reason
        cfg = MachineConfig.create(16, **PARAMS)
        assert reason(Engine(cfg)) is None
        assert reason(Engine(cfg, superstep=False)) == "superstep disabled"
        assert reason(Engine(cfg, trace=True)) == "per-hop tracing"
        assert (
            reason(Engine(cfg, max_virtual_time=1e9))
            == "max_virtual_time watchdog"
        )
        faulty = MachineConfig.create(
            16, faults=FaultPlan(seed=1).with_link_fault(0, 1, start=0.0),
            **PARAMS,
        )
        assert reason(Engine(faulty)) == "fault plan"
        degraded = MachineConfig.create(
            16, scenario=hotspot(16, node=0, factor=3.0), **PARAMS
        )
        assert reason(Engine(degraded)) == "heterogeneous scenario"

    def test_ineligible_engine_still_answers_shift_ops(self):
        """A traced engine runs shift phases wholly through events, and its
        timeline digest matches the untraced event path's counters."""
        cfg = MachineConfig.create(4, **PARAMS)
        traced = run_spmd(cfg, _shift_program(3), trace=True)
        plain = run_spmd(
            MachineConfig.create(4, **PARAMS), _shift_program(3),
            superstep=False,
        )
        assert traced.total_time == plain.total_time
        assert traced.stats == plain.stats


class _CollectiveCounter:
    """Counts collective closed-form successes/refusals and records the
    spec tuples of every op the resolver was shown."""

    def __init__(self, monkeypatch):
        self.ok = 0
        self.refused = 0
        self.specs_seen: list[tuple] = []
        real = engine_mod.try_advance_collective

        def counted(engine, parked):
            self.specs_seen.extend(op.specs for op, _ in parked.values())
            out = real(engine, parked)
            if out is None:
                self.refused += 1
            else:
                self.ok += 1
            return out

        monkeypatch.setattr(engine_mod, "try_advance_collective", counted)


class TestCollectivePhases:
    """The collective closed form: engagement, fused-pair gating, and the
    delivery-into-parked-rank release."""

    def _runs(self, key, n, p, port):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, port_model=port, **PARAMS)
        algo = get_algorithm(key)
        fast = algo.run(A, B, cfg)
        slow = algo.run(A, B, cfg, superstep=False)
        return fast, slow

    def test_multiport_3d_all_advances_in_closed_form(self, monkeypatch):
        counter = _CollectiveCounter(monkeypatch)
        fast, slow = self._runs("3d_all", 16, 64, PortModel.MULTI_PORT)
        assert counter.ok >= 1 and counter.refused == 0
        assert fast.total_time == slow.total_time
        assert fast.result.trace_digest() == slow.result.trace_digest()
        assert fast.result.stats == slow.result.stats
        assert np.array_equal(fast.C, slow.C)

    def test_one_port_fused_pairs_refuse_inline(self, monkeypatch):
        """On a one-port machine the two halves of a fused pair contend for
        the same send port, so 2-spec ops must be refused inline — the
        resolver only ever sees single-spec phases."""
        counter = _CollectiveCounter(monkeypatch)
        fast, slow = self._runs("3d_all", 8, 8, PortModel.ONE_PORT)
        assert all(len(specs) == 1 for specs in counter.specs_seen)
        assert fast.total_time == slow.total_time
        assert np.array_equal(fast.C, slow.C)

    def test_multiport_fused_pair_reaches_resolver(self, monkeypatch):
        counter = _CollectiveCounter(monkeypatch)
        fast, slow = self._runs("3d_all", 8, 8, PortModel.MULTI_PORT)
        assert any(len(specs) == 2 for specs in counter.specs_seen)
        assert counter.ok >= 1
        assert fast.total_time == slow.total_time
        assert np.array_equal(fast.C, slow.C)

    def test_delivery_into_parked_rank_releases_phase(self, monkeypatch):
        """A unicast completing its final hop into a collective-parked rank
        must release the whole phase to the event path and redo the
        delivery — resolving a phase around a queued delivery is exactly
        the hazard the conformance suite once caught on DNS."""
        from repro.collectives.allgather import allgather
        from repro.mpi import Comm

        releases = []
        real = Engine._release_all_parked
        monkeypatch.setattr(
            Engine, "_release_all_parked",
            lambda self: (releases.append(1), real(self))[1],
        )

        def prog(ctx):
            if ctx.rank < 4:
                comm = Comm(ctx, [0, 1, 2, 3])
                yield from allgather(comm, np.full(4, float(ctx.rank)))
                if ctx.rank == 1:
                    yield from ctx.recv(4, tag=9)
                return ctx.now
            if ctx.rank == 4:
                yield from ctx.send(1, np.ones(4), tag=9)
            return ctx.now

        fast, slow = _both_paths(prog, p=8)
        assert len(releases) >= 1
        assert fast.total_time == slow.total_time
        assert fast.stats == slow.stats
        assert fast.results == slow.results


class TestTimingOnly:
    def test_timing_only_matches_full_run_time(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        algo = get_algorithm("cannon")
        cfg = MachineConfig.create(16, **PARAMS)
        full = algo.run(A, B, cfg)
        timed = algo.run(
            A, B, MachineConfig.create(16, **PARAMS), timing_only=True
        )
        assert timed.total_time == full.total_time
        assert timed.C is None
        assert timed.result.stats == full.result.stats

    def test_timing_only_refuses_verify(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8))
        with pytest.raises(AlgorithmError, match="timing_only"):
            get_algorithm("cannon").run(
                A, B, MachineConfig.create(16, **PARAMS),
                timing_only=True, verify=True,
            )
