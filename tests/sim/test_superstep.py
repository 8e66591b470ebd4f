"""Unit tests for the closed-form superstep fast path.

The heavyweight guarantee (bit-identical times/digests on every
registered algorithm across seeded configurations) lives in
``tests/conformance/``; these tests pin the mechanics — eligibility
gating, engine-run rounds after a hazard release, the closed form from a
staggered frontier, timing-only mode — on machines small enough to read.
Which path ran a round is read off ``RunResult.shift_rounds_event`` and
``shift_rounds_closed_form``.  The runs the closed forms must refuse
(traced, scenario-backed, watchdogged) keep their rounds engine-run;
``TestResidentRounds`` holds those to the generator loops event for event.
"""

from __future__ import annotations

import numpy as np
import pytest

import itertools
import random

import repro.sim.engine as engine_mod
import repro.sim.process as process_mod
from repro.algorithms import get_algorithm
from repro.algorithms.common import cannon_kernel
from repro.algorithms.torus_cannon import torus_machine_like
from repro.blocks.partition import BlockGrid
from repro.collectives import allgather
from repro.collectives.phase import Lift, allgather_call, broadcast_call, parallel_pair
from repro.errors import AlgorithmError, LivelockError, SimulationError
from repro.mpi import Comm
from repro.sim import FaultPlan, MachineConfig, PortModel, run_spmd
from repro.sim.engine import Engine
from repro.sim.machine import RoutingMode
from repro.sim.scenario import congested_dimension, hotspot, random_heterogeneous
from repro.sim.superstep import superstep_ineligibility_reason
from repro.topology.embedding import Grid2DEmbedding

PARAMS = {"t_s": 7.0, "t_w": 3.0, "t_c": 0.5}


def _foreign_then_phase(ctx, foreign):
    """``foreign = (src, dst, count, gap)``: before either enters the shift
    phase, ``src`` sends ``dst`` ``count`` one-word messages ``gap`` apart.
    Each is forwarded by ranks already parked in the phase, later than
    their first reservation would be — a hazard release, so every parked
    rank runs one round through the events while ``src`` and ``dst`` (and
    whoever waits for their blocks) fall behind."""
    src, dst, count, gap = foreign
    if ctx.rank == src:
        for _ in range(count):
            yield from ctx.elapse(gap)
            yield from ctx.send(dst, np.zeros(1), tag=99)
    elif ctx.rank == dst:
        for _ in range(count):
            yield from ctx.recv(src, tag=99)


def _shift_program(
    steps: int, *, tag_b: int = 2, delay_rank: int | None = None, foreign=None
):
    """A uniform shift phase on p=4: A partners via XOR 1, B via XOR 2.

    Both masks are self-inverse cube-neighbor permutations, so the phase
    is closed-form eligible by construction.  ``delay_rank`` staggers one
    rank's park time to prove mixed park times still batch exactly;
    ``foreign`` staggers the ranks' *rounds* (see ``_foreign_then_phase``).
    """

    def prog(ctx):
        if delay_rank is not None and ctx.rank == delay_rank:
            yield from ctx.elapse(11.0)
        if foreign is not None:
            yield from _foreign_then_phase(ctx, foreign)
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


def _rounds(result):
    return result.shift_rounds_event, result.shift_rounds_closed_form


class TestClosedForm:
    def test_uniform_phase_is_batched_and_bitwise_identical(self):
        fast, slow = _both_paths(_shift_program(5))
        _assert_identical(fast, slow)
        assert _rounds(fast) == (0, 4 * 5)
        assert _rounds(slow) == (4 * 5, 0)

    def test_staggered_park_times_still_batch(self):
        fast, slow = _both_paths(_shift_program(4, delay_rank=2))
        _assert_identical(fast, slow)
        assert _rounds(fast) == (0, 4 * 4)

    def test_multiport_phase_batches(self):
        fast, slow = _both_paths(
            _shift_program(3), port_model=PortModel.MULTI_PORT
        )
        _assert_identical(fast, slow)
        assert _rounds(fast) == (0, 4 * 3)

    def test_single_step_phase(self):
        fast, slow = _both_paths(_shift_program(1))
        _assert_identical(fast, slow)

    def test_tag_collision_falls_back(self):
        """tag_a == tag_b would cross-match receives; the closed form must
        refuse every shifting round (the final steps=1 boundary is a pure
        multiply, tag-safe by construction) and the engine-run rounds
        still agree bitwise."""
        fast, slow = _both_paths(_shift_program(3, tag_b=1))
        _assert_identical(fast, slow)
        # boundaries with 3 and 2 rounds left refused; the shift-free
        # final round batched
        assert _rounds(fast) == (4 * 2, 4 * 1)

    def test_steps_below_one_rejected(self):
        with pytest.raises(SimulationError, match="steps"):
            run_spmd(
                MachineConfig.create(4, **PARAMS), _shift_program(0)
            )

    @pytest.mark.parametrize("superstep", [True, False])
    @pytest.mark.parametrize(
        "a_block, message",
        [
            (np.ones(4), r"local_matmul shape mismatch: \(4,\) @ \(4, 4\)"),
            (np.ones((4, 3)), r"local_matmul shape mismatch: \(4, 3\) @ \(4, 4\)"),
            ([[1.0] * 4] * 4, "blocks must be numpy arrays, got list"),
        ],
        ids=["rank-1", "inner-dimension", "not-an-array"],
    )
    def test_malformed_blocks_fail_alike_on_both_paths(
        self, superstep, a_block, message
    ):
        """Once a bare ValueError / AttributeError out of the engine's
        hazard-threshold code on the default path only."""

        def prog(ctx):
            yield from ctx.shift_phase(
                steps=2, a_to=ctx.rank ^ 1, a_from=ctx.rank ^ 1,
                b_to=ctx.rank ^ 2, b_from=ctx.rank ^ 2,
                a_block=a_block, b_block=np.ones((4, 4)), tag_a=1, tag_b=2,
            )

        with pytest.raises(SimulationError, match=message) as err:
            run_spmd(MachineConfig.create(4, **PARAMS), prog, superstep=superstep)
        assert "[rank 0, task 0, t=0]" in str(err.value)

    def test_blocks_of_different_shapes_meeting_fail_alike(self):
        """Each rank's own pair multiplies, but a shifted-in block does not
        fit: the engine's round hands the phase back to the program's loop,
        whose local_matmul reports it as on the event path."""

        def prog(ctx):
            k = 2 if ctx.rank & 1 else 3
            yield from ctx.shift_phase(
                steps=2, a_to=ctx.rank ^ 1, a_from=ctx.rank ^ 1,
                b_to=ctx.rank ^ 2, b_from=ctx.rank ^ 2,
                a_block=np.ones((2, k)), b_block=np.ones((k, 2)),
                tag_a=1, tag_b=2,
            )

        errors = []
        for superstep in (True, False):
            with pytest.raises(SimulationError, match="shape mismatch") as err:
                run_spmd(
                    MachineConfig.create(4, **PARAMS), prog, superstep=superstep
                )
            errors.append(str(err.value))
        assert errors[0] == errors[1]


def _torus_program(steps, foreign):
    """Cannon's shift phase, without its skew, on the Gray-embedded 4 x 4
    torus: A moves left along the row ring, B up along the column ring, so
    a rank's senders do not depend on it and can run rounds ahead."""

    def prog(ctx):
        yield from _foreign_then_phase(ctx, foreign)
        grid = Grid2DEmbedding.square(ctx.config.cube)
        row, col = grid.coords_of(ctx.rank)
        rng = np.random.default_rng(ctx.rank)
        return (
            yield from ctx.shift_phase(
                steps=steps,
                a_to=grid.node_at(row, col - 1), a_from=grid.node_at(row, col + 1),
                b_to=grid.node_at(row - 1, col), b_from=grid.node_at(row + 1, col),
                a_block=rng.standard_normal((2, 3)),
                b_block=rng.standard_normal((3, 2)),
                tag_a=1, tag_b=2,
            )
        )

    return prog


def _engines(prog, p, *, timing_only=False, trace=False, **cfg_kw):
    """Both paths, keeping the engines: (engine, result) fast and slow."""
    out = []
    for superstep in (True, False):
        eng = Engine(
            MachineConfig.create(p, **{**PARAMS, **cfg_kw}),
            superstep=superstep, timing_only=timing_only, trace=trace,
        )
        out.append((eng, eng.run(prog)))
    return out


def _resources(engine):
    """Every channel's and send port's (next free, busy, reservations),
    read off the tracker's columns (on one-port node ``r``'s port is
    slot ``r``)."""
    tracker = engine.tracker
    slots = dict(tracker._channel_ids)
    if engine.config.port_model is PortModel.ONE_PORT:
        slots.update({("port", r): r for r in range(engine.config.num_nodes)})
    return {
        key: (float(tracker._free[i]), float(tracker._busy[i]), int(tracker._nres[i]))
        for key, i in slots.items()
    }


def _assert_same_machine(fast, slow, *, blocks=True):
    """``_assert_identical`` plus every channel and port, resource by
    resource, and the phase marks; ``blocks=False`` for timing-only runs,
    whose blocks are placeholders on both paths."""
    (fast_eng, fast), (slow_eng, slow) = fast, slow
    assert fast.total_time == slow.total_time
    assert fast.phase_times == slow.phase_times
    assert fast.trace_digest() == slow.trace_digest()
    assert fast.stats == slow.stats
    assert fast.network == slow.network
    assert _resources(fast_eng) == _resources(slow_eng)
    if blocks:
        _assert_identical(fast, slow)


class TestStaggeredFrontier:
    """The closed form from a frontier that is not level.

    Each program staggers the ranks with hazard releases (see
    ``_foreign_then_phase``); the shapes named below were read off the
    frontier the closed form was handed.  ``shift_rounds_event`` is pinned
    to the rounds run *before* that first quiet point: were the closed
    form to refuse, or to level the frontier through the events first as
    it once did, the count would be higher.
    """

    # Three releases on the torus.  Ranks end up with 1 to 4 rounds left;
    # the two late ranks hold three queued blocks per (src, tag), seven
    # ranks are mid-round waiting for one block and three for both.
    @pytest.mark.parametrize("timing_only", [False, True], ids=["data", "timing"])
    @pytest.mark.parametrize("t_c", [0.5, 0.0])
    @pytest.mark.parametrize(
        "port, event_rounds",
        [(PortModel.ONE_PORT, 33), (PortModel.MULTI_PORT, 32)],
        ids=["one-port", "multi-port"],
    )
    def test_leads_of_several_rounds_with_queued_blocks(
        self, port, event_rounds, t_c, timing_only
    ):
        grid = Grid2DEmbedding.square(MachineConfig.create(16).cube)
        prog = _torus_program(
            4, foreign=(grid.node_at(2, 1), grid.node_at(1, 2), 3, 40.0)
        )
        fast, slow = _engines(
            prog, 16, port_model=port, t_c=t_c, timing_only=timing_only
        )
        _assert_same_machine(fast, slow, blocks=not timing_only)
        assert _rounds(fast[1]) == (event_rounds, 16 * 4 - event_rounds)
        assert fast[1].events_processed < slow[1].events_processed

    def test_lead_of_one_round(self):
        """One release: every rank is at most one round from its
        neighbours, one block queued where a sender is ahead."""
        grid = Grid2DEmbedding.square(MachineConfig.create(16).cube)
        prog = _torus_program(
            4, foreign=(grid.node_at(2, 1), grid.node_at(1, 2), 1, 40.0)
        )
        fast, slow = _engines(prog, 16)
        _assert_same_machine(fast, slow)
        assert _rounds(fast[1]) == (15, 16 * 4 - 15)

    def test_single_rank_ahead_of_everyone(self):
        """p = 4, message 3 -> 0: the release catches rank 3 freshly parked,
        so it alone completes a round (its partners 1 and 2 had sent);
        1 and 2 wait mid-round for rank 0's blocks, rank 0 parks last."""
        fast, slow = _engines(_shift_program(3, foreign=(3, 0, 1, 30.0)), 4)
        _assert_same_machine(fast, slow)
        assert _rounds(fast[1]) == (3, 4 * 3 - 3)

    def test_mid_round_waiter_is_guarded_by_its_parked_sender(self):
        """p = 16, one port, ``t_c = 0``: four messages 11 -> 12, three
        apart.  Rank 8 is blocked mid-round on a parked neighbour's block
        when the foreign 11 -> 10 -> 8 -> 12 hops reach port 8 and channel
        8 -> 12; without the hazard that park puts on rank 8's next round
        they went first, and ten ranks finished 40 early (300, not 340)."""
        fast, slow = _engines(
            _torus_program(4, foreign=(11, 12, 4, 3.0)), 16,
            t_c=0.0, port_model=PortModel.ONE_PORT,
        )
        _assert_same_machine(fast, slow)
        assert fast[1].total_time == 340.0

    def test_mid_round_ranks_waiting_on_both_blocks(self):
        """p = 4, two messages 3 -> 0: ranks 1 and 2 send their first round
        and wait for both partners (0 and 3), which park only afterwards,
        each with two blocks queued."""
        fast, slow = _engines(_shift_program(3, foreign=(3, 0, 2, 30.0)), 4)
        _assert_same_machine(fast, slow)
        assert _rounds(fast[1]) == (2, 4 * 3 - 2)


def _aligned_program(foreign=None):
    """Cannon's kernel on the Gray-embedded grid, its alignment declared
    with the shift phase, after ``_foreign_then_phase(foreign)``: a foreign
    message crossing parked alignments releases them onto the event path."""

    def prog(ctx):
        if foreign is not None:
            yield from _foreign_then_phase(ctx, foreign)
        grid = Grid2DEmbedding.square(ctx.config.cube)
        row, col = grid.coords_of(ctx.rank)
        rng = np.random.default_rng(ctx.rank)
        return (
            yield from cannon_kernel(
                ctx, grid.node_at, grid.rows, row, col,
                rng.standard_normal((2, 3)), rng.standard_normal((3, 2)),
            )
        )

    return prog


def _assert_same_kernel_run(fast, slow):
    """``_assert_same_machine`` for programs returning one block per rank."""
    _assert_same_machine(fast, slow, blocks=False)
    for rank, block in slow[1].results.items():
        assert np.array_equal(fast[1].results[rank], block)


class TestCannonPaths:
    """Cannon's kernel declares its skewed alignment with its shift phase:
    with every rank parked and the network quiet the hop table plans the
    contended skew and the rounds it overlaps, the closed form the rest.
    A foreign message across parked alignments releases them onto the
    event path instead (engine-run), and the rounds batch from the first
    quiet point."""

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

    def test_contended_run_exercises_release_then_batches(self):
        fast, slow = _engines(_aligned_program((0, 57, 4, 39.0)), 64)
        _assert_same_kernel_run(fast, slow)
        event, closed = _rounds(fast[1])
        # released, then batched: 133 rounds and the 64 alignments by events
        assert (event, closed) == (197, 379)
        # the late receiver (57) parks before its alignment beside ranks in
        # their rounds: the hop table refuses that frontier; every other
        # rank-round by events is a hazard release's
        assert fast[1].closed_form_refusals == {
            "aligned shift: ranks outside the phase, or traffic in flight": 35,
            "foreign hop at a parked rank's resources": 133,
            "delivery to a parked rank": 29,
        }
        fast, slow = self._runs(16, 64)  # without the foreign message
        assert _rounds(fast.result) == (0, 64 * 8)
        assert fast.result.events_processed == 2 * 64
        assert fast.total_time == slow.total_time
        assert fast.result.trace_digest() == slow.result.trace_digest()
        assert np.array_equal(fast.C, slow.C)

    def test_uncontended_run_batches_immediately(self):
        fast, slow = self._runs(8, 16)
        assert _rounds(fast.result) == (0, 16 * 4)
        assert fast.total_time == slow.total_time
        assert np.array_equal(fast.C, slow.C)

    @pytest.mark.parametrize(
        "port", [PortModel.ONE_PORT, PortModel.MULTI_PORT],
        ids=["one-port", "multi-port"],
    )
    def test_default_knob_run_never_returns_to_the_event_path(self, port):
        """n = 64 on p = 256 (the benchmark's Cannon unit): no round runs
        on the event path.  Before the alignment joined the shift phase the
        rounds before the first quiet point did: 235 rank-rounds one-port,
        151 multi-port."""
        rng = np.random.default_rng(3)
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        run = get_algorithm("cannon").run(
            A, B, MachineConfig.create(256, port_model=port), verify=True
        )
        assert _rounds(run.result) == (0, 256 * 16)
        assert run.result.events_processed == 2 * 256
        assert run.result.closed_form_refusals == {}


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


def _exchange_with(**bad):
    """One neighbour-exchange round on p = 4 with one thing wrong on rank 0."""

    def prog(ctx):
        peer = ctx.rank ^ 1
        data = np.ones(2)
        if ctx.rank == 0:
            peer, data = bad.get("dst", peer), bad.get("data", data)
        yield from ctx.elapse(3.0)
        return (
            yield from ctx.neighbor_exchange(
                [(peer, data, 5)],
                [(bad.get("src", ctx.rank ^ 1) if ctx.rank == 0 else ctx.rank ^ 1, 5)],
            )
        )

    return prog


def _shift_with(a_of_rank, b_of_rank):
    def prog(ctx):
        yield from ctx.shift_phase(
            steps=2, a_to=ctx.rank ^ 1, a_from=ctx.rank ^ 1,
            b_to=ctx.rank ^ 2, b_from=ctx.rank ^ 2,
            a_block=a_of_rank(ctx.rank), b_block=b_of_rank(ctx.rank),
            tag_a=1, tag_b=2,
        )

    return prog


#: the default run and three that may not park: engine keywords, machine keywords
_MODES = {
    "default": ({}, {}),
    "traced": ({"trace": True}, {}),
    "scenario": ({}, {"scenario": hotspot(4, node=1, factor=3.0)}),
    "watchdog": ({"max_virtual_time": 1e9}, {}),
}


class TestMalformedRounds:
    """A malformed round raises the same error, text and all, whoever would
    have run it: the closed form, the engine's own round, or — the oracle,
    ``superstep=False`` — the generator loop.  (An out-of-range source was
    once checked by ``ctx.irecv`` alone, which only the loop calls.)"""

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize(
        "prog, message",
        [
            (_exchange_with(src=99), r"t=3\] rank 99 out of range on a 4-node"),
            (_exchange_with(dst=99), r"t=3\] rank 99 out of range on a 4-node"),
            (_exchange_with(data=object()), r"t=3\] cannot infer word count"),
            (
                _shift_with(
                    lambda r: np.ones((2, 2 if r & 1 else 3)),
                    lambda r: np.ones((2 if r & 1 else 3, 2)),
                ),
                "local_matmul shape mismatch",
            ),
            (
                _shift_with(lambda r: [[1.0] * 4] * 4, lambda r: np.ones((4, 4))),
                r"t=0\] shift_phase blocks must be numpy arrays, got list",
            ),
        ],
        ids=["source-out-of-range", "destination-out-of-range",
             "uncountable-payload", "block-shapes-meet", "not-an-array"],
    )
    def test_fails_alike_on_every_path(self, prog, message, mode):
        run_kw, cfg_kw = _MODES[mode]
        errors = []
        for superstep in (True, False):
            cfg = MachineConfig.create(4, **PARAMS, **cfg_kw)
            with pytest.raises(SimulationError, match=message) as err:
                run_spmd(cfg, prog, superstep=superstep, **run_kw)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    def test_any_source_stays_legal(self):
        from repro.sim.process import ANY_SOURCE

        fast, slow = _both_paths(_exchange_with(src=ANY_SOURCE), trace=True)
        assert fast.trace_lines() == slow.trace_lines()
        assert all(np.array_equal(v, [np.ones(2)]) for v in fast.results.values())


def _resident_cases():
    """What keeps a run from parking x algorithm x port model x routing mode
    x timing_only, at p = 16 (Berntsen, whose grid is 3-D: 8) and 64.  The
    two caps are small enough to raise mid-phase; ``max_events`` alone
    would leave the run closed-form eligible (its event count is then the
    closed form's), so it rides on an unreached ``max_virtual_time``.
    Cannon's and Berntsen's traced runs park their aligned phase: they are
    ``TestTracedTable``'s."""
    for p in (8, 16, 64):
        features = {
            "traced": ({"trace": True}, {}),
            "random": ({}, {"scenario": random_heterogeneous(p, 2.0, seed=1)}),
            "hotspot": ({}, {"scenario": hotspot(p, node=3, factor=3.0)}),
            "congested": ({}, {"scenario": congested_dimension(p, 1, 2.5)}),
            "vt-cap-unreached": ({"max_virtual_time": 1e9}, {}),
            "vt-cap": ({"max_virtual_time": 150.0}, {}),
            "event-cap": ({"max_events": 12 * p, "max_virtual_time": 1e9}, {}),
        }
        keys = {8: ("berntsen",), 16: ("cannon", "hje", "fox")}.get(
            p, ("cannon", "berntsen", "hje", "fox")
        )
        for (name, (run_kw, cfg_kw)), key, port, routing, timing in itertools.product(
            features.items(), keys, PortModel, RoutingMode, (False, True),
        ):
            if name == "traced" and key in ("cannon", "berntsen"):
                continue
            yield pytest.param(
                key, p, port, routing, timing, run_kw, cfg_kw, name.endswith("-cap"),
                id=f"{key}-p{p}-{port.name}-{routing.name}-"
                   f"{'timing' if timing else 'data'}-{name}",
            )


class TestResidentRounds:
    """A run that may not park keeps its shift rounds and neighbour
    exchanges engine-run (a traced one: all but an aligned phase's).  Same
    simulation as the generator loops (``superstep=False``), event for
    event: hop records, blocks, statistics, event count — or the
    watchdog's error, progress snapshot included."""

    @staticmethod
    def _outcome(key, p, port, routing, timing_only, run_kw, cfg_kw, superstep):
        n = 32 if p == 64 else 16
        rng = np.random.default_rng(3)
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        cfg = MachineConfig.create(
            p, port_model=port, routing=routing, **PARAMS, **cfg_kw
        )
        try:
            run = get_algorithm(key).run(
                A, B, cfg, superstep=superstep, timing_only=timing_only, **run_kw
            )
        except LivelockError as exc:
            return "raised", str(exc)
        result = run.result
        return (
            result.trace_lines(), None if timing_only else run.C.tobytes(),
            result.stats, result.network, result.events_processed,
            result.shift_rounds_event,
            # (the reason is the feature on one side, "superstep disabled"
            # on the other; the declared phases refused are the same)
            sorted(result.closed_form_refusals.values()),
        )

    @pytest.mark.parametrize(
        "key, p, port, routing, timing_only, run_kw, cfg_kw, raises",
        _resident_cases(),
    )
    def test_same_simulation_as_the_generator_loops(
        self, key, p, port, routing, timing_only, run_kw, cfg_kw, raises
    ):
        case = (key, p, port, routing, timing_only, run_kw, cfg_kw)
        fast = self._outcome(*case, superstep=True)
        assert fast == self._outcome(*case, superstep=False)
        assert (fast[0] == "raised") == raises


class TestCollectivePhases:
    """The collective closed form: engagement, fused-pair gating, and the
    delivery-into-parked-rank release — read off the engine's own counters
    (``RunResult.collective_phases_*`` / ``closed_form_refusals``)."""

    def _runs(self, key, n, p, port):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, port_model=port, **PARAMS)
        algo = get_algorithm(key)
        fast = algo.run(A, B, cfg)
        slow = algo.run(A, B, cfg, superstep=False)
        assert slow.result.collective_phases_closed_form == 0
        assert set(slow.result.closed_form_refusals) <= {
            "superstep disabled"
        }
        return fast, slow

    def test_multiport_3d_all_advances_in_closed_form(self):
        fast, slow = self._runs("3d_all", 16, 64, PortModel.MULTI_PORT)
        assert fast.result.collective_phases_closed_form >= 64
        assert fast.result.collective_phases_event == 0
        assert fast.result.closed_form_refusals == {}
        assert fast.total_time == slow.total_time
        assert fast.result.trace_digest() == slow.result.trace_digest()
        assert fast.result.stats == slow.result.stats
        assert np.array_equal(fast.C, slow.C)

    def test_one_port_lifted_pairs_park_and_batch(self):
        """On a one-port machine the two halves of a fused pair contend for
        the same send port, and 3DD's phase-1 lift still crosses its ports
        when the broadcasts start.  The pair declares its lift, every rank
        parks before it, and the hop table plans both: the pair and the
        reduce are closed forms on every rank, and no phase is evented."""
        fast, slow = self._runs("3dd", 8, 8, PortModel.ONE_PORT)
        assert fast.result.closed_form_refusals == {}
        assert fast.result.collective_phases_event == 0
        assert fast.result.collective_phases_closed_form == 16
        assert fast.total_time == slow.total_time
        assert fast.result.phase_times == slow.result.phase_times
        assert fast.result.stats == slow.result.stats
        assert np.array_equal(fast.C, slow.C)

    @pytest.mark.parametrize("key", ["simple", "3d_all", "3d_all_rect"])
    def test_one_port_allgather_pairs_park_and_batch(self, key):
        """A fused pair of dimension exchanges parks on a one-port machine
        too: both schedules are planned through one port column."""
        n, p = (16, 16) if key == "simple" else (8, 8)
        fast, slow = self._runs(key, n, p, PortModel.ONE_PORT)
        assert fast.result.collective_phases_closed_form >= p
        assert fast.result.collective_phases_event == 0
        assert fast.total_time == slow.total_time
        assert fast.result.stats == slow.result.stats
        assert fast.result.network == slow.result.network
        assert np.array_equal(fast.C, slow.C)

    def test_multiport_fused_pair_reaches_resolver(self):
        fast, slow = self._runs("3d_all", 8, 8, PortModel.MULTI_PORT)
        # Every declared phase batched — the fused pair included: a refused
        # pair would have been counted under collective_phases_event.
        assert fast.result.collective_phases_closed_form >= 8
        assert fast.result.collective_phases_event == 0
        assert fast.total_time == slow.total_time
        assert np.array_equal(fast.C, slow.C)

    def test_delivery_into_parked_rank_releases_phase(self):
        """A unicast completing its final hop into a collective-parked rank
        must release the whole phase to the event path and redo the
        delivery — resolving a phase around a queued delivery is exactly
        the hazard the conformance suite once caught on DNS."""
        from repro.collectives.allgather import allgather
        from repro.mpi import Comm

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
        assert fast.closed_form_refusals == {"delivery to a parked rank": 4}
        assert fast.collective_phases_event == 4
        assert fast.total_time == slow.total_time
        assert fast.stats == slow.stats
        assert fast.results == slow.results

    @pytest.mark.parametrize(
        "port", [PortModel.ONE_PORT, PortModel.MULTI_PORT],
        ids=["one-port", "multi-port"],
    )
    def test_shift_phase_parked_beside_a_collective_releases_both(self, port):
        """Ranks 0-1 park on a shift phase while ranks 2-3 park on an
        allgather: no closed form covers the mix, so both kinds
        are released onto the event path in one step.  The shift phase
        then runs one more engine-run round (its A and B shifts share a
        channel, which the closed form refuses) and batches its last."""

        def prog(ctx):
            r = ctx.rank
            if r < 2:
                return (
                    yield from ctx.shift_phase(
                        steps=3, a_to=r ^ 1, a_from=r ^ 1, b_to=r ^ 1,
                        b_from=r ^ 1, a_block=np.full((2, 2), float(r + 1)),
                        b_block=np.full((2, 2), float(r + 3)), tag_a=1, tag_b=2,
                    )
                )
            return (yield from allgather(Comm(ctx, [2, 3]), np.full(2, float(r)), tag=5))

        fast, slow = _both_paths(prog, port_model=port)
        assert fast.total_time == slow.total_time == 100.0
        assert fast.trace_digest() == slow.trace_digest()
        assert fast.stats == slow.stats
        assert fast.network == slow.network
        for rank, value in slow.results.items():
            for got, want in zip(fast.results[rank], value):
                assert np.array_equal(got, want)
        # two phases and two rank-rounds released, then two rank-rounds the
        # frontier refuses
        assert fast.closed_form_refusals == {
            "shift phase parked beside a collective": 4,
            "shift phase: shifts are not matched permutations on two tags": 2,
        }
        assert _rounds(fast) == (4, 2)
        assert (
            fast.collective_phases_event, fast.collective_phases_closed_form
        ) == (2, 0)


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


class TestReachAtScale:
    """The closed forms' reach at p = 4096, as exact counts.

    A phase that falls back to the event path leaves the makespan alone
    and costs a multiple in wall time; these counters are what move
    (``superstep=False`` Cannon reads ``shift_rounds_event == 262144``).
    ``timing_only`` keeps each run near a second, and its counters are the
    data run's.  ``total_time`` moves only with a golden-trace change; the
    counters move with the closed forms' reach (Cannon's: 96 964 events and
    5 242 event-path rank-rounds until its alignment joined the shift
    phase).
    """

    def _run(self, key, n, port):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(
            4096, t_s=150, t_w=3, t_c=0.5, port_model=port
        )
        return get_algorithm(key).run(A, B, cfg, timing_only=True).result

    def test_cannon_n128_one_port(self):
        r = self._run("cannon", 128, PortModel.ONE_PORT)
        assert r.total_time == 22876.0
        assert r.events_processed == 8_192
        assert r.total_messages() == 524_288
        assert _rounds(r) == (0, 262_144)

    def test_3dd_n128_one_port(self):
        """The lift and the broadcast pair plan in one hop table (parent:
        56 736 events, the pair refused inline and its 12 288 sub-task
        phases evented)."""
        r = self._run("3dd", 128, PortModel.ONE_PORT)
        assert r.total_time == 4616.0
        assert r.events_processed == 16_384
        assert r.total_messages() == 11_776
        assert r.collective_phases_closed_form == 8_192
        assert r.collective_phases_event == 0
        assert r.closed_form_refusals == {}

    def test_dns_n128_one_port(self):
        """As 3DD's, with two lift sends per z = 0 rank (parent: 58 274
        events)."""
        r = self._run("dns", 128, PortModel.ONE_PORT)
        assert r.total_time == 6326.0
        assert r.events_processed == 16_384
        assert r.total_messages() == 12_032
        assert r.collective_phases_closed_form == 8_192
        assert r.collective_phases_event == 0
        assert r.closed_form_refusals == {}

    def test_hje_n512_multi_port(self):
        """Figure 14's small-p corner: the XOR alignment and the 64 Gray-code
        steps fold as one grouped phase (parent: 1 902 592 events, 258 048
        neighbour-exchange phases and the alignment's messages evented)."""
        r = self._run("hje", 512, PortModel.MULTI_PORT)
        assert r.total_time == 47294.0
        assert r.total_messages() == 3_121_152
        assert r.events_processed <= 8_192
        assert _rounds(r) == (0, 4096 * 64)
        assert r.collective_phases_event == r.collective_phases_closed_form == 0
        assert r.closed_form_refusals == {}

    def test_fox_n128_one_port(self):
        """Fox's 64 broadcast-multiply-roll stages fold as one broadcast
        phase, each rank parked once (parent: 786 432 events, its 520 192
        row-broadcast and B-roll phases each parked and resolved apart)."""
        r = self._run("fox", 128, PortModel.ONE_PORT)
        assert r.total_time == 72926.0
        assert r.total_messages() == 516_096
        assert r.events_processed == 8_192
        assert _rounds(r) == (0, 4096 * 64)
        assert r.collective_phases_event == r.collective_phases_closed_form == 0
        assert r.closed_form_refusals == {}

    def test_3d_all_n256_multi_port(self):
        r = self._run("3d_all", 256, PortModel.MULTI_PORT)
        assert r.total_time == 6352.0
        assert r.events_processed == 81_920
        assert r.total_messages() == 262_144
        assert r.collective_phases_closed_form == 12_288
        assert r.collective_phases_event == 0
        assert r.closed_form_refusals == {}


def _kernel_engines(key, p, port, routing, t_c, timing_only=False, n=None, foreign=None,
                    trace=False, then=None):
    """Both paths of one ``cannon_kernel`` caller (or any algorithm: ``n``
    sets its size), keeping the engines, and the product each assembles
    (``None`` timing-only); ``foreign`` runs ``_foreign_then_phase`` first,
    ``then(ctx)`` (a generator) after the algorithm's program."""
    n = n or {8: 16, 16: 16, 32: 16, 64: 16}.get(p, 2 * int(round(p ** 0.5)))
    rng = np.random.default_rng(7)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    cfg = MachineConfig.create(
        p, t_s=7.0, t_w=3.0, t_c=t_c, port_model=port, routing=routing
    )
    if key == "torus_cannon":
        q = int(round(p ** 0.5))
        cfg = torus_machine_like(cfg, q)
        torus, part = cfg.cube, BlockGrid(n, q, q)

        def prog(ctx):
            r, c = torus.coords_of(ctx.rank)
            return (yield from cannon_kernel(
                ctx, torus.node_at, q, r, c, part.extract(A, (r, c)),
                part.extract(B, (r, c)),
            ))

        def collect(results):
            return part.assemble({
                (r, c): results[torus.node_at(r, c)]
                for r in range(q) for c in range(q)
            })
    else:
        algo = get_algorithm(key)
        initial = algo.distribute_inputs(A, B, cfg.cube)

        def prog(ctx):
            if foreign is not None:
                yield from _foreign_then_phase(ctx, foreign)
            value = yield from algo.program(ctx, n, initial.get(ctx.rank, {}))
            if then is not None:
                yield from then(ctx)
            return value

        def collect(results):
            return algo.collect_output(n, cfg.cube, results)
    runs = []
    for superstep in (True, False):
        eng = Engine(cfg, superstep=superstep, timing_only=timing_only, trace=trace)
        runs.append((eng, eng.run(prog)))
    return runs, None if timing_only else [collect(r.results) for _e, r in runs]


def _aligned_matrix(hybrid_ps=(32, 256)):
    """Every ``cannon_kernel`` caller (the DNS and 3DD hybrids at
    ``hybrid_ps``) x port model x routing mode x ``t_c``."""
    sizes = {
        "cannon": (16, 64, 256), "torus_cannon": (16, 64, 256),
        "berntsen": (8, 64), "dns_cannon": hybrid_ps, "3dd_cannon": hybrid_ps,
    }
    for key, ps in sizes.items():
        for p, port, routing, t_c in itertools.product(
            ps, PortModel, RoutingMode, (0.0, 0.5)
        ):
            yield pytest.param(
                key, p, port, routing, t_c,
                id=f"{key}-p{p}-{port.name}-{routing.name}-tc{t_c}",
            )


class TestAlignedPhase:
    """The hop table against the generator loops (``superstep=False``):
    every caller of ``cannon_kernel`` x port model x routing mode x
    ``t_c``, resource by resource and bitwise ``C``."""

    @pytest.mark.parametrize("key, p, port, routing, t_c", _aligned_matrix())
    def test_same_machine_as_the_generator_loops(self, key, p, port, routing, t_c):
        (fast, slow), products = _kernel_engines(key, p, port, routing, t_c)
        _assert_same_machine(fast, slow, blocks=False)
        assert np.array_equal(*products)
        refusals = fast[1].closed_form_refusals
        if routing is RoutingMode.CUT_THROUGH:
            # the alignment is issued at once; its rounds still park (and
            # a hybrid's lift: see TestLiftedPairs)
            assert refusals["aligned shift: cut-through routing"] == p
            if key in ("dns_cannon", "3dd_cannon"):
                assert refusals["lifted pair: cut-through routing"] == p
        else:
            assert refusals == {}
            assert fast[1].shift_rounds_event == 0
            if key in ("cannon", "torus_cannon"):  # a start, a resume
                assert fast[1].events_processed == 2 * p

    def test_foreign_hop_on_a_round_channel_before_the_first_multiply(self):
        """One port, ``t_c = 1``: the foreign 0 -> 10 message crosses
        one of rank 2's round channels at t = 18: after rank 2 parked before
        its alignment at 0, before its first round could send (0 + 24).  The
        node's port is the resource that counts: rank 2's alignment
        injects through it from 0 on, so the hop releases the park."""
        fast, slow = _engines(
            _aligned_program((0, 10, 1, 8.0)), 16,
            t_c=1.0, port_model=PortModel.ONE_PORT,
        )
        _assert_same_kernel_run(fast, slow)

    def test_timing_only_at_p1024(self):
        (fast, slow), _ = _kernel_engines(
            "cannon", 1024, PortModel.ONE_PORT, RoutingMode.STORE_AND_FORWARD,
            0.5, timing_only=True,
        )
        _assert_same_machine(fast, slow, blocks=False)
        assert fast[1].events_processed == 2 * 1024
        assert _rounds(fast[1]) == (0, 1024 * 32)

    def test_released_alignment_is_engine_run(self):
        """A foreign message in flight when every rank has parked: the
        table refuses, and the alignment is issued at its park times."""
        fast, slow = _engines(
            _aligned_program((10, 33, 2, 39.0)), 64, port_model=PortModel.ONE_PORT
        )
        _assert_same_kernel_run(fast, slow)
        assert fast[1].closed_form_refusals == {
            "aligned shift: ranks outside the phase, or traffic in flight": 39,
            "foreign hop at a parked rank's resources": 120,
        }

    @staticmethod
    def _phase(steps, a_mask=1, b_mask=2, align=True, shape=(2, 2)):
        """``_shift_program``'s phase on p = 4, its alignment a self-send
        (``align``: of the ranks it names, or all)."""

        def prog(ctx):
            r = ctx.rank
            aligned = align(r) if callable(align) else align
            rng = np.random.default_rng(r)
            return (yield from ctx.shift_phase(
                steps=steps(r) if callable(steps) else steps,
                a_to=r ^ a_mask, a_from=r ^ a_mask,
                b_to=r ^ b_mask, b_from=r ^ b_mask,
                a_block=rng.standard_normal(shape),
                b_block=rng.standard_normal(shape[::-1]), tag_a=1, tag_b=2,
                align=(r, r, r, r) if aligned else None,
            ))

        return prog

    @pytest.mark.parametrize("prog, cfg_kw, reason", [
        (_phase(3, align=lambda r: r % 2 == 0), {},
         "aligned shift: ranks differ in alignment, steps, tags or blocks"),
        (_phase(lambda r: 2 + r // 2, b_mask=1), {},
         "aligned shift: ranks differ in alignment, steps, tags or blocks"),
        (_phase(3, b_mask=1), {},
         "aligned shift: shifts are not matched permutations on two tags"),
        (_phase(3, shape=(2, 0)), {"t_s": 0.0},
         "aligned shift: zero-length hop"),
    ], ids=["beside-unaligned", "steps-differ", "not-permutations", "zero-hop"])
    def test_refusals_are_named_and_exact(self, prog, cfg_kw, reason):
        fast, slow = _engines(prog, 4, **cfg_kw)
        _assert_same_machine(fast, slow)
        assert fast[1].closed_form_refusals[reason] == 4


#: how a release of traced parks is counted, and the reason a traced run's
#: other phases are refused at declaration
_WINDOW = "per-hop tracing: traffic beside a parked phase"
_TRACED = "per-hop tracing"


def _assert_same_trace(runs, products=None):
    """``_assert_same_machine`` with the hop and compute records line by
    line, every rank's phase marks and ``C`` byte for byte (``products``:
    each path's)."""
    fast, slow = runs[0][1], runs[1][1]
    assert fast.trace_lines() == slow.trace_lines()
    assert runs[0][0]._phase_marks == runs[1][0]._phase_marks
    _assert_same_machine(*runs, blocks=False)
    if products is not None:
        assert products[0].tobytes() == products[1].tobytes()
    assert sum(fast.closed_form_refusals.values()) == (
        fast.shift_rounds_event + fast.collective_phases_event
    )


class TestTracedTable:
    """Traced runs park ``cannon_kernel``'s aligned shift phase and run it
    through the hop table, emitting each hop and compute record where the
    event path appends it; from the first rank that leaves the phase on,
    the table's events run on the event queue.  Every case is the traced
    ``superstep=False`` run, record for record."""

    @pytest.mark.parametrize("key, p, port, routing, t_c", _aligned_matrix((32, 128)))
    def test_same_trace_as_the_generator_loops(self, key, p, port, routing, t_c):
        runs, products = _kernel_engines(
            key, p, port, routing, t_c, n=32 if p == 128 else None, trace=True
        )
        _assert_same_trace(runs, products)
        # (superstep=False runs every rank-round of every phase by events)
        result, rank_rounds = runs[0][1], runs[1][1].shift_rounds_event
        refusals = dict(result.closed_form_refusals)
        if routing is RoutingMode.CUT_THROUGH:
            # no table plans cut-through hops: refused when declared
            assert _WINDOW not in refusals and result.shift_rounds_closed_form == 0
            return
        if key in ("dns_cannon", "3dd_cannon") and (
            key == "dns_cannon" or port is PortModel.MULTI_PORT
        ):
            # the collectives before the kernel (refused when declared) are
            # still moving when the first ranks park: the window releases them
            assert refusals.pop(_WINDOW) == result.shift_rounds_event == rank_rounds
        else:  # batched: every multiply in the table
            assert _rounds(result) == (0, rank_rounds)
        # what else a traced run refuses: collectives, at declaration
        assert set(refusals) <= {_TRACED}
        if key in ("cannon", "torus_cannon"):
            assert refusals == {}

    def test_benchmark_unit_batches(self):
        """n = 64, p = 256, one port, ``t_s = 150, t_w = 3``: the event
        path's 21 759 events are the table's tail, 766 of them."""
        rng = np.random.default_rng(3)
        A, B = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        runs = [
            get_algorithm("cannon").run(
                A, B, MachineConfig.create(256, t_s=150.0, t_w=3.0, t_c=0.0),
                trace=True, superstep=superstep,
            )
            for superstep in (True, False)
        ]
        fast, slow = (run.result for run in runs)
        assert fast.trace_lines() == slow.trace_lines()
        assert runs[0].C.tobytes() == runs[1].C.tobytes()
        assert fast.closed_form_refusals == {}
        assert _rounds(fast) == (0, 256 * 16)
        assert (fast.events_processed, slow.events_processed) == (766, 21_759)

    def test_lifted_benchmark_unit_batches(self):
        """3DD, n = 64, p = 512, one port, ``t_s = 150, t_w = 3``: the
        lifted pair runs through the table; only the reduce, refused when
        it is declared, runs by events."""
        rng = np.random.default_rng(3)
        A, B = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        runs = [
            get_algorithm("3dd").run(
                A, B, MachineConfig.create(512, t_s=150.0, t_w=3.0, t_c=0.0),
                trace=True, superstep=superstep,
            )
            for superstep in (True, False)
        ]
        fast, slow = (run.result for run in runs)
        assert fast.trace_lines() == slow.trace_lines()
        assert runs[0].C.tobytes() == runs[1].C.tobytes()
        assert fast.closed_form_refusals == {_TRACED: 512}
        assert fast.collective_phases_closed_form == 512
        assert (fast.events_processed, slow.events_processed) == (3_831, 7_696)

    def test_a_resume_on_the_tail_releases_a_window_before_it_sends(self):
        """p = 8, multi-port: ranks 4 and 3 lift a block each, then every
        rank runs an aligned kernel.  A rank that leaves the pair early
        parks its kernel in a tracing window; a sub-task resumed on the
        table's tail at that very time sends next, and the table releases
        the window before the message takes its id."""
        sends = {4: [(3, np.ones(1), 9)], 3: [(2, np.ones(3), 9)]}
        recvs = {3: [(4, 9, 0)], 2: [(3, 9, 1)]}
        pair = TestLiftedPairs._pair(sends=lambda r: sends.get(r, ()),
                                     recvs=lambda r: recvs.get(r, ()))

        def prog(ctx):
            values, _now = yield from pair(ctx)
            yield from TestAlignedPhase._phase(2)(ctx)
            return values, ctx.now

        runs = _engines(prog, 8, trace=True, t_s=2.0, t_w=2.0, t_c=0.0,
                        port_model=PortModel.MULTI_PORT)
        _assert_same_trace(runs)
        TestLiftedPairs._assert_same_values(*runs)
        assert runs[0][1].closed_form_refusals == {_WINDOW: 2 * 8}
        assert runs[0][1].collective_phases_closed_form == 8

    @pytest.mark.parametrize("port", PortModel, ids=lambda port: port.name)
    @pytest.mark.parametrize("key, p", [("cannon", 64), ("cannon", 256), ("berntsen", 64)])
    def test_a_rank_that_left_moves_among_the_tail(self, key, p, port):
        """After the kernel each rank computes a while and exchanges with
        its farthest node: those hops contend with the table's tail, the
        rounds of ranks still in the phase."""

        def then(ctx):
            yield from ctx.elapse(2.0 * (ctx.rank % 3))
            yield from ctx.exchange(ctx.rank ^ (p - 1), np.ones(3), tag=77)

        runs, products = _kernel_engines(
            key, p, port, RoutingMode.STORE_AND_FORWARD, 0.5, trace=True, then=then
        )
        _assert_same_trace(runs, products)
        assert runs[0][1].shift_rounds_event == 0

    @pytest.mark.parametrize("port", PortModel, ids=lambda port: port.name)
    @pytest.mark.parametrize("key", ["cannon", "berntsen"])
    def test_timing_only(self, key, port):
        runs, _ = _kernel_engines(
            key, 64, port, RoutingMode.STORE_AND_FORWARD, 0.5, timing_only=True, trace=True
        )
        _assert_same_trace(runs)
        assert runs[0][1].shift_rounds_event == 0


def _lifted_matrix():
    for trace, key, p, port, routing, t_c in itertools.product(
        (False, True), ("3dd", "dns"), (8, 64, 512), PortModel, RoutingMode, (0.0, 0.5)
    ):
        yield pytest.param(
            key, p, port, routing, t_c, trace,
            id=f"{key}-p{p}-{port.name}-{routing.name}-tc{t_c}" + "-traced" * trace,
        )


class TestLiftedPairs:
    """The hop table's lifted pairs (3DD's and DNS's phase-1 lift with the
    broadcast pair it feeds) against the generator loops, n = 16, resource
    by resource, phase marks and bitwise ``C`` — traced too, record by
    record.  3DD-Cannon and DNS-Cannon run in ``TestAlignedPhase``'s and
    ``TestTracedTable``'s matrices, whose store-and-forward runs batch
    their pairs too."""

    @pytest.mark.parametrize("key, p, port, routing, t_c, trace", _lifted_matrix())
    def test_same_machine_as_the_generator_loops(self, key, p, port, routing, t_c, trace):
        runs, products = _kernel_engines(key, p, port, routing, t_c, n=16, trace=trace)
        if trace:
            _assert_same_trace(runs, products)
        else:
            _assert_same_machine(*runs, blocks=False)
            assert np.array_equal(*products)
        result = runs[0][1]
        if routing is RoutingMode.STORE_AND_FORWARD:
            # traced: the reduce is refused when it is declared
            assert result.closed_form_refusals == ({_TRACED: p} if trace else {})
            assert result.collective_phases_event == p * trace
            assert result.collective_phases_closed_form == (2 - trace) * p  # pair, reduce
        elif trace:
            # refused when declared: the pair's second declaration, its
            # two sub-tasks' collectives and the reduce
            assert result.closed_form_refusals == {_TRACED: 4 * p}
        else:
            # No table plans cut-through hops: the lift runs on the event
            # path and the pair is declared again — on one port refused
            # too (the lift's forwarders may still hold its ports).
            expected = {"lifted pair: cut-through routing": p}
            if port is PortModel.ONE_PORT:
                expected["ctx.parallel sub-task"] = 2 * p
            assert result.closed_form_refusals == expected

    def test_a_foreign_hop_releases_the_lift(self):
        """Ranks 2 -> 5 exchange a message while the others park before
        their lifts: its hop crosses a parked rank's port, the parked lifts
        are released at their park times, and each released pair's second
        declaration is refused by name (its lift ran on the event path)."""
        (fast, slow), products = _kernel_engines(
            "dns", 8, PortModel.ONE_PORT, RoutingMode.STORE_AND_FORWARD, 0.5,
            n=8, foreign=(2, 5, 1, 3.0),
        )
        _assert_same_machine(fast, slow, blocks=False)
        assert np.array_equal(*products)
        refusals = fast[1].closed_form_refusals
        assert refusals["foreign hop at a parked rank's resources"] > 0
        assert refusals["lifted pair: lift run by events"] == 8

    @staticmethod
    def _pair(kind="broadcast", sends=None, recvs=None, lifted=lambda r: True):
        """A lifted pair on p = 8, slot 0 over dimension 0 and slot 1 over
        dimensions 1 and 2, its lift ``sends(r)`` / ``recvs(r)``."""

        def prog(ctx):
            r = ctx.rank
            comms = Comm(ctx, [r & ~1, r | 1]), Comm(ctx, [(r & 1) | k << 1 for k in range(4)])
            block = np.full(3, float(r))
            calls = [
                broadcast_call(comm, block, root=0, tag=tag) if kind == "broadcast"
                else allgather_call(comm, block, tag=tag)
                for comm, tag in zip(comms, (3, 4))
            ]
            lift = Lift(tuple(sends(r)) if sends else (), tuple(recvs(r)) if recvs else ())
            values = yield from parallel_pair(ctx, *calls, lift=lift if lifted(r) else None)
            return [np.hstack(v) for v in values], ctx.now

        return prog

    @pytest.mark.parametrize(
        "port", list(PortModel), ids=[m.name for m in PortModel]
    )
    def test_a_lift_on_the_pairs_channels_is_replayed_with_it(self, port):
        """Rank 0 lifts a block to rank 1, across the dimension its slot-0
        broadcast crosses too, and rank 1 broadcasts it in slot 1: the
        table replays lift and pair together on both port models (3DD's
        and DNS's multi-port lifts use no channel of their pair, whose
        rounds then fold from the frontier the lift leaves)."""
        prog = self._pair(sends=lambda r: [(1, np.ones(3), 9)] * (r == 0),
                          recvs=lambda r: [(0, 9, 1)] * (r == 1))
        fast, slow = _engines(prog, 8, port_model=port)
        _assert_same_machine(fast, slow, blocks=False)
        for rank, (values, now) in slow[1].results.items():
            got, at = fast[1].results[rank]
            assert at == now and all(map(np.array_equal, got, values))
        assert fast[1].closed_form_refusals == {}
        assert fast[1].collective_phases_closed_form == 8

    _REFUSED = [
        pytest.param(
            _pair("allgather", lambda r: [(7, np.ones(2), 9)] * (r == 0),
                  lambda r: [(0, 9, 0)] * (r == 7)),
            "lifted pair: not a broadcast pair", id="allgather-pair"),
        pytest.param(
            _pair(sends=lambda r: [(7, np.ones(2), 9)] * (r == 0)),
            "lifted pair: a lift send no receive matches, or a repeated one",
            id="unreceived-send"),
        pytest.param(
            _pair(sends=lambda r: [(7, np.ones(2), 9)] * 2 * (r == 0),
                  recvs=lambda r: [(0, 9, 1)] * 2 * (r == 7)),
            "lifted pair: a lift send no receive matches, or a repeated one",
            id="repeated-send"),
        pytest.param(
            _pair(sends=lambda r: [(1, np.ones(2), (3 << 6) | 0)] * (r == 0),
                  recvs=lambda r: [(0, (3 << 6) | 0, 1)] * (r == 1)),
            "lifted pair: a repeated (source, destination, tag)", id="lift-tag-of-the-pair"),
        pytest.param(
            _pair(lifted=lambda r: r % 2 == 0), "lifted pair beside another phase",
            id="beside-a-plain-pair"),
    ]

    @staticmethod
    def _assert_same_values(fast, slow):
        for rank, (values, now) in slow[1].results.items():
            got, at = fast[1].results[rank]
            assert at == now and all(map(np.array_equal, got, values))

    @pytest.mark.parametrize("prog, reason", _REFUSED)
    def test_refusals_are_named_and_exact(self, prog, reason):
        """A lift the table cannot state is refused by name, every parked
        rank is released, and the event path runs it: the same machine."""
        fast, slow = _engines(prog, 8, port_model=PortModel.ONE_PORT)
        _assert_same_machine(fast, slow, blocks=False)
        self._assert_same_values(fast, slow)
        assert fast[1].closed_form_refusals[reason] == 8

    @pytest.mark.parametrize("prog, reason", _REFUSED)
    def test_traced_refusals_come_before_any_record(self, prog, reason, monkeypatch):
        """Traced, the table decides each refusal before it emits a record
        (the trace is as the planner found it) and the event path runs the
        pair, record for record.  A plain pair is refused when it is
        declared: its sub-tasks' first moves release rank 0's window
        instead, and the later lifted ranks run theirs on the event path."""
        seen = []  # per planned phase: (its refusal, records before, after)
        plan = engine_mod.try_advance_collective

        def spy(engine, parked):
            before = len(engine.trace)
            outcome = plan(engine, parked)
            seen.append((outcome if outcome.__class__ is str else None, before,
                         len(engine.trace)))
            return outcome

        monkeypatch.setattr(engine_mod, "try_advance_collective", spy)
        runs = _engines(prog, 8, trace=True, port_model=PortModel.ONE_PORT)
        _assert_same_trace(runs)
        self._assert_same_values(*runs)
        refusals = runs[0][1].closed_form_refusals
        if reason == "lifted pair beside another phase":
            assert seen == [] and refusals[_WINDOW] == 1
        else:
            assert seen == [(reason, 0, 0)] and refusals[reason] == 8


def _grouped_matrix():
    # n = 40 at p = 64: five block columns split 2/2/1 over the three groups
    for (p, n), port, routing, t_c in itertools.product(
        ((4, 8), (16, 16), (64, 40), (256, 64)), PortModel, RoutingMode, (0.0, 0.5)
    ):
        yield pytest.param(
            p, n, port, routing, t_c,
            id=f"hje-p{p}-n{n}-{port.name}-{routing.name}-tc{t_c}",
        )


class TestGroupedPhase:
    """HJE declares its XOR alignment and Gray-code rounds once, as a
    grouped shift phase: against the generator loops, resource by resource,
    phase marks and bitwise ``C``, on every port model and routing mode
    (every move is one hop, so cut-through changes nothing)."""

    @pytest.mark.parametrize("p, n, port, routing, t_c", _grouped_matrix())
    def test_same_machine_as_the_generator_loops(self, p, n, port, routing, t_c):
        (fast, slow), products = _kernel_engines("hje", p, port, routing, t_c, n=n)
        _assert_same_machine(fast, slow, blocks=False)
        assert products[0].tobytes() == products[1].tobytes()
        result = fast[1]
        assert result.closed_form_refusals == {}
        assert _rounds(result) == (0, p * int(round(p ** 0.5)))
        assert result.collective_phases_event == result.collective_phases_closed_form == 0
        assert result.events_processed == 2 * p  # a start, a resume

    def test_a_foreign_hop_hands_the_phase_back(self, monkeypatch):
        """Rank 5 sends rank 10 two messages across ranks parked in the
        phase: the release answers them FALLBACK, and their loops run all
        of their rounds on today's path (each multiply step a neighbour
        exchange, which the engine issues message by message)."""
        engines = _exchange_round_engines(monkeypatch)
        (fast, slow), products = _kernel_engines(
            "hje", 16, PortModel.MULTI_PORT, RoutingMode.STORE_AND_FORWARD, 0.5,
            n=16, foreign=(5, 10, 2, 9.0),
        )
        _assert_same_machine(fast, slow, blocks=False)
        assert np.array_equal(*products)
        result = fast[1]
        released = result.closed_form_refusals["foreign hop at a parked rank's resources"]
        assert released > 0 and released % 4 == 0  # all four rounds of a rank
        assert sum(result.closed_form_refusals.values()) == result.shift_rounds_event
        # the loops' exchanges: engine-issued, and no collective phase
        assert engines == {slow[0]}
        assert result.collective_phases_event == result.collective_phases_closed_form == 0

    @staticmethod
    def _phase(tags=(5, 6), phase=lambda r: "rounds", mail=False):
        """A grouped phase on p = 4 with one block pair: A swaps across
        dimension 0 first, then rounds cross dimensions (0, 1) and (1, 0);
        ``mail``: rank 1 leaves rank 0 a message it reads afterwards,
        delivered before rank 0 enters the phase."""

        def prog(ctx):
            r = ctx.rank
            if mail and r == 1:
                yield from ctx.send(0, np.ones(1), tag=99)
            if mail and r == 0:
                yield from ctx.elapse(50.0)
            rng = np.random.default_rng(r)
            out = yield from ctx.shift_phase(
                steps=3, a_block=rng.standard_normal((2, 3)),
                b_block=rng.standard_normal((3, 2)), tag_a=1, tag_b=2,
                dims=((0, 1), (1, 0)), tags=tags, swaps=((0, None),), phase=phase(r),
            )
            if mail and r == 0:
                yield from ctx.recv(1, tag=99)
            return out[2]

        return prog

    @pytest.mark.parametrize("prog, reason", [
        (_phase(), None),
        (_phase(tags=(5, 5)), "grouped shift: rounds are not exchanges on distinct tags"),
        (_phase(phase=lambda r: "rounds" if r else "first"),
         "grouped shift: ranks differ in steps, rounds, tags or blocks"),
        # (the message stays queued through the loop's two exchange rounds,
        # which the engine issues: no phase, so nothing more is refused)
        (_phase(mail=True), "grouped shift: ranks outside the phase, or traffic in flight"),
    ], ids=["batched", "repeated-tag", "phase-differs", "traffic-in-flight"])
    def test_refusals_are_named_and_exact(self, prog, reason):
        """What the planner cannot state hands every rank's whole phase back
        to its loop, counted per rank-round; the same machine either way."""
        fast, slow = _engines(prog, 4, port_model=PortModel.ONE_PORT)
        _assert_same_kernel_run(fast, slow)
        expected = {} if reason is None else {reason: 4 * 3}
        assert fast[1].closed_form_refusals == expected
        assert _rounds(fast[1]) == ((0, 12) if reason is None else (12, 0))


def _exchange_round_engines(monkeypatch) -> set:
    """The engines on which a program runs ``exchange_round`` from now on."""
    engines = set()
    loop = process_mod.exchange_round

    def spy(ctx, sends, recvs):
        engines.add(ctx.engine)
        return loop(ctx, sends, recvs)

    monkeypatch.setattr(process_mod, "exchange_round", spy)
    return engines


def _broadcast_matrix():
    for (p, n), port, routing, t_c in itertools.product(
        ((4, 8), (16, 16), (64, 24), (256, 32)), PortModel, RoutingMode, (0.0, 0.5)
    ):
        yield pytest.param(
            p, n, port, routing, t_c,
            id=f"fox-p{p}-n{n}-{port.name}-{routing.name}-tc{t_c}",
        )


class TestBroadcastPhase:
    """Fox declares its broadcast-multiply-roll stages once, as a broadcast
    shift phase: on default knobs the closed form answers it on every port
    model and routing mode (every move is one hop), against the generator
    loops resource by resource, phase marks and bitwise ``C``."""

    @pytest.mark.parametrize("p, n, port, routing, t_c", _broadcast_matrix())
    def test_default_knobs_answer_in_closed_form(self, p, n, port, routing, t_c):
        (fast, slow), products = _kernel_engines("fox", p, port, routing, t_c, n=n)
        _assert_same_machine(fast, slow, blocks=False)
        assert products[0].tobytes() == products[1].tobytes()
        result = fast[1]
        assert result.closed_form_refusals == {}
        assert _rounds(result) == (0, p * int(round(p ** 0.5)))
        assert result.collective_phases_event == result.collective_phases_closed_form == 0
        assert result.events_processed == 2 * p  # a start, a resume

    @staticmethod
    def _phase(members=lambda r: (r & 2, r & 2 | 1), a_rows=lambda r: 2,
               b_to=lambda r: r ^ 2):
        """A broadcast phase on p = 4: rows {0, 1} and {2, 3} (dimension
        0) broadcasting from nodes 0, 1 and 3, 2, B rolled across
        dimension 1; ``members``: a rank's row in its own order."""

        def prog(ctx):
            r = ctx.rank
            rng = np.random.default_rng(r)
            row = Comm(ctx, members(r))
            out = yield from ctx.shift_phase(
                steps=2, a_block=rng.standard_normal((a_rows(r // 2), 3)),
                b_block=rng.standard_normal((3, 2)), tag_a=1, tag_b=2,
                b_to=b_to(r), b_from=b_to(r), row=row,
                roots=tuple(row.comm_rank_of(node) for node in ((0, 1), (3, 2))[r // 2]),
            )
            return out[2]

        return prog

    @pytest.mark.parametrize("prog, reason, collectives", [
        (_phase(), None, {}),
        (_phase(a_rows=lambda i: 2 + i),
         "broadcast shift: ranks differ in steps, tags, rows or blocks", {}),
        # (the same row and roots, in another order: the loops agree, and
        # each broadcast they declare is refused alike)
        (_phase(members=lambda r: (r & 2, r & 2 | 1) if r & 1 else (r & 2 | 1, r & 2)),
         "broadcast shift: a row is not a subcube its members declare alike",
         {"malformed phase": 4 * 2}),
        (_phase(b_to=lambda r: r ^ 1),
         "broadcast shift: the roll is not a neighbour permutation across rows", {}),
    ], ids=["batched", "blocks-differ", "row-order-differs", "roll-within-a-row"])
    def test_refusals_are_named_and_exact(self, prog, reason, collectives, monkeypatch):
        """What the planner cannot state hands every rank's whole phase back
        to its loop, counted per rank-stage (the loop's broadcasts are then
        declared, and batched, one by one; the engine issues its rolls);
        the same machine either way."""
        engines = _exchange_round_engines(monkeypatch)
        fast, slow = _engines(prog, 4, port_model=PortModel.ONE_PORT)
        _assert_same_machine(fast, slow, blocks=False)
        for rank, c in slow[1].results.items():
            assert np.array_equal(fast[1].results[rank], c)
        result = fast[1]
        assert result.closed_form_refusals == (
            {} if reason is None else {reason: 4 * 2, **collectives}
        )
        assert _rounds(result) == ((0, 8) if reason is None else (8, 0))
        assert sum(result.closed_form_refusals.values()) == (
            result.shift_rounds_event + result.collective_phases_event
        )
        # the loops' rolls: engine-issued, and no collective phase (one per
        # rank-stage: the broadcast)
        assert engines == {slow[0]}
        assert result.collective_phases_event + result.collective_phases_closed_form == (
            0 if reason is None else 4 * 2
        )


#: Fuzz cases that hit ROADMAP item 2's (time, seq) tie: the torus and
#: Cannon ones also wrong before the alignment joined the shift phase.  A
#: hazard release at time t puts the parked ranks back on the event path at
#: their earlier park times, and their events at exactly t sort after the
#: foreign events already queued there; or a foreign hop is ready exactly
#: when a parked rank's next round sends (its threshold, so no release),
#: and only the order in which the two were scheduled says which goes
#: first.  Pinned until the engine orders by that key.
_TIE = "(time, seq) tie at a hazard release"
_AT = "(time, seq) tie at a hazard threshold"
_TIED = {
    "torus-p16-(6, 8, 4, 39.0)-tc0.5-MULTI_PORT": _TIE,
    "cannon-p16-(14, 13, 3, 22.0)-tc1.0-ONE_PORT": _TIE,
    "torus-p16-(6, 1, 1, 29.0)-tc0.5-MULTI_PORT": _AT,  # 5 -> 1 at 49
    "torus-p16-(3, 14, 2, 39.0)-tc1.0-ONE_PORT": _AT,  # 2 -> 6 at 98
}


def _fuzz_cases():
    """Seeded programs: a foreign message stream (random src != dst, 1-4
    messages, gap 3-40) before a shift phase — 300 staggered-torus phases
    on p = 16 and 100 aligned Cannon kernels on p = 16 or 64 — at ``t_c``
    in {0, 0.25, 0.5, 1}, on both port models."""
    rng = random.Random(18)
    for i in range(400):
        torus = i < 300
        p = 16 if torus else rng.choice((16, 64))
        src = rng.randrange(p)
        dst = rng.randrange(p - 1)
        dst += dst >= src
        foreign = (src, dst, rng.randint(1, 4), float(rng.randint(3, 40)))
        t_c = rng.choice((0.0, 0.25, 0.5, 1.0))
        port = rng.choice(list(PortModel))
        case_id = (
            f"{'torus' if torus else 'cannon'}-p{p}-{foreign}-tc{t_c}-{port.name}"
        )
        yield pytest.param(
            torus, p, foreign, t_c, port, id=case_id,
            marks=[pytest.mark.xfail(strict=True, reason=_TIED[case_id])]
            if case_id in _TIED else [],
        )


def _lifted_fuzz_cases():
    """Seeded programs: the same foreign message stream before a 3DD or DNS
    (n = 16) on p = 8 or 64, on both port models — 100 lifted pairs parked
    beside foreign traffic."""
    rng = random.Random(30)
    for _ in range(100):
        key = rng.choice(("3dd", "dns"))
        p = rng.choice((8, 64))
        src = rng.randrange(p)
        dst = rng.randrange(p - 1)
        dst += dst >= src
        foreign = (src, dst, rng.randint(1, 4), float(rng.randint(3, 40)))
        t_c = rng.choice((0.0, 0.25, 0.5, 1.0))
        port = rng.choice(list(PortModel))
        case_id = f"{key}-p{p}-{foreign}-tc{t_c}-{port.name}"
        yield pytest.param(
            key, p, foreign, t_c, port, id=case_id,
            marks=[pytest.mark.xfail(strict=True, reason=_TIED[case_id])]
            if case_id in _TIED else [],
        )


def _grouped_fuzz_cases():
    """Seeded programs: the same foreign message stream before HJE (n = 24)
    on p = 16 or 64, on both port models — 60 grouped phases parked
    beside foreign traffic (a release hands them back to their loops)."""
    rng = random.Random(31)
    for _ in range(60):
        p = rng.choice((16, 64))
        src = rng.randrange(p)
        dst = rng.randrange(p - 1)
        dst += dst >= src
        foreign = (src, dst, rng.randint(1, 4), float(rng.randint(3, 40)))
        t_c = rng.choice((0.0, 0.25, 0.5, 1.0))
        port = rng.choice(list(PortModel))
        case_id = f"hje-p{p}-{foreign}-tc{t_c}-{port.name}"
        yield pytest.param(
            p, foreign, t_c, port, id=case_id,
            marks=[pytest.mark.xfail(strict=True, reason=_TIED[case_id])]
            if case_id in _TIED else [],
        )


def _fox_fuzz_cases():
    """Seeded programs: the same foreign message stream before Fox (n = 16)
    on p = 4, 16 or 64, on both port models at ``t_c`` in {0, 0.5} — 60
    broadcast phases parked beside foreign traffic, on staggered frontiers
    (a release hands them back to their loops)."""
    rng = random.Random(32)
    for _ in range(60):
        p = rng.choice((4, 16, 64))
        src = rng.randrange(p)
        dst = rng.randrange(p - 1)
        dst += dst >= src
        foreign = (src, dst, rng.randint(1, 4), float(rng.randint(3, 40)))
        t_c = rng.choice((0.0, 0.5))
        port = rng.choice(list(PortModel))
        case_id = f"fox-p{p}-{foreign}-tc{t_c}-{port.name}"
        yield pytest.param(
            p, foreign, t_c, port, id=case_id,
            marks=[pytest.mark.xfail(strict=True, reason=_TIED[case_id])]
            if case_id in _TIED else [],
        )


def _traced_fuzz_cases():
    """``_fuzz_cases``' 100 aligned Cannon kernels (traced: none ties)."""
    for case in _fuzz_cases():
        if not case.values[0]:
            yield pytest.param(*case.values[1:], id=case.id)


class TestFuzz:
    """Both closed forms against the generator loops on staggered
    frontiers, resource by resource."""

    @pytest.mark.parametrize("p, foreign, t_c, port", _traced_fuzz_cases())
    def test_traced_same_trace(self, p, foreign, t_c, port):
        """Traced, each foreign stream is still in flight when the first
        ranks park: the window releases them, record for record."""
        runs = _engines(_aligned_program(foreign), p, trace=True, t_c=t_c, port_model=port)
        _assert_same_trace(runs)
        _assert_same_kernel_run(*runs)
        assert _WINDOW in runs[0][1].closed_form_refusals

    @pytest.mark.parametrize("port", PortModel, ids=lambda port: port.name)
    @pytest.mark.parametrize("t_c", (0.0, 0.25, 0.5, 1.0))
    @pytest.mark.parametrize("p", (16, 64))
    def test_traced_kernels_alone_batch(self, p, t_c, port):
        runs = _engines(_aligned_program(), p, trace=True, t_c=t_c, port_model=port)
        _assert_same_trace(runs)
        _assert_same_kernel_run(*runs)
        assert runs[0][1].closed_form_refusals == {}
        assert _rounds(runs[0][1]) == (0, p * int(round(p ** 0.5)))

    @pytest.mark.parametrize("key, p, foreign, t_c, port", _lifted_fuzz_cases())
    def test_lifted_same_machine(self, key, p, foreign, t_c, port):
        (fast, slow), products = _kernel_engines(
            key, p, port, RoutingMode.STORE_AND_FORWARD, t_c, n=16, foreign=foreign
        )
        _assert_same_machine(fast, slow, blocks=False)
        assert np.array_equal(*products)

    @pytest.mark.parametrize("key, p, foreign, t_c, port", _lifted_fuzz_cases())
    def test_lifted_same_trace(self, key, p, foreign, t_c, port):
        """Traced, the foreign stream moves while the other ranks park in
        a tracing window before their lifts: it releases them, record for
        record."""
        runs, products = _kernel_engines(
            key, p, port, RoutingMode.STORE_AND_FORWARD, t_c, n=16, foreign=foreign,
            trace=True,
        )
        _assert_same_trace(runs, products)
        assert _WINDOW in runs[0][1].closed_form_refusals

    @pytest.mark.parametrize("p, foreign, t_c, port", _grouped_fuzz_cases())
    def test_grouped_same_machine(self, p, foreign, t_c, port):
        (fast, slow), products = _kernel_engines(
            "hje", p, port, RoutingMode.STORE_AND_FORWARD, t_c, n=24, foreign=foreign
        )
        _assert_same_machine(fast, slow, blocks=False)
        assert np.array_equal(*products)

    @pytest.mark.parametrize("p, foreign, t_c, port", _fox_fuzz_cases())
    def test_fox_same_machine(self, p, foreign, t_c, port):
        (fast, slow), products = _kernel_engines(
            "fox", p, port, RoutingMode.STORE_AND_FORWARD, t_c, n=16, foreign=foreign
        )
        _assert_same_machine(fast, slow, blocks=False)
        assert products[0].tobytes() == products[1].tobytes()

    @pytest.mark.parametrize("torus, p, foreign, t_c, port", _fuzz_cases())
    def test_same_machine(self, torus, p, foreign, t_c, port):
        prog = _torus_program(4, foreign) if torus else _aligned_program(foreign)
        fast, slow = _engines(prog, p, t_c=t_c, port_model=port)
        if torus:
            _assert_same_machine(fast, slow)
        else:
            _assert_same_kernel_run(fast, slow)
