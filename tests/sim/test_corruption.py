"""Tests for corruption-fault injection: flip models, link and compute
corruption in the engine, trace/gantt surfacing, and the stream-isolation
determinism guarantee."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import FaultPlan, MachineConfig, run_spmd
from repro.sim.faults import FLIP_MODELS, FaultState, LinkTimeline
from repro.sim.gantt import render_gantt


def faulty(p: int, plan: FaultPlan, **kw) -> MachineConfig:
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, faults=plan, **kw)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class TestFlipModels:
    """corrupt_payload flips exactly one bit per word, where the model says."""

    @pytest.mark.parametrize("model,lo,hi", [
        ("sign", 63, 63), ("exponent", 52, 62), ("mantissa", 0, 51),
        ("any", 0, 63),
    ])
    def test_flipped_bit_position(self, model, lo, hi):
        plan = FaultPlan(seed=3).with_link_corruption(0, 1, 1.0, model=model)
        fs = FaultState(plan)
        for _ in range(20):
            data = np.array([1.75])
            before = _bits(data[0])
            assert fs.corrupt_payload(data, model, 1) == 1
            diff = before ^ _bits(data[0])
            assert diff != 0 and diff & (diff - 1) == 0  # exactly one bit
            assert lo <= diff.bit_length() - 1 <= hi

    def test_sign_flip_negates(self):
        plan = FaultPlan(seed=0).with_link_corruption(0, 1, 1.0, model="sign")
        fs = FaultState(plan)
        data = np.array([2.5, -3.0])
        fs.corrupt_payload(data, "sign", 2)
        # two flips land somewhere in the 2-word payload; every touched
        # word only changed sign
        for v, orig in zip(data, (2.5, -3.0)):
            assert abs(v) == abs(orig)

    def test_payload_without_floats_passes_unharmed(self):
        plan = FaultPlan(seed=0).with_link_corruption(0, 1, 1.0)
        fs = FaultState(plan)
        assert fs.corrupt_payload("control", "any", 1) == 0
        assert fs.corrupt_payload({"n": 3}, "any", 1) == 0

    def test_nested_payload_leaves_are_reachable(self):
        plan = FaultPlan(seed=1).with_link_corruption(0, 1, 1.0)
        fs = FaultState(plan)
        payload = {"blk": np.ones(4), "meta": ("x", np.zeros(2))}
        flips = fs.corrupt_payload(payload, "sign", 3)
        assert flips == 3

    def test_bad_model_and_flips_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_link_corruption(0, 1, 0.5, model="parity")
        with pytest.raises(SimulationError):
            FaultPlan().with_link_corruption(0, 1, 0.5, flips=0)
        with pytest.raises(SimulationError):
            FaultPlan().with_node_corruption(2, model="burst")
        assert set(FLIP_MODELS) == {"sign", "exponent", "mantissa", "any"}


class TestLinkCorruptionInEngine:
    def test_corrupted_message_arrives_on_time_but_wrong(self):
        """The fault is silent: same arrival time as the clean run, wrong
        payload, and the corruption counter ticks."""
        plan = FaultPlan(seed=2).with_link_corruption(0, 1, 1.0, model="sign")

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(8))
            elif ctx.rank == 1:
                data = yield from ctx.recv(0)
                return (ctx.now, float(data.sum()))
            return None

        clean = run_spmd(faulty(4, FaultPlan()), prog)
        res = run_spmd(faulty(4, plan), prog)
        t_clean, sum_clean = clean.results[1]
        t_corr, sum_corr = res.results[1]
        assert t_corr == t_clean          # delivered on time
        assert sum_corr != sum_clean      # but wrong
        assert sum_corr == 6.0            # one sign flip on a payload of ones
        assert res.network.corruption_events == 1
        assert clean.network.corruption_events == 0

    def test_corruption_marks_trace(self):
        plan = FaultPlan(seed=2).with_link_corruption(0, 1, 1.0, flips=2)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(4))
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return None

        res = run_spmd(faulty(4, plan), prog, trace=True)
        marks = [r for r in res.trace if r.kind == "corrupt"]
        assert len(marks) == 1
        assert marks[0].info["where"] == "link"
        assert marks[0].info["words"] == 2

    def test_window_gates_corruption(self):
        plan = FaultPlan(seed=2).with_link_corruption(
            0, 1, 1.0, start=0.0, end=100.0
        )

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.elapse(150.0)
                yield from ctx.send(1, np.ones(4))
            elif ctx.rank == 1:
                data = yield from ctx.recv(0, timeout=1000.0)
                return float(data.sum())
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[1] == 4.0
        assert res.network.corruption_events == 0

    def test_rate_zero_never_fires(self):
        plan = FaultPlan(seed=2).with_link_corruption(0, 1, 0.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, np.ones(4))
            elif ctx.rank == 1:
                data = yield from ctx.recv(0)
                return float(data.sum())
            return None

        res = run_spmd(faulty(4, plan), prog)
        assert res.results[1] == 4.0
        assert res.network.corruption_events == 0


class TestNodeCorruptionInEngine:
    def test_compute_block_perturbed_once(self):
        """The first local_matmul at/after the fault time emits a wrong
        block; later multiplies on the same node are clean."""
        plan = FaultPlan(seed=4).with_node_corruption(0, at=0.0, model="sign")

        def prog(ctx):
            if ctx.rank != 0:
                if False:
                    yield
                return None
            first = yield from ctx.local_matmul(np.ones((2, 2)), np.ones((2, 2)))
            second = yield from ctx.local_matmul(np.ones((2, 2)), np.ones((2, 2)))
            return (float(first.sum()), float(second.sum()))

        res = run_spmd(faulty(4, plan), prog, trace=True)
        corrupted, clean = res.results[0]
        assert corrupted != 8.0  # one sign flip: 2 -> -2 somewhere
        assert clean == 8.0
        assert res.network.corruption_events == 1
        marks = [r for r in res.trace if r.kind == "corrupt"]
        assert len(marks) == 1 and marks[0].info["where"] == "compute"

    def test_fires_only_at_or_after_its_time(self):
        plan = FaultPlan(seed=4).with_node_corruption(0, at=500.0)

        def prog(ctx):
            if ctx.rank != 0:
                if False:
                    yield
                return None
            early = yield from ctx.local_matmul(np.ones((2, 2)), np.ones((2, 2)))
            yield from ctx.elapse(1000.0)
            late = yield from ctx.local_matmul(np.ones((2, 2)), np.ones((2, 2)))
            return (float(early.sum()), float(late.sum()))

        res = run_spmd(faulty(4, plan), prog)
        early, late = res.results[0]
        assert early == 8.0
        assert late != 8.0


class TestSurfacing:
    @staticmethod
    def _one_hop(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, np.ones(4))
        elif ctx.rank == 1:
            yield from ctx.recv(0)
        return None

    def test_gantt_marks_corrupted_hop(self):
        plan = FaultPlan(seed=2).with_link_corruption(0, 1, 1.0)
        res = run_spmd(faulty(4, plan), self._one_hop, trace=True)
        chart = render_gantt(res)
        assert "!" in chart
        assert "corrupted" in chart

    def test_trace_lines_report_corruption(self):
        plan = FaultPlan(seed=2).with_link_corruption(0, 1, 1.0)
        res = run_spmd(faulty(4, plan), self._one_hop, trace=True)
        assert any("corruption events=1" in ln for ln in res.trace_lines())

    def test_fault_free_surface_is_unchanged(self):
        """Golden safety: without corruption, neither the gantt legend nor
        trace_lines mention it (the committed golden digests depend on
        this)."""
        res = run_spmd(
            MachineConfig.create(4, t_s=10.0, t_w=1.0),
            self._one_hop, trace=True,
        )
        assert res.network.corruption_events == 0
        assert res.network.integrity_rejects == 0
        assert "corrupt" not in render_gantt(res)
        assert not any("corruption" in ln for ln in res.trace_lines())


class TestStreamIsolation:
    """The determinism guarantee across fault-type mixes: corruption draws
    come from their own generator and never shift the drop stream."""

    @staticmethod
    def _chatter(ctx):
        got = 0.0
        for round_ in range(3):
            for peer in (ctx.rank ^ 1, ctx.rank ^ 2):
                yield from ctx.send(peer, np.full(8, 1.0), tag=round_)
            for peer in (ctx.rank ^ 1, ctx.rank ^ 2):
                try:
                    data = yield from ctx.recv(peer, tag=round_, timeout=500.0)
                    got += float(data.sum())
                except Exception:
                    pass
        return got

    DROPS_ONLY = FaultPlan(seed=21).with_drop_rate(0.3)
    MIXED = (FaultPlan(seed=21)
             .with_drop_rate(0.3)
             .with_link_corruption(0, 1, 0.5)
             .with_node_corruption(3, at=1.0))

    def test_adding_corruption_never_changes_drop_decisions(self):
        a = run_spmd(faulty(4, self.DROPS_ONLY), self._chatter, trace=True)
        b = run_spmd(faulty(4, self.MIXED), self._chatter, trace=True)
        assert a.network.messages_dropped == b.network.messages_dropped
        drops_a = [(r.start, r.rank, r.info["msg"])
                   for r in a.trace if r.kind == "drop"]
        drops_b = [(r.start, r.rank, r.info["msg"])
                   for r in b.trace if r.kind == "drop"]
        assert drops_a == drops_b

    def test_fault_state_streams_are_independent(self):
        """Interleaving corruption rolls between drop rolls must not
        change any drop outcome."""
        plain = FaultState(self.DROPS_ONLY)
        mixed = FaultState(self.MIXED)
        tl = LinkTimeline(faulty(4, self.MIXED))
        for i in range(50):
            win = tl.at(float(i))
            assert (plain.roll_drop(win, 0, 1) == mixed.roll_drop(win, 0, 1))
            mixed.roll_corruptions(win, 0, 1)  # consumes only the crng

    def test_replay_is_bit_identical_with_corruption(self):
        cfg = faulty(4, self.MIXED)
        a = run_spmd(cfg, self._chatter, trace=True)
        b = run_spmd(cfg, self._chatter, trace=True)
        assert a.results == b.results
        assert a.trace == b.trace
        assert a.network == b.network


class TestWindowEdgeCases:
    """FaultPlan window validation for the corruption fault types."""

    def test_zero_length_window_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_link_corruption(0, 1, 0.5, start=5.0, end=5.0)

    def test_negative_window_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().with_link_corruption(0, 1, 0.5, start=-1.0)
        with pytest.raises(SimulationError):
            FaultPlan().with_link_corruption(0, 1, 0.5, start=10.0, end=4.0)
        with pytest.raises(SimulationError):
            FaultPlan().with_node_corruption(2, at=-0.5)

    def test_back_to_back_windows_leave_no_gap(self):
        """[a, b) + [b, c): every instant in [a, c) is covered by exactly
        one window — including t = b itself."""
        plan = (FaultPlan(seed=1)
                .with_link_corruption(0, 1, 1.0, start=0.0, end=100.0)
                .with_link_corruption(0, 1, 1.0, start=100.0, end=200.0))
        fs, tl = FaultState(plan), LinkTimeline(faulty(4, plan))
        first, second = plan.corruptions
        for t, want in [(0.0, first), (99.999, first), (100.0, second),
                        (199.999, second)]:
            events = fs.roll_corruptions(tl.at(t), 0, 1)
            assert events == [want], t
        assert fs.roll_corruptions(tl.at(200.0), 0, 1) == []
