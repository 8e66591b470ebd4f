"""Tests for port/link contention under both port models."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import MachineConfig, PortModel, run_spmd
from repro.sim.machine import MachineParams
from repro.sim.ports import ContentionTracker


def cfg(port, p=8):
    return MachineConfig.create(p, t_s=10.0, t_w=1.0, port_model=port)


def columns(tracker, slot):
    """``(next free, busy, reservations)`` of one tracker slot."""
    return (
        float(tracker._free[slot]),
        float(tracker._busy[slot]),
        int(tracker._nres[slot]),
    )


class TestTracker:
    def test_non_neighbor_hop_rejected(self):
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        with pytest.raises(SimulationError):
            tracker.reserve_hop(0, 3, 0.0, 1.0)

    def test_negative_duration_rejected(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        with pytest.raises(SimulationError, match="negative hold duration"):
            tracker.reserve_hop(0, 1, 0.0, -1.0)

    def test_first_touch_validates_and_caches_the_hop_slots(self):
        """``reserve_hop`` resolves a cold hop to column ids once; a
        non-link is rejected before any slot is allocated, and the cached
        ids name the very slots reserved."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        with pytest.raises(SimulationError, match="not a hypercube link"):
            tracker.reserve_hop(0, 3, 0.0, 1.0)
        with pytest.raises(SimulationError, match="not a hypercube link"):
            tracker.reserve_hop(2, 2, 0.0, 1.0)
        assert tracker.channels_used() == 0 and not tracker._hop_ids
        assert tracker.reserve_hop(0, 1, 2.0, 5.0) == 2.0
        channel, port = tracker._hop_ids[(0, 1)]
        assert channel == tracker._channel_ids[(0, 1)]
        assert columns(tracker, channel) == (7.0, 5.0, 1)
        assert port == 0 and columns(tracker, port) == (7.0, 5.0, 1)

    def test_one_port_has_send_engagement(self):
        """Node ``u``'s send port is slot ``u``: the first ``p`` slots,
        before any channel."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        tracker.reserve_hop(5, 4, 0.0, 1.0)
        assert tracker._hop_ids[(5, 4)] == (8, 5)  # channel + send port
        assert columns(tracker, 5) == (1.0, 1.0, 1)
        assert all(columns(tracker, u) == (0.0, 0.0, 0) for u in range(8) if u != 5)

    def test_multi_port_channel_only(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        tracker.reserve_hop(5, 4, 0.0, 1.0)
        assert tracker._hop_ids[(5, 4)] == (0,)

    def test_joint_reservation_takes_max(self):
        """A one-port hop starts when its channel *and* the sender's port
        are both free, then holds both."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        tracker.reserve_hop(0, 1, 0.0, 7.0)  # port 0 busy until 7
        assert tracker.reserve_hop(0, 2, 2.0, 3.0) == 7.0  # idle channel
        assert columns(tracker, tracker._channel_ids[(0, 2)]) == (10.0, 3.0, 1)
        assert columns(tracker, 0) == (10.0, 10.0, 2)
        assert tracker.reserve_hop(1, 0, 2.0, 3.0) == 2.0  # full duplex

    def test_channel_utilization(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        tracker.reserve_hop(0, 1, 0.0, 10.0)
        assert tracker.channels_used() == 1
        assert tracker.max_channel_busy() == 10.0
        assert tracker.total_channel_busy() == 10.0


class TestAggregationEdgeCases:
    """Channel free-time/busy-time aggregation over the SoA columns."""

    def test_non_dyadic_durations_aggregate_exactly(self):
        """Sums over non-dyadic durations must match the sequential
        sorted-key fold bit-for-bit (float addition is order-sensitive)."""
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        durations = {(0, 1): 10.0 / 3.0, (1, 0): 0.7, (0, 2): 0.1}
        for (u, v), d in durations.items():
            tracker.reserve_hop(u, v, 0.0, d)
        expected = 0.0
        for key in sorted(durations):
            expected += durations[key]
        assert tracker.total_channel_busy() == expected
        assert tracker.max_channel_busy() == 10.0 / 3.0
        assert tracker._busy[tracker._channel_ids[(1, 0)]] == 0.7

    def test_total_is_the_sorted_key_fold_whatever_the_creation_order(self):
        """Every channel of a 5-cube, created in a shuffled order, each
        holding a sum of non-dyadic durations: the total is bit for bit
        the sequential fold in channel-key order (the definition), and
        the same whichever order created the channels."""
        rng = np.random.default_rng(7)
        hops = [(u, u ^ (1 << d)) for u in range(32) for d in range(5)]
        durations = {hop: rng.uniform(0.1, 3.0, size=3) / 7.0 for hop in hops}
        totals = []
        for _ in range(3):
            tracker = ContentionTracker(cfg(PortModel.MULTI_PORT, p=32))
            for i in rng.permutation(len(hops)):
                u, v = hops[i]
                for d in durations[u, v]:
                    tracker.reserve_hop(u, v, 0.0, float(d))
            busy = tracker._busy
            ids = tracker._channel_ids
            expected = float(sum(busy[ids[k]] for k in sorted(ids)))
            assert tracker.total_channel_busy() == expected
            totals.append(tracker.total_channel_busy())
        assert totals[0] == totals[1] == totals[2]

    def test_simultaneous_reservations_at_equal_timestamps(self):
        """Distinct channels reserved at the same instant all start then;
        a back-to-back reservation starting exactly at the free time is
        FIFO, not a double-booking."""
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        starts = [tracker.reserve_hop(0, 1 << d, 5.0, 2.0) for d in range(3)]
        assert starts == [5.0, 5.0, 5.0]
        # exactly at the free boundary: allowed, extends the same channel
        assert tracker.reserve_hop(0, 1, 7.0, 1.0) == 7.0
        assert columns(tracker, tracker._channel_ids[(0, 1)]) == (8.0, 3.0, 2)

    def test_equal_busy_ties_in_max(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        tracker.reserve_hop(0, 1, 0.0, 4.0)
        tracker.reserve_hop(2, 3, 1.0, 4.0)
        assert tracker.max_channel_busy() == 4.0

    def test_zero_horizon_and_empty_tracker(self):
        tracker = ContentionTracker(cfg(PortModel.MULTI_PORT))
        assert tracker.total_channel_busy() == 0.0
        assert tracker.max_channel_busy() == 0.0
        assert tracker.channels_used() == 0
        tracker.reserve_hop(0, 1, 0.0, 0.0)
        assert tracker.channels_used() == 1
        assert tracker.total_channel_busy() == tracker.max_channel_busy() == 0.0

    def test_slots_stay_valid_across_column_growth(self):
        """Cached hop ids are column indices, so growing the columns
        must keep every slot's state and id."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        tracker.reserve_hop(0, 1, 0.0, 3.0)
        ids = tracker._hop_ids[(0, 1)]
        cap = len(tracker._free)
        while tracker._n < cap + 2:  # force at least one _grow()
            tracker._alloc()
        assert len(tracker._free) > cap
        assert [columns(tracker, i) for i in ids] == [(3.0, 3.0, 1)] * 2
        assert tracker.reserve_hop(0, 1, 0.0, 1.0) == 3.0
        assert tracker._hop_ids[(0, 1)] == ids
        assert tracker.total_channel_busy() == 4.0

    def test_one_port_send_port_aggregation_excluded_from_channels(self):
        """Send-port slots share the columns but never leak into channel
        statistics."""
        tracker = ContentionTracker(cfg(PortModel.ONE_PORT))
        tracker.reserve_hop(0, 1, 0.0, 6.0)  # holds channel AND send port
        tracker.reserve_hop(2, 3, 0.0, 9.0)
        assert tracker.total_channel_busy() == 15.0
        assert tracker.max_channel_busy() == 9.0
        assert tracker.channels_used() == 2


class TestOnePortSerialization:
    def test_two_sends_serialize(self):
        def prog(ctx):
            if ctx.rank == 0:
                h1 = yield from ctx.isend(1, np.ones(5))
                h2 = yield from ctx.isend(2, np.ones(5))
                yield from ctx.waitall([h1, h2])
                return ctx.now
            if ctx.rank in (1, 2):
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.ONE_PORT), prog)
        assert res.results[0] == pytest.approx(30.0)

    def test_send_and_recv_concurrent(self):
        """Full duplex: simultaneous send and receive on one-port."""

        def prog(ctx):
            if ctx.rank in (0, 1):
                got = yield from ctx.exchange(1 - ctx.rank, np.ones(5))
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.ONE_PORT), prog)
        assert res.results[0] == pytest.approx(15.0)

    def test_forwarding_contends_with_own_sends(self):
        """A node forwarding a multi-hop message delays its own sends."""

        def prog(ctx):
            # 0 sends to 3 via 1 (e-cube: 0 -> 1 -> 3); node 1 also sends to 5.
            if ctx.rank == 0:
                yield from ctx.send(3, np.ones(5))
            elif ctx.rank == 1:
                yield from ctx.elapse(16.0)  # let the forward start first
                yield from ctx.send(5, np.ones(5))
                return ctx.now
            elif ctx.rank == 3:
                yield from ctx.recv(0)
            elif ctx.rank == 5:
                yield from ctx.recv(1)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.ONE_PORT), prog)
        # forward occupies node 1's port [15, 30]; its own send [30, 45]
        assert res.results[5] == pytest.approx(45.0)


class TestMultiPortConcurrency:
    def test_all_links_usable(self):
        def prog(ctx):
            if ctx.rank == 0:
                handles = []
                for d in range(3):
                    handles.append((yield from ctx.isend(1 << d, np.ones(5))))
                yield from ctx.waitall(handles)
                return ctx.now
            if ctx.rank in (1, 2, 4):
                yield from ctx.recv(0)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.MULTI_PORT), prog)
        assert res.results[0] == pytest.approx(15.0)
        assert res.results[4] == pytest.approx(15.0)

    def test_same_link_still_serializes(self):
        def prog(ctx):
            if ctx.rank == 0:
                h1 = yield from ctx.isend(1, np.ones(5), tag=1)
                h2 = yield from ctx.isend(1, np.ones(5), tag=2)
                yield from ctx.waitall([h1, h2])
                return ctx.now
            if ctx.rank == 1:
                yield from ctx.recv(0, tag=1)
                yield from ctx.recv(0, tag=2)
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.MULTI_PORT), prog)
        assert res.results[1] == pytest.approx(30.0)

    def test_opposite_directions_concurrent(self):
        def prog(ctx):
            if ctx.rank in (0, 1):
                got = yield from ctx.exchange(1 - ctx.rank, np.ones(5))
                return ctx.now
            return None

        res = run_spmd(cfg(PortModel.MULTI_PORT), prog)
        assert res.results[0] == pytest.approx(15.0)


class TestMachineParams:
    def test_hop_time(self):
        params = MachineParams(t_s=100, t_w=2)
        assert params.hop_time(50) == 200.0
        assert params.hop_time(0) == 100.0

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            MachineParams(t_s=-1)
        with pytest.raises(SimulationError):
            MachineParams(t_w=-1)
        with pytest.raises(SimulationError):
            MachineParams(t_c=-0.5)

    def test_negative_message_rejected(self):
        with pytest.raises(SimulationError):
            MachineParams().hop_time(-1)

    def test_config_helpers(self):
        c = MachineConfig.create(16, t_s=1, t_w=2, port_model=PortModel.ONE_PORT)
        assert c.num_nodes == 16
        assert c.dimension == 4
        c2 = c.with_port_model(PortModel.MULTI_PORT)
        assert c2.port_model is PortModel.MULTI_PORT
        assert c2.cube is c.cube
        c3 = c.with_params(MachineParams(t_s=9))
        assert c3.params.t_s == 9
