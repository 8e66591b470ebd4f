"""ContextProxy: the forwarding surface is written once, a layer overrides
only its concern, and an idle layer stands down in its constructor."""

import inspect

import numpy as np
import pytest

from repro.algorithms import ABFTMatmul, get_algorithm
from repro.mpi import (
    CheckpointedMatmul,
    ContextProxy,
    FailureDetectorContext,
    IntegrityContext,
    RecoveryContext,
    ReliableContext,
)
from repro.sim import MachineConfig, run_spmd
from repro.sim.machine import MachineParams

CFG = MachineConfig.create(4, t_s=10.0, t_w=1.0)

FORWARDED_ONCE = (
    "rank", "engine", "config", "num_ranks", "now", "stats",
    "elapse", "compute", "local_matmul", "parallel", "barrier",
    "phase", "note_memory", "note_retransmission", "wait",
)


def test_forwarding_surface_has_one_definition():
    """No layer re-spells a local operation; only the recovery layer, whose
    concern *is* identity, overrides identity properties."""
    for layer in (ReliableContext, IntegrityContext, FailureDetectorContext):
        assert not set(FORWARDED_ONCE) & set(vars(layer)), layer.__name__
    assert set(FORWARDED_ONCE) & set(vars(RecoveryContext)) == {
        "rank", "config", "num_ranks"
    }
    # the reliable protocol is written in reliable.py only
    assert not {"send", "isend", "_await_ack"} & set(vars(IntegrityContext))


def test_a_layer_overrides_only_its_concern():
    class CountingSends(ContextProxy):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.sent = 0

        def isend(self, dst, data, tag=0, nwords=None):
            self.sent += 1
            return super().isend(dst, data, tag, nwords)

    layers = {}

    def factory(ctx):
        layers[ctx.rank] = CountingSends(ctx)
        return layers[ctx.rank]

    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    cfg = MachineConfig.create(16, t_s=10.0, t_w=1.0)
    algo = get_algorithm("cannon")
    bare = algo.run(A, B, cfg, verify=True)
    run = algo.run(A, B, cfg, verify=True, context_factory=factory)
    assert run.total_time == bare.total_time
    assert sum(layer.sent for layer in layers.values()) == (
        run.result.total_messages()
    )


def test_stand_down_shadows_the_protocol_on_one_instance_only():
    def prog(ctx):
        idle = ReliableContext(ctx)
        armed = ReliableContext(ctx, force_protocol=True)
        assert idle.passthrough and not armed.passthrough
        assert idle.send.__func__ is ContextProxy.send
        assert armed.send.__func__ is ReliableContext.send
        return None
        yield  # pragma: no cover

    run_spmd(CFG, prog)


def test_options_of_the_stack():
    def names(fn):
        return list(inspect.signature(fn).parameters)[1:]

    assert names(FailureDetectorContext.__init__) == [
        "ctx", "on_dead", "max_leases"
    ]
    assert "detector_opts" not in names(ABFTMatmul.__init__)
    assert "detector_opts" not in names(CheckpointedMatmul.__init__)


def test_neighbor_exchange_runs_over_the_layers_own_primitives():
    """Only the bare context hands a neighbour-exchange round to the
    engine; through a layer every message of the round is the layer's own
    ``isend`` — and an armed protocol still delivers it on a lossy link."""
    from repro.sim import FaultPlan

    class CountingSends(ContextProxy):
        sent = 0

        def isend(self, dst, data, tag=0, nwords=None):
            CountingSends.sent += 1
            return super().isend(dst, data, tag, nwords)

    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    cfg = MachineConfig.create(16, t_s=10.0, t_w=1.0)
    for key in ("hje", "fox"):
        algo = get_algorithm(key)
        bare = algo.run(A, B, cfg, verify=True)
        assert bare.result.collective_phases_event == 0
        CountingSends.sent = 0
        run = algo.run(A, B, cfg, verify=True, context_factory=CountingSends)
        assert run.total_time == bare.total_time
        assert run.result.network == bare.result.network
        # hje: the alignment and every round; fox: its 3 rolls per rank
        # (the row broadcasts go through the communicator)
        assert CountingSends.sent >= 16 * 3
        if key == "hje":
            assert CountingSends.sent == bare.result.total_messages()
        lossy = MachineConfig.create(
            16, t_s=10.0, t_w=1.0, faults=FaultPlan(seed=3).with_drop_rate(0.05)
        )
        algo.run(A, B, lossy, verify=True, context_factory=ReliableContext)


def _recovery_over_full_cube(ctx):
    cube = ctx.config.cube
    return RecoveryContext(ctx, cube.subcube(range(cube.dimension), 0))


LAYERS = {
    "reliable": ReliableContext,
    "integrity": IntegrityContext,
    "detector": FailureDetectorContext,
    "recovery": _recovery_over_full_cube,
}


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_forwards_the_local_surface(layer):
    """``engine``, ``stats``, ``compute``, ``barrier``,
    ``note_retransmission`` and ``wait`` reach the bare context through
    each layer: the same objects, the same clocks, the same counters."""

    def run(wrap):
        def prog(ctx):
            wrapped = wrap(ctx)
            assert wrapped.engine is ctx.engine
            assert wrapped.stats is ctx.stats
            yield from wrapped.compute(3.0 * (1 + ctx.rank))
            yield from wrapped.barrier()
            wrapped.note_retransmission()
            peer = ctx.rank ^ 1
            handle = yield from wrapped.irecv(peer)
            yield from wrapped.send(peer, np.array([float(ctx.rank)]))
            got = yield from wrapped.wait(handle)
            return ctx.now, float(got[0]), wrapped.stats.flops

        params = MachineParams(t_s=10.0, t_w=1.0, t_c=0.5)
        return run_spmd(CFG.with_params(params), prog)

    bare, wrapped = run(lambda ctx: ctx), run(LAYERS[layer])
    assert wrapped.results == bare.results
    assert wrapped.results[2] == (bare.total_time, 3.0, 9.0)
    assert wrapped.network.retransmissions == 4
    assert wrapped.network == bare.network
