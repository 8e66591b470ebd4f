"""A liveness probe ends with its acknowledgement.

The failure detector pings a silent peer with a zero-word message whose
delivery the destination *node* acknowledges.  No program ever receives a
ping, so a delivered one must not stay queued in the probed rank's
mailbox, where every later receive at that rank would scan past it.
"""

import pytest

from repro.analysis.resilience import recovery_sweep
from repro.mpi import FailureDetectorContext
from repro.mpi.detector import PING_TAG
from repro.sim import FaultPlan, MachineConfig
from repro.sim import engine as engine_module
from repro.sim.engine import Engine


def _queued_tags(engine):
    return [msg.tag for box in engine._mailbox.values() for _arrival, msg in box]


def test_probes_of_live_and_dead_peers_leave_nothing_queued():
    plan = FaultPlan(seed=1).with_node_failure(1, at=0.5)
    cfg = MachineConfig.create(4, t_s=10.0, t_w=1.0, faults=plan)

    def prog(ctx):
        if ctx.rank != 0:
            yield from ctx.elapse(100_000.0)
            return None
        det = FailureDetectorContext(ctx)
        verdicts = []
        for peer in (1, 2, 3, 2):
            verdicts.append((yield from det.probe(peer)))
        return verdicts

    engine = Engine(cfg)
    res = engine.run(prog)
    assert res.results[0] == [False, True, True, True]
    assert PING_TAG not in _queued_tags(engine)
    # rank 0 pinged the dead peer PROBE_RETRIES times and each live one once
    assert res.stats[0].messages_sent >= 6


@pytest.fixture
def engines(monkeypatch):
    """Every engine an analysis builds, kept for inspection after its run."""
    built = []
    run = Engine.run

    def keep(self, program):
        built.append(self)
        return run(self, program)

    monkeypatch.setattr(engine_module.Engine, "run", keep)
    return built


def test_a_checkpoint_recovery_run_leaves_no_ping_queued(engines):
    """Cannon at n = p = 16 with half the nodes fail-stopped, recovered
    from checkpoints: its detectors probe about a thousand times, and the
    product, makespan and epochs are those of a run whose pings waited in
    the mailboxes."""
    (point,) = recovery_sweep(
        ["cannon"], 16, 16, [0.5], modes=("checkpoint",), seed=0, plan_seed=1
    )
    assert point.completed and point.exact
    assert (point.total_time, point.epochs) == (1332492.0, 1)
    assert engines
    for engine in engines:
        assert PING_TAG not in _queued_tags(engine)
