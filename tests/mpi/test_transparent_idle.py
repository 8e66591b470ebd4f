"""Every resilience layer is invisible on a machine that gives it nothing
to do: same product, makespan, network statistics and per-rank message
counts as the bare context — the paper's ``t_s + t_w·m`` model is what a
wrapped fault-free run must still measure."""

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.mpi import (
    FailureDetectorContext,
    IntegrityContext,
    RecoveryContext,
    ReliableContext,
)
from repro.sim import FaultPlan, MachineConfig, NetworkScenario


def _recovery_over_full_cube(ctx):
    cube = ctx.config.cube
    full = cube.subcube(range(cube.dimension), 0)
    return RecoveryContext(FailureDetectorContext(ctx), full)


STACKS = {
    "reliable": ReliableContext,
    "integrity": IntegrityContext,
    "detector-reliable": lambda ctx: FailureDetectorContext(ReliableContext(ctx)),
    "detector-integrity": lambda ctx: FailureDetectorContext(IntegrityContext(ctx)),
    "recovery-detector": _recovery_over_full_cube,
}

#: a present-but-lossless plan (a rerouted dead link changes routes, not
#: delivery) on a machine with a slow link (changes hop costs, not delivery)
MACHINES = {
    "no-plan": {},
    "degraded-link": {
        "faults": FaultPlan().with_link_fault(0, 1),
        "scenario": NetworkScenario().with_link_cost(2, 3, tw_factor=2.0),
    },
}

ALGORITHMS = {"cannon": 16, "3d_all": 8}


@pytest.mark.parametrize("key", ALGORITHMS)
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("stack", STACKS)
def test_idle_stack_equals_bare_context(stack, machine, key):
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    config = MachineConfig.create(
        ALGORITHMS[key], t_s=10.0, t_w=1.0, **MACHINES[machine]
    )
    algo = get_algorithm(key)
    bare = algo.run(A, B, config, verify=True)
    wrapped = algo.run(A, B, config, verify=True, context_factory=STACKS[stack])
    assert np.array_equal(wrapped.C, bare.C)
    assert wrapped.total_time == bare.total_time
    assert wrapped.result.network == bare.result.network
    assert [s.messages_sent for s in wrapped.result.stats.values()] == [
        s.messages_sent for s in bare.result.stats.values()
    ]
