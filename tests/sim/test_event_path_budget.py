"""The event path's fixed host cost per simulated message, as a count.

Wall-clock on a shared host swings far more than any per-message saving,
but the number of Python + C function calls ``cProfile`` sees for a fixed
run is exact: it repeats from run to run, so a ceiling a few percent
above today's value turns "a message got more expensive" into a
deterministic tier-1 failure (ROADMAP item 1).  Both runs are forced onto
the per-message event path the way real runs are — one by ``trace=True``,
one by a fault plan under :class:`~repro.mpi.ReliableContext`.

The ceilings are calls ÷ ``total_messages()`` of the whole
``Algorithm.run`` (distribute + simulate + collect) on CPython 3.11,
plus ~5 %.  Interpreters that inline comprehensions count fewer calls;
none counts more.  Raise a ceiling only for a change that is meant to do
more work per message, and say so.
"""

import cProfile
import gc

import numpy as np
import pytest

from repro import MachineConfig, get_algorithm
from repro.mpi import ReliableContext
from repro.sim import FaultPlan

N = P = 16
_rng = np.random.default_rng(0)
A = _rng.standard_normal((N, N))
B = _rng.standard_normal((N, N))


def _traced():
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0)
    return get_algorithm("cannon").run(A, B, cfg, trace=True, verify=True)


def _lossy_reliable():
    plan = FaultPlan(seed=3).with_drop_rate(0.05)
    cfg = MachineConfig.create(P, t_s=10.0, t_w=1.0, faults=plan)
    return get_algorithm("cannon").run(
        A, B, cfg, verify=True, context_factory=ReliableContext
    )


def _calls(fn):
    # A cyclic collection inside the profiled run would add the calls of
    # every registered ``gc.callbacks`` hook (hypothesis installs one), and
    # when it fires depends on what earlier tests left behind.
    gc.collect()
    gc.disable()
    prof = cProfile.Profile()
    prof.enable()
    try:
        run = fn()
    finally:
        prof.disable()
        gc.enable()
    return sum(entry.callcount for entry in prof.getstats()), run


@pytest.mark.parametrize(
    "fn, messages, ceiling",
    [
        # this PR: 100.98 calls/message (parent 151.69)
        (_traced, 128, 106.0),
        # this PR: 143.21 calls/message (parent 194.35); 8 retransmissions
        (_lossy_reliable, 260, 150.0),
    ],
    ids=["cannon_traced", "cannon_reliable_5pct_drops"],
)
def test_calls_per_message_is_exact_and_bounded(fn, messages, ceiling):
    fn()  # fill lru_caches and lazy imports: they are paid once per process
    first, run = _calls(fn)
    second, _ = _calls(fn)
    assert first == second, "the call count of a fixed run must repeat exactly"
    assert run.result.total_messages() == messages
    assert run.result.events_processed > messages  # every hop was an event
    per_message = first / messages
    assert per_message <= ceiling, (
        f"{per_message:.2f} calls per simulated message, ceiling {ceiling}"
    )
