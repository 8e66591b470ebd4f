"""Schedule selection and tag namespacing shared by all collectives."""

from __future__ import annotations

import enum
from functools import lru_cache

from repro.errors import SimulationError
from repro.mpi.communicator import Comm
from repro.sim.machine import PortModel

__all__ = ["Schedule", "resolve_schedule", "subtag", "subtags"]


class Schedule(enum.Enum):
    """Which executable schedule a collective should use.

    ``SBT`` — the one-port-optimal spanning-binomial-tree / dimension-
    exchange schedules; ``ROTATED`` — the multi-port-optimal chunked
    rotated-tree schedules.  ``AUTO`` picks by the machine's port model.
    """

    AUTO = "auto"
    SBT = "sbt"
    ROTATED = "rotated"


def resolve_schedule(comm: Comm, schedule: Schedule | None) -> Schedule:
    """Resolve ``AUTO``/``None`` to a concrete schedule for this machine."""
    if schedule is None or schedule is Schedule.AUTO:
        if comm.ctx.config.port_model is PortModel.MULTI_PORT:
            return Schedule.ROTATED
        return Schedule.SBT
    if not isinstance(schedule, Schedule):
        raise SimulationError(f"schedule must be a Schedule, got {schedule!r}")
    return schedule


_SUBTAG_BITS = 6


def subtag(base: int, sub: int) -> int:
    """Namespace an internal message tag under a caller-provided base.

    Concurrent collectives over overlapping node sets must be given distinct
    base tags by the caller; within one collective the sub-tag separates
    steps/trees (at most ``2**6`` of either).
    """
    if sub >= (1 << _SUBTAG_BITS) or sub < 0:
        raise SimulationError(f"collective sub-tag {sub} out of range")
    return (base << _SUBTAG_BITS) | sub


@lru_cache(maxsize=None)
def subtags(base: int, count: int) -> tuple[int, ...]:
    """``subtag(base, s)`` for ``s < count``: a collective's step or tree
    tags, looked up by the programs instead of computed per message."""
    return tuple([subtag(base, s) for s in range(count)])


# Re-exported lazily by __init__; the individual operation modules are
# imported here so ``from repro.collectives.api import *`` users get the
# full surface without import cycles (ops import only this module's names).
from repro.collectives.broadcast import broadcast  # noqa: E402
from repro.collectives.scatter import scatter  # noqa: E402
from repro.collectives.gather import gather  # noqa: E402
from repro.collectives.allgather import allgather  # noqa: E402
from repro.collectives.alltoall import alltoall  # noqa: E402
from repro.collectives.reduce import reduce  # noqa: E402
from repro.collectives.reduce_scatter import reduce_scatter  # noqa: E402
