"""Crash-safe sweep service: WAL journal, supervised workers, admission.

See :mod:`repro.service.service` for the façade and ``docs/SERVICE.md``
for the architecture tour.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.chaos import (
    ChaosPolicy,
    InjectedServiceCrash,
    parse_injections,
)
from repro.service.hostpool import HostAgent, HostPool, host_status
from repro.service.jobs import JobSpec, build_cells, finalize, make_spec
from repro.service.journal import Journal
from repro.service.lease import ChunkOutcome, seeded_backoff
from repro.service.scheduler import DeficitScheduler
from repro.service.service import JobState, SweepService
from repro.service.streaming import StreamWriter, is_byte_prefix, read_stream
from repro.service.supervisor import Supervisor

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "ChaosPolicy",
    "InjectedServiceCrash",
    "parse_injections",
    "JobSpec",
    "make_spec",
    "build_cells",
    "finalize",
    "Journal",
    "JobState",
    "SweepService",
    "ChunkOutcome",
    "Supervisor",
    "seeded_backoff",
    "DeficitScheduler",
    "StreamWriter",
    "read_stream",
    "is_byte_prefix",
    "HostPool",
    "HostAgent",
    "host_status",
]
