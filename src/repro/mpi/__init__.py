"""MPI-flavoured communicator layer over hypercube subcubes."""

from repro.mpi.checkpoint import CheckpointedMatmul, RecoveryRun
from repro.mpi.communicator import Comm
from repro.mpi.detector import (
    LOST_PAYLOAD,
    FailureDetectorContext,
    lost_like,
)
from repro.mpi.integrity import IntegrityContext
from repro.mpi.proxy import ContextProxy
from repro.mpi.recovery import AGREE_TAG, RecoveryContext, agree, shrink
from repro.mpi.reliable import ACK_BASE, DATA_BASE, ReliableContext

__all__ = [
    "Comm",
    "ContextProxy",
    "ReliableContext",
    "IntegrityContext",
    "DATA_BASE",
    "ACK_BASE",
    "FailureDetectorContext",
    "LOST_PAYLOAD",
    "lost_like",
    "agree",
    "shrink",
    "AGREE_TAG",
    "RecoveryContext",
    "CheckpointedMatmul",
    "RecoveryRun",
]
