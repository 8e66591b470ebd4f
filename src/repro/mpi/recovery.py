"""ULFM-style communicator recovery: agree on the dead, shrink, remap.

After the failure detector (:mod:`repro.mpi.detector`) convicts peers,
the survivors must *jointly* decide who is gone and regroup onto a
machine that still looks like a hypercube, because every embedding in
this package assumes one.  This module provides the three pieces, named
after their User-Level Failure Mitigation (ULFM) MPI counterparts:

``agree``
    A deterministic consensus collective: survivors gossip their locally
    convicted dead-sets in ordered all-pairs rounds until everyone holds
    the union.  Exchanging with a corpse itself yields a conviction, so
    the protocol also *discovers* failures its caller did not know about.

``shrink``
    A pure function from (cube, dead-set) to the largest all-alive
    subcube (optionally subject to an applicability predicate, e.g.
    "even dimension" for a square grid).  Because
    :func:`~repro.topology.embedding.largest_live_subcube` enumerates
    candidates in a fixed order, every survivor computes the same answer
    with no further communication.

``RecoveryContext``
    An address-translating context proxy presenting the chosen subcube
    as a fresh, smaller hypercube machine: virtual rank ``v`` is physical
    node ``subcube.member(v)``.  The paper's algorithms run on it
    unchanged — Gray-code rings over subcube member indices map to
    dilation-1 physical rings, since a subcube of a hypercube is a
    hypercube.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Sequence

from repro.errors import CommunicatorError
from repro.mpi.detector import LOST_PAYLOAD, FailureDetectorContext
from repro.mpi.proxy import ContextProxy
from repro.sim.process import ANY_SOURCE, ANY_TAG
from repro.topology.embedding import largest_live_subcube
from repro.topology.hypercube import Hypercube, Subcube

__all__ = ["AGREE_TAG", "agree", "shrink", "RecoveryContext"]

#: tag namespace for the agreement collective; rounds use AGREE_TAG + round.
#: Sits above every algorithm tag (collective subtags stay below 1 << 12).
AGREE_TAG = 9000


def agree(
    det: FailureDetectorContext,
    participants: Sequence[int] | None = None,
    *,
    rounds: int = 2,
    max_leases: int | None = 256,
):
    """Deterministic dead-set consensus over the presumed-alive ranks.

    Generator (run under ``det``'s rank).  Returns a ``frozenset`` of
    fail-stopped ranks that — provided every surviving participant calls
    ``agree`` with the same arguments — is identical on all survivors.

    Each round walks the participants in ascending order and exchanges
    the local dead-set with every peer not yet convicted.  Sends complete
    on node-level delivery acknowledgement (a corpse's silence is handled
    by the detector, not by blocking), and the ascending walk makes the
    waits-for relation well-founded, so the rounds are deadlock-free.
    Two rounds give gossip completeness: round one spreads every
    pre-existing conviction to all survivors, and a death *discovered
    during* round one (an exchange that comes back
    :data:`~repro.mpi.detector.LOST_PAYLOAD`) is spread by round two.  A
    rank that dies in the middle of the *last* round can leave survivors
    with momentarily different answers; callers that must converge run
    agree/shrink in an epoch loop (see :mod:`repro.mpi.checkpoint`).

    ``max_leases`` bounds how long to humor an alive-but-silent peer
    (one that crashed out of the protocol without fail-stopping); when
    exhausted the generic timeout propagates rather than hanging.
    """
    me = det.rank
    if participants is None:
        participants = range(det.num_ranks)
    order = sorted(participants)
    dead: set[int] = set(det.known_dead)
    for rnd in range(rounds):
        tag = AGREE_TAG + rnd
        for peer in order:
            if peer == me or peer in dead:
                continue
            got = yield from det.sendrecv(
                peer, frozenset(dead), peer, tag, tag, nwords=len(order),
                on_dead="substitute", max_leases=max_leases,
            )
            if got is LOST_PAYLOAD:
                dead.add(peer)
            else:
                dead |= got
    return frozenset(dead)


def shrink(
    cube: Hypercube,
    dead: Iterable[int],
    *,
    require=None,
) -> Subcube | None:
    """Largest all-alive subcube after removing ``dead`` nodes.

    Pure and deterministic: survivors holding the same ``dead`` set (the
    point of :func:`agree`) compute the same subcube independently.
    ``require`` filters candidates by applicability (e.g. the wrapped
    algorithm's grid constraint).  Returns ``None`` when nothing
    acceptable survives — the caller falls back to serial execution.
    """
    dead_set = set(dead)
    alive = [n for n in range(cube.num_nodes) if n not in dead_set]
    if not alive:
        return None
    return largest_live_subcube(cube, alive, require=require)


class RecoveryContext(ContextProxy):
    """Present a surviving subcube as a fresh, smaller hypercube machine.

    Wraps any context (normally a
    :class:`~repro.mpi.detector.FailureDetectorContext`) and translates
    between *virtual* ranks ``0 .. 2**d - 1`` on the shrunken machine and
    the physical subcube members that host them.  ``ctx.config`` reports
    a ``MachineConfig`` whose cube is the virtual ``d``-cube (same link
    parameters, same port model), so grid embeddings, communicators and
    cost accounting in the algorithms work unchanged.  The mapping is
    dilation-preserving: virtual-cube neighbours differ in one subcube
    free dimension, hence are physical neighbours too.

    Only ranks inside the subcube may construct one; survivors left out
    of the shrunken machine simply do not participate in the rerun.

    ``tag_shift`` relocates every user tag into a fresh namespace
    (``tag + tag_shift``).  A recovery rerun reuses the wrapped
    algorithm's tags, and an aborted first attempt can leave stale
    messages in survivor mailboxes (their receives were cancelled when a
    sibling raised); shifting by a per-epoch stride keeps a rerun from
    ever consuming a first-attempt message.  User tags must stay below
    :data:`~repro.mpi.reliable.DATA_BASE` after shifting.

    Local operations are inherited untranslated.  That includes the
    *physical* barrier: the engine barrier excludes finished and
    fail-stopped ranks from its quorum, so it is safe on a shrunken
    machine.
    """

    def __init__(self, inner, subcube: Subcube, *, tag_shift: int = 0):
        super().__init__(inner)
        self.subcube = subcube
        self.tag_shift = tag_shift
        phys = inner.rank
        if not subcube.contains(phys):
            raise CommunicatorError(
                f"rank {phys} is not a member of the recovery subcube "
                f"(free dims {subcube.free_dims}, anchor {subcube.anchor})"
            )
        self._vrank = subcube.index_of(phys)
        self._vconfig = replace(
            inner.config, cube=Hypercube(subcube.dimension)
        )

    # -- identity of the virtual machine -----------------------------------

    @property
    def rank(self) -> int:
        """Virtual rank on the shrunken machine."""
        return self._vrank

    @property
    def physical_rank(self) -> int:
        return self._ctx.rank

    @property
    def config(self):
        """Machine config of the *virtual* (shrunken) machine."""
        return self._vconfig

    @property
    def num_ranks(self) -> int:
        return self.subcube.num_nodes

    def _phys(self, virtual: int) -> int:
        if virtual < 0:  # ANY_SOURCE passes through
            return virtual
        return self.subcube.member(virtual)

    def _tag(self, tag: int) -> int:
        if tag < 0:  # ANY_TAG passes through
            return tag
        return tag + self.tag_shift

    # -- point to point, address-translated --------------------------------

    def send(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        return self._ctx.send(self._phys(dst), data, self._tag(tag), nwords)

    def isend(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        return self._ctx.isend(self._phys(dst), data, self._tag(tag), nwords)

    def recv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        return self._ctx.recv(self._phys(src), self._tag(tag), timeout=timeout)

    def irecv(
        self,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        return self._ctx.irecv(self._phys(src), self._tag(tag), timeout=timeout)

    def sendrecv(
        self,
        dst: int,
        data: Any,
        src: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
        nwords: int | None = None,
    ):
        return self._ctx.sendrecv(
            self._phys(dst), data, self._phys(src),
            self._tag(send_tag), self._tag(recv_tag), nwords,
        )

    def exchange(self, peer: int, data: Any, tag: int = 0, nwords: int | None = None):
        return self._ctx.exchange(self._phys(peer), data, self._tag(tag), nwords)

    def __repr__(self) -> str:
        return (
            f"RecoveryContext(virtual_rank={self._vrank}, "
            f"physical_rank={self.physical_rank}, "
            f"dimension={self.subcube.dimension})"
        )
