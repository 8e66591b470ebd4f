"""Communicators: ordered groups of cube nodes forming a subcube.

Every collective pattern in the paper runs inside a one-dimensional chain of
processors (a grid row, column, or axis line), and under the Gray-code
embedding each such chain *is* a subcube of the physical hypercube.  A
:class:`Comm` captures one of these groups:

* ``members`` is the caller's semantic ordering (e.g. grid-column order for
  a row communicator) — collective results are indexed by this order;
* internally, members are also indexed by their *subcube index* (the integer
  formed from the free-dimension bits), which is the coordinate system in
  which recursive doubling / binomial-tree schedules talk to physical
  neighbours.

A rank participates in a communicator by constructing the same ``Comm`` in
its program; there is no global registration.  Tags passed to the point-to-
point helpers are namespaced by the caller, not the communicator.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_
from typing import Any, Sequence

from repro.errors import CommunicatorError
from repro.sim.process import ProcessContext
from repro.topology.hypercube import subcube_layout
from repro.util.bits import set_bits

__all__ = ["Comm"]


@lru_cache(maxsize=65536)
def _subcube_structure(
    members: tuple[int, ...],
) -> tuple[
    tuple[int, ...], dict[int, int], tuple[int, ...], tuple[int, ...], int, int
]:
    """Validated subcube structure shared by every rank of a communicator:
    ``(free_dims, index_of_node, sub_of_rank, rank_of_sub, size,
    dimension)``.

    The derived maps depend only on the member tuple, and every member of a
    grid line constructs the identical communicator — caching turns the
    per-rank validation into a lookup.  The subcube-index maps are
    :func:`~repro.topology.hypercube.subcube_layout`'s, which the
    collective planner reads too.  Returned containers are shared across
    ranks and must be treated as read-only.
    """
    if not members:
        raise CommunicatorError("communicator needs at least one member")
    if len(set(members)) != len(members):
        raise CommunicatorError(f"duplicate members in {list(members)}")
    size = len(members)
    if size & (size - 1):
        raise CommunicatorError(
            f"communicator size must be a power of two, got {size}"
        )
    # The bits some member does not share with the others vary; the AND of
    # the members is then their subcube's anchor.
    anchor = reduce(and_, members)
    free_dims = tuple(set_bits(reduce(or_, members) ^ anchor))
    if 1 << len(free_dims) != size:
        raise CommunicatorError(
            f"members {list(members)} do not form a subcube: {len(free_dims)} "
            f"varying bits for {size} nodes"
        )
    layout = subcube_layout(tuple([node ^ anchor for node in members]), free_dims)
    if layout is None:
        raise CommunicatorError(
            f"members {list(members)} do not form a subcube"
        )
    return (
        free_dims, dict(zip(members, range(size))), layout[4], layout[5],
        size, len(free_dims),
    )


class Comm:
    """An ordered subcube communicator bound to one rank's context.

    Parameters
    ----------
    ctx:
        The calling rank's process context.
    members:
        Cube-node addresses, in the semantic order that collective results
        should use.  Must form a subcube (size a power of two, all
        free-bit combinations present) and must contain ``ctx.rank``.

    The shape (``size``, ``dimension``) and the layout maps (``sub_of_rank``:
    comm rank → subcube index; ``rank_of_sub``: its inverse) are plain
    attributes shared by every rank of the communicator: the collectives'
    schedules read them directly, and they must be treated as read-only.
    """

    __slots__ = (
        "ctx",
        "members",
        "rank",
        "free_dims",
        "size",
        "dimension",
        "sub_of_rank",
        "rank_of_sub",
        "_index_of_node",
    )

    def __init__(self, ctx: ProcessContext, members: Sequence[int]):
        members = tuple(members)
        (
            free_dims,
            index_of_node,
            self.sub_of_rank,
            self.rank_of_sub,
            self.size,
            self.dimension,
        ) = _subcube_structure(members)

        if ctx.rank not in index_of_node:
            raise CommunicatorError(
                f"rank {ctx.rank} is not a member of communicator {list(members)}"
            )

        self.ctx = ctx
        self.members = members
        self.free_dims = free_dims
        self._index_of_node = index_of_node
        self.rank = index_of_node[ctx.rank]

    # -- nodes ---------------------------------------------------------------

    def node_of(self, comm_rank: int) -> int:
        """Cube-node address of a comm rank."""
        return self.members[comm_rank]

    def comm_rank_of(self, node: int) -> int:
        """Comm rank of a cube node (KeyError if not a member)."""
        return self._index_of_node[node]

    # -- subcube-index coordinates ------------------------------------------

    def subindex_of(self, comm_rank: int) -> int:
        """Subcube index (free-dimension bits) of a member."""
        return self.sub_of_rank[comm_rank]

    def from_subindex(self, subindex: int) -> int:
        """Comm rank whose subcube index is ``subindex``."""
        return self.rank_of_sub[subindex]

    def rel_index(self, comm_rank: int, root: int = 0) -> int:
        """Subcube index relative to ``root`` (so ``root`` maps to 0)."""
        return self.sub_of_rank[comm_rank] ^ self.sub_of_rank[root]

    def from_rel(self, rel: int, root: int = 0) -> int:
        """Inverse of :meth:`rel_index`."""
        return self.rank_of_sub[rel ^ self.sub_of_rank[root]]

    def dim_partner(self, comm_rank: int, k: int) -> int:
        """Comm rank of the physical neighbour across subcube dimension ``k``."""
        if not 0 <= k < self.dimension:
            raise CommunicatorError(
                f"subcube dimension {k} out of range (communicator has "
                f"{self.dimension} dimensions)"
            )
        return self.rank_of_sub[self.sub_of_rank[comm_rank] ^ (1 << k)]

    # -- point-to-point in comm-rank space: ``ctx``'s own generators ---------

    def send(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        """Blocking send to comm rank ``dst`` (generator)."""
        return self.ctx.send(self.members[dst], data, tag, nwords)

    def isend(self, dst: int, data: Any, tag: int = 0, nwords: int | None = None):
        """Non-blocking send to comm rank ``dst``; returns a Handle."""
        return self.ctx.isend(self.members[dst], data, tag, nwords)

    def recv(self, src: int, tag: int = -1):
        """Blocking receive from comm rank ``src``; returns the payload."""
        return self.ctx.recv(self.members[src], tag)

    def irecv(self, src: int, tag: int = -1):
        """Non-blocking receive from comm rank ``src``; returns a Handle."""
        return self.ctx.irecv(self.members[src], tag)

    def exchange(self, peer: int, data: Any, tag: int = 0, nwords: int | None = None):
        """Full-duplex pairwise exchange with comm rank ``peer``."""
        return self.ctx.exchange(self.members[peer], data, tag, nwords)

    def __repr__(self) -> str:
        return f"Comm(rank={self.rank}/{self.size}, members={self.members})"
