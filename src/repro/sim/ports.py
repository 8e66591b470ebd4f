"""FIFO communication resources: node send ports and directional links.

Each resource is a single-server queue tracked only by its *next-free time*;
requests arriving (in event order) at time ``t`` start at
``max(t, next_free)``.  A hop needs several resources at once (the channel,
and on one-port the sender's port); :meth:`ContentionTracker.reserve_hop`
reserves them jointly: the start time is the max of all next-free times and
the request time, and every resource is then held until ``start +
duration``.

Because the engine processes events in non-decreasing time order with a
deterministic tie-break, reservations are FIFO and runs are reproducible.

State is stored struct-of-arrays: the tracker owns preallocated NumPy
columns (next-free time, cumulative busy time, reservation count) indexed
by a dense resource id.  The hot path (:meth:`ContentionTracker.reserve_hop`)
works on the columns through a per-hop id cache; the closed-form superstep
planners read and write whole phases of channel and port state through the
same columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.machine import MachineConfig, PortModel

__all__ = ["ContentionTracker"]


class ContentionTracker:
    """Owns every port/link resource of a simulated machine.

    One-port machines have a per-node ``send`` engagement resource: a node
    injects (or forwards) at most one transfer at a time.  The receive side
    of a transfer is assumed concurrently engaged — the node is full duplex,
    sending one message while receiving one.  Serializing only the sender
    side avoids convoy artefacts (a sender idling its port while waiting for
    a busy receiver) and reproduces the paper's lockstep accounting, where
    every one-port schedule has each node receive at most as many messages
    per step as it sends.

    Multi-port machines are constrained per directional channel only: every
    (link, direction) carries one transfer at a time, and a node may drive
    all its links at once.  Channels are tracked in both models so link
    utilization statistics are always available.

    All resource state lives in three preallocated columns (``_free``,
    ``_busy``, ``_nres``) indexed by a dense id; capacity doubles on demand
    up to the machine's ``p·(d + 1)`` resource ceiling.  On one-port the
    first ``p`` slots are the send ports, so node ``u``'s port is slot
    ``u``; channels get the slots after them on first use.  Slots never
    move, so the per-hop id cache stays valid across growth.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        one_port = config.port_model is PortModel.ONE_PORT
        p = config.num_nodes
        cap = max(1, (p if one_port else 0) + min(p * config.dimension, 4096))
        self._free = np.zeros(cap)
        self._busy = np.zeros(cap)
        self._nres = np.zeros(cap, dtype=np.int64)
        # one-port: node u's send port is slot u, allocated up front
        self._n = p if one_port else 0
        self._one_port = one_port
        # channel bookkeeping: the dict maps a directional link to its slot
        self._channel_ids: dict[tuple[int, int], int] = {}
        # hop -> column ids of the resources it holds (channel, then the
        # sender's port on one-port), validated once and reused for every
        # message crossing the same directional link.
        self._hop_ids: dict[tuple[int, int], tuple[int, ...]] = {}

    def _alloc(self) -> int:
        """Claim one zeroed column slot; returns its id."""
        i = self._n
        if i == len(self._free):
            self._grow()
        self._n = i + 1
        return i

    def _grow(self) -> None:
        for attr in ("_free", "_busy", "_nres"):
            old = getattr(self, attr)
            new = np.zeros(2 * len(old), dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, attr, new)

    def _channel_slot(self, u: int, v: int) -> int:
        """Column id of channel ``u -> v``, allocating the slot on first use."""
        key = (u, v)
        i = self._channel_ids.get(key)
        if i is None:
            i = self._alloc()
            self._channel_ids[key] = i
        return i

    def _new_channel_slots(self, keys: list) -> np.ndarray:
        """Claim consecutive zeroed slots for channels none of which exists
        yet (one dict update); returns their column ids, in ``keys`` order."""
        first = self._n
        self._n = first + len(keys)
        while self._n > len(self._free):
            self._grow()
        self._channel_ids.update(zip(keys, range(first, self._n)))
        return np.arange(first, self._n)

    def _hop_slots(self, u: int, v: int) -> tuple[int, ...]:
        """Validate the hop ``u -> v`` on first touch and cache its ids."""
        if not self.config.cube.are_neighbors(u, v):
            raise SimulationError(f"hop {u}->{v} is not a hypercube link")
        ids: tuple[int, ...] = (self._channel_slot(u, v),)
        if self._one_port:
            ids += (u,)
        self._hop_ids[(u, v)] = ids
        return ids

    def reserve_hop(self, u: int, v: int, ready: float, duration: float) -> float:
        """Reserve the hop ``u -> v``; returns its start time.

        The start is the latest of ``ready`` and the next-free times of
        the hop's resources; each is then held until ``start + duration``.
        Runs over the struct-of-arrays columns through the cached id tuple
        — once per hop of every message, the hottest contention-tracking
        path.
        """
        ids = self._hop_ids.get((u, v))
        if ids is None:
            ids = self._hop_slots(u, v)
        if duration < 0:
            raise SimulationError(f"negative hold duration on hop {u}->{v}")
        free = self._free
        start = ready
        for i in ids:
            f = free[i]
            if f > start:
                start = f
        start = float(start)
        end = start + duration
        busy = self._busy
        nres = self._nres
        for i in ids:
            free[i] = end
            busy[i] += duration
            nres[i] += 1
        return start

    # -- statistics ----------------------------------------------------

    def channels_used(self) -> int:
        """Number of directional channels any hop ever reserved."""
        return len(self._channel_ids)

    def max_channel_busy(self) -> float:
        """Longest cumulative busy time over all channels (a lower bound on
        any schedule's completion time)."""
        ids = self._channel_ids
        if not ids:
            return 0.0
        cols = np.fromiter(ids.values(), dtype=np.intp, count=len(ids))
        return float(self._busy[cols].max())

    def total_channel_busy(self) -> float:
        # Summed sequentially in channel-key order, not creation order: the
        # closed-form superstep path may create a phase's channels in rank
        # order while the event path creates them in reservation order, and
        # float addition is order-sensitive.  A fixed order keeps the metric
        # well-defined (and bit-identical) across both.
        # One gather, then a plain loop: builtin sum() of Python floats is
        # compensated from CPython 3.12 on, which would change the bits.
        ids = self._channel_ids
        total = 0.0
        for busy in self._busy[[ids[k] for k in sorted(ids)]].tolist():
            total += busy
        return total
