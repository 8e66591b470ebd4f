"""FIFO communication resources: node ports and directional links.

Each resource is a single-server queue tracked only by its *next-free time*;
requests arriving (in event order) at time ``t`` start at
``max(t, next_free)``.  A hop needs several resources at once (the sender's
port, the channel, the receiver's port); :class:`ResourceSet` reserves them
jointly: the start time is the max of all next-free times and the request
time, and every resource is then held until ``start + duration``.

Because the engine processes events in non-decreasing time order with a
deterministic tie-break, reservations are FIFO and runs are reproducible.

State is stored struct-of-arrays: the tracker owns preallocated NumPy
columns (next-free time, cumulative busy time, reservation count) indexed
by a dense resource id, and :class:`Resource` is a thin view over one slot.
The hot path (:meth:`ContentionTracker.reserve_hop`) works directly on the
columns through a per-hop id cache; the closed-form superstep planners
read and write whole phases of channel state through the same columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.machine import MachineConfig, PortModel

__all__ = ["Resource", "ResourceSet", "ContentionTracker"]


class _Cells:
    """One-slot backing store for a standalone :class:`Resource`."""

    __slots__ = ("_free", "_busy", "_nres")

    def __init__(self) -> None:
        self._free = np.zeros(1)
        self._busy = np.zeros(1)
        self._nres = np.zeros(1, dtype=np.int64)


class Resource:
    """A single-server FIFO resource: a view over one struct-of-arrays slot.

    Constructed standalone (``Resource("x")``) it owns a private one-slot
    store; the :class:`ContentionTracker` hands out views into its shared
    columns instead.  Either way the API is the plain scalar triple
    ``next_free`` / ``busy_time`` / ``reservations``.
    """

    __slots__ = ("name", "_store", "_i")

    def __init__(
        self,
        name: str,
        next_free: float = 0.0,
        busy_time: float = 0.0,
        reservations: int = 0,
        *,
        _store=None,
        _index: int = 0,
    ):
        self.name = name
        if _store is None:
            _store = _Cells()
            _index = 0
            _store._free[0] = next_free
            _store._busy[0] = busy_time
            _store._nres[0] = reservations
        self._store = _store
        self._i = _index

    @property
    def next_free(self) -> float:
        """Earliest time a new reservation may start."""
        return float(self._store._free[self._i])

    @next_free.setter
    def next_free(self, value: float) -> None:
        self._store._free[self._i] = value

    @property
    def busy_time(self) -> float:
        """Cumulative reserved duration."""
        return float(self._store._busy[self._i])

    @busy_time.setter
    def busy_time(self, value: float) -> None:
        self._store._busy[self._i] = value

    @property
    def reservations(self) -> int:
        """Number of reservations taken so far."""
        return int(self._store._nres[self._i])

    @reservations.setter
    def reservations(self, value: int) -> None:
        self._store._nres[self._i] = value

    def earliest_start(self, ready: float) -> float:
        """Start time of a request arriving at ``ready``."""
        free = self._store._free[self._i]
        return ready if ready >= free else float(free)

    def hold(self, start: float, duration: float) -> None:
        """Reserve ``[start, start + duration)``; FIFO order is enforced."""
        if duration < 0:
            raise SimulationError(f"negative hold duration on {self.name}")
        store, i = self._store, self._i
        if start + 1e-12 < store._free[i]:
            raise SimulationError(
                f"resource {self.name} double-booked: start {start} < free "
                f"{float(store._free[i])}"
            )
        store._free[i] = start + duration
        store._busy[i] += duration
        store._nres[i] += 1

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, next_free={self.next_free}, "
            f"busy_time={self.busy_time}, reservations={self.reservations})"
        )


class _ChannelViews:
    """Lazy mapping ``(u, v) -> Resource`` over the tracker's channel slots.

    Channel state is id-first (see :class:`ContentionTracker`); views are
    materialized only when someone actually asks for the object API, and
    cached so repeated lookups return the same view.
    """

    __slots__ = ("_t", "_views")

    def __init__(self, tracker: "ContentionTracker"):
        self._t = tracker
        self._views: dict[tuple[int, int], Resource] = {}

    def _view(self, key: tuple[int, int], index: int) -> Resource:
        res = self._views.get(key)
        if res is None:
            u, v = key
            res = Resource(
                f"channel[{u}->{v}]", _store=self._t, _index=index
            )
            self._views[key] = res
        return res

    def get(self, key, default=None):
        index = self._t._channel_ids.get(key)
        if index is None:
            return default
        return self._view(key, index)

    def __getitem__(self, key):
        return self._view(key, self._t._channel_ids[key])

    def __contains__(self, key):
        return key in self._t._channel_ids

    def __iter__(self):
        return iter(self._t._channel_ids)

    def __len__(self):
        return len(self._t._channel_ids)

    def keys(self):
        return self._t._channel_ids.keys()

    def values(self):
        return (self[k] for k in self._t._channel_ids)

    def items(self):
        return ((k, self[k]) for k in self._t._channel_ids)


class ResourceSet:
    """Joint reservation over several resources."""

    @staticmethod
    def reserve(resources: list[Resource], ready: float, duration: float) -> float:
        """Reserve all ``resources`` for ``duration`` starting no earlier than
        ``ready``; returns the start time."""
        start = ready
        for r in resources:
            start = r.earliest_start(start)
        for r in resources:
            r.hold(start, duration)
        return start


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
    up to the machine's ``p·(d + 1)`` resource ceiling.  Slots never move,
    so ids cached in :class:`Resource` views and the per-hop id cache stay
    valid across growth.
    """

    def __init__(self, config: MachineConfig):
        self.config = config
        one_port = config.port_model is PortModel.ONE_PORT
        p = config.num_nodes
        cap = max(1, (p if one_port else 0) + min(p * config.dimension, 4096))
        self._free = np.zeros(cap)
        self._busy = np.zeros(cap)
        self._nres = np.zeros(cap, dtype=np.int64)
        self._n = 0
        self._send_port: dict[int, Resource] = {}
        # id-first channel bookkeeping: the dict maps a directional link to
        # its column slot; Resource views are materialized lazily through
        # the _channel facade (stats, superstep seeding by object).
        self._channel_ids: dict[tuple[int, int], int] = {}
        self._channel = _ChannelViews(self)
        # hop -> column ids of the resources it holds (channel, then the
        # sender's port on one-port), validated once and reused for every
        # message crossing the same directional link.
        self._hop_ids: dict[tuple[int, int], tuple[int, ...]] = {}
        if one_port:
            for node in config.cube.nodes():
                self._send_port[node] = Resource(
                    f"send_port[{node}]", _store=self, _index=self._alloc()
                )
        #: column id of every node's send port, by node (empty: multi-port)
        self._port_ids = np.array(
            [port._i for port in self._send_port.values()], dtype=np.intp
        )

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

    def _channel_resource(self, u: int, v: int) -> Resource:
        return self._channel._view((u, v), self._channel_slot(u, v))

    def _hop_slots(self, u: int, v: int) -> tuple[int, ...]:
        """Validate the hop ``u -> v`` on first touch and cache its ids."""
        if not self.config.cube.are_neighbors(u, v):
            raise SimulationError(f"hop {u}->{v} is not a hypercube link")
        ids: tuple[int, ...] = (self._channel_slot(u, v),)
        if self._send_port:
            ids += (self._send_port[u]._i,)
        self._hop_ids[(u, v)] = ids
        return ids

    def hop_resources(self, u: int, v: int) -> list[Resource]:
        """Resources a hop ``u -> v`` must hold for its duration, as views
        (built on demand: the engine reserves through the ids alone)."""
        ids = self._hop_ids.get((u, v)) or self._hop_slots(u, v)
        resources = [self._channel._view((u, v), ids[0])]
        if len(ids) > 1:
            resources.append(self._send_port[u])
        return resources

    def reserve_hop(self, u: int, v: int, ready: float, duration: float) -> float:
        """Reserve the hop ``u -> v``; returns its start time.

        Semantically ``ResourceSet.reserve(hop_resources(u, v), ...)``, but
        run directly over the struct-of-arrays columns through the cached
        id tuple — this runs once per hop of every message, making it the
        hottest contention-tracking path.
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

    def channel_utilization(self, horizon: float) -> dict[tuple[int, int], float]:
        """Fraction of ``[0, horizon]`` each used directional channel was busy."""
        if horizon <= 0:
            return {k: 0.0 for k in self._channel_ids}
        busy = self._busy
        return {
            k: float(busy[i]) / horizon for k, i in self._channel_ids.items()
        }

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
