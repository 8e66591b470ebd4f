"""Deterministic, seeded fault injection for the simulator.

A :class:`FaultPlan` is a declarative description of everything that can go
wrong on a simulated machine:

* **link failures** — a directional or undirected link is dead during a
  virtual-time window (``[start, end)``); permanent failures use the
  default infinite window,
* **message drops** — each hop over a link is lost with some probability
  (a global rate, plus per-link windowed overrides),
* **node fail-stop** — a node halts at a virtual time: its program makes
  no further progress and every incident link goes dead,
* **link corruption** — a hop over a link perturbs the payload with some
  probability during a window: seeded sign/exponent/mantissa bit-flips on
  selected float64 words, a *silent* fault delivering a wrong answer on
  time,
* **node corruption** — a node's local compute emits one perturbed output
  block at a virtual time (a soft error in the GEMM unit).

Determinism
-----------
The plan is immutable and carries a ``seed``.  Each :class:`Engine` run
builds a private :class:`FaultState` whose ``numpy`` generator is seeded
from the plan, and drop decisions are drawn from that stream in event
order.  Because the engine processes events in a deterministic order, the
same ``(MachineConfig, FaultPlan, program)`` triple always produces
bit-identical :class:`~repro.sim.tracing.RunResult`\\ s — fault injection
never sacrifices reproducibility.

Corruption decisions (and the bit-flip draws themselves) come from a
*second* generator, derived from the same plan seed but statistically and
operationally independent of the drop stream: adding or removing
corruption faults never perturbs which messages a given plan drops, and
vice versa — so replays stay bit-identical across fault-type mixes.

A run reads the plan, together with the machine's
:class:`~repro.sim.scenario.NetworkScenario`, through one
:class:`LinkTimeline` of :class:`LinkWindow`\\ s; the plan's point
queries stay the definition that table is tested against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "LinkFault",
    "LinkDrop",
    "NodeFailure",
    "LinkCorruption",
    "NodeCorruption",
    "FLIP_MODELS",
    "FaultPlan",
    "LinkWindow",
    "LinkTimeline",
    "FaultState",
]

#: bit-flip models for corruption faults: which float64 bit gets flipped
FLIP_MODELS = ("sign", "exponent", "mantissa", "any")


def _check_window(start: float, end: float) -> None:
    # Written so that NaN fails each test (every comparison with it is
    # false); ``end = inf`` is a window that never closes.
    if not start >= 0:
        raise SimulationError(f"link window start must be >= 0, got {start}")
    if not end > start:
        raise SimulationError(
            f"link window end must be > start, got [{start}, {end})"
        )


class _LinkRecord:
    """The directional channels a windowed link record names, and when.

    Shared by every per-link record: the fault records here and the
    scenario's :class:`~repro.sim.scenario.LinkCost`.
    """

    def channels(self) -> tuple[tuple[int, int], ...]:
        if self.directed:
            return ((self.u, self.v),)
        return ((self.u, self.v), (self.v, self.u))

    def covers(self, a: int, b: int, time: float) -> bool:
        """True iff this record applies to channel ``a -> b`` at ``time``."""
        return self.start <= time < self.end and (a, b) in self.channels()


@dataclass(frozen=True)
class LinkFault(_LinkRecord):
    """A link dead during ``[start, end)``.

    ``directed=False`` (default) kills both directional channels of the
    ``{u, v}`` link; ``directed=True`` kills only ``u -> v``.
    """

    u: int
    v: int
    start: float = 0.0
    end: float = math.inf
    directed: bool = False

    def __post_init__(self):
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class LinkDrop(_LinkRecord):
    """Per-hop message-drop probability on a link during ``[start, end)``."""

    u: int
    v: int
    rate: float
    start: float = 0.0
    end: float = math.inf
    directed: bool = False

    def __post_init__(self):
        _check_window(self.start, self.end)
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError(f"drop rate must be in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class NodeFailure:
    """Fail-stop: ``node`` makes no progress from virtual time ``time`` on."""

    node: int
    time: float = 0.0

    def __post_init__(self):
        if not self.time >= 0:  # (NaN too)
            raise SimulationError(f"fail-stop time must be >= 0, got {self.time}")


def _check_flip(model: str, flips: int) -> None:
    if model not in FLIP_MODELS:
        raise SimulationError(
            f"flip model must be one of {FLIP_MODELS}, got {model!r}"
        )
    if flips < 1:
        raise SimulationError(f"flips per corruption must be >= 1, got {flips}")


@dataclass(frozen=True)
class LinkCorruption(_LinkRecord):
    """Per-hop payload corruption on a link during ``[start, end)``.

    Each hop over the link is perturbed with probability ``rate``: ``flips``
    float64 words of the payload get one bit flipped each, the bit chosen
    by ``model`` (``"sign"`` bit 63, ``"exponent"`` bits 52–62,
    ``"mantissa"`` bits 0–51, ``"any"`` uniform over all 64).  The message
    still arrives on time — the fault is silent.
    """

    u: int
    v: int
    rate: float
    start: float = 0.0
    end: float = math.inf
    directed: bool = False
    model: str = "any"
    flips: int = 1

    def __post_init__(self):
        _check_window(self.start, self.end)
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError(
                f"corruption rate must be in [0, 1], got {self.rate}"
            )
        _check_flip(self.model, self.flips)


@dataclass(frozen=True)
class NodeCorruption:
    """One perturbed local-compute output block on ``node``.

    The first ``local_matmul`` on ``node`` completing at virtual time
    ``>= time`` has ``flips`` words of its output block bit-flipped (model
    as in :class:`LinkCorruption`).  Fires exactly once per entry — a
    transient soft error, not a stuck unit.
    """

    node: int
    time: float = 0.0
    model: str = "any"
    flips: int = 1

    def __post_init__(self):
        if not self.time >= 0:  # (NaN too)
            raise SimulationError(
                f"node-corruption time must be >= 0, got {self.time}"
            )
        _check_flip(self.model, self.flips)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded description of injected faults.

    Build one directly or fluently::

        plan = (
            FaultPlan(seed=42)
            .with_link_fault(0, 1, start=100.0, end=500.0)   # transient
            .with_drop_rate(0.01)                            # global 1%
            .with_node_failure(5, at=1000.0)                 # fail-stop
        )

    All fields are tuples so the plan is hashable and safe to embed in the
    frozen :class:`~repro.sim.machine.MachineConfig`.  A slow link is not
    a fault: it is a :class:`~repro.sim.scenario.LinkCost` on the
    machine's :class:`~repro.sim.scenario.NetworkScenario`.
    """

    seed: int = 0
    link_faults: tuple[LinkFault, ...] = ()
    drops: tuple[LinkDrop, ...] = ()
    drop_rate: float = 0.0
    node_failures: tuple[NodeFailure, ...] = ()
    corruptions: tuple[LinkCorruption, ...] = ()
    node_corruptions: tuple[NodeCorruption, ...] = ()
    #: when False, a dead link raises LinkFailedError instead of detouring
    reroute: bool = True

    def __post_init__(self):
        if not 0.0 <= self.drop_rate <= 1.0:
            raise SimulationError(
                f"global drop rate must be in [0, 1], got {self.drop_rate}"
            )
        seen = set()
        for nf in self.node_failures:
            if nf.node in seen:
                raise SimulationError(
                    f"node {nf.node} has more than one fail-stop time"
                )
            seen.add(nf.node)

    # -- fluent builders ---------------------------------------------------

    def with_link_fault(
        self,
        u: int,
        v: int,
        *,
        start: float = 0.0,
        end: float = math.inf,
        directed: bool = False,
    ) -> "FaultPlan":
        fault = LinkFault(u, v, start, end, directed)
        return replace(self, link_faults=self.link_faults + (fault,))

    def with_drop_rate(self, rate: float) -> "FaultPlan":
        return replace(self, drop_rate=rate)

    def with_link_drop(
        self,
        u: int,
        v: int,
        rate: float,
        *,
        start: float = 0.0,
        end: float = math.inf,
        directed: bool = False,
    ) -> "FaultPlan":
        drop = LinkDrop(u, v, rate, start, end, directed)
        return replace(self, drops=self.drops + (drop,))

    def with_node_failure(self, node: int, *, at: float = 0.0) -> "FaultPlan":
        failure = NodeFailure(node, at)
        return replace(self, node_failures=self.node_failures + (failure,))

    def with_link_corruption(
        self,
        u: int,
        v: int,
        rate: float,
        *,
        start: float = 0.0,
        end: float = math.inf,
        directed: bool = False,
        model: str = "any",
        flips: int = 1,
    ) -> "FaultPlan":
        corr = LinkCorruption(u, v, rate, start, end, directed, model, flips)
        return replace(self, corruptions=self.corruptions + (corr,))

    def with_node_corruption(
        self,
        node: int,
        *,
        at: float = 0.0,
        model: str = "any",
        flips: int = 1,
    ) -> "FaultPlan":
        corr = NodeCorruption(node, at, model, flips)
        return replace(self, node_corruptions=self.node_corruptions + (corr,))

    def without_reroute(self) -> "FaultPlan":
        """Strict mode: dead links raise
        :class:`~repro.errors.LinkFailedError` instead of detouring."""
        return replace(self, reroute=False)

    # -- queries (pure functions of the plan) ------------------------------

    @property
    def is_empty(self) -> bool:
        return (
            not self.link_faults
            and not self.drops
            and self.drop_rate == 0.0
            and not self.node_failures
            and not self.corruptions
            and not self.node_corruptions
        )

    @property
    def lossless(self) -> bool:
        """True iff no fault in this plan can *lose* a message.

        Link faults with rerouting enabled only detour (slower, not lost),
        so a plan with just those never needs acknowledgements or
        retransmission — the reliable layer fast-paths to plain delivery.
        Drops, node fail-stops, and dead links without rerouting can all
        swallow messages.  Corruption faults deliver (wrong) data on time,
        so they do not break losslessness — but see :attr:`can_corrupt`,
        which is what the integrity layer consults before fast-pathing.
        """
        return (
            self.drop_rate == 0.0
            and not self.drops
            and not self.node_failures
            and (self.reroute or not self.link_faults)
        )

    @property
    def can_corrupt(self) -> bool:
        """True iff some fault in this plan can silently perturb data."""
        return bool(self.corruptions) or bool(self.node_corruptions)

    def node_fail_time(self, node: int) -> float | None:
        for nf in self.node_failures:
            if nf.node == node:
                return nf.time
        return None

    def link_dead(self, u: int, v: int, time: float) -> bool:
        """True iff the directional channel ``u -> v`` is dead at ``time``
        (an explicit link fault, or either endpoint fail-stopped)."""
        for lf in self.link_faults:
            if lf.covers(u, v, time):
                return True
        for nf in self.node_failures:
            if time >= nf.time and nf.node in (u, v):
                return True
        return False

    def node_failed(self, node: int, time: float) -> bool:
        t = self.node_fail_time(node)
        return t is not None and time >= t

    def drop_probability(self, u: int, v: int, time: float) -> float:
        """Per-hop drop probability on ``u -> v`` at ``time``.

        The global rate and every covering per-link window are combined as
        independent loss processes: ``1 - Π(1 - rate_i)``.
        """
        survive = 1.0 - self.drop_rate
        for drop in self.drops:
            if drop.covers(u, v, time):
                survive *= 1.0 - drop.rate
        return 1.0 - survive


def _float_leaves(data) -> list[np.ndarray]:
    """Float64 array leaves of a (possibly nested) payload, in a
    deterministic traversal order — the words corruption can touch."""
    if isinstance(data, np.ndarray):
        return [data] if data.dtype == np.float64 and data.size else []
    if isinstance(data, (list, tuple)):
        return [leaf for item in data for leaf in _float_leaves(item)]
    if isinstance(data, dict):
        return [leaf for v in data.values() for leaf in _float_leaves(v)]
    return []


def _flip_bit(value: float, model: str, rng: np.random.Generator) -> float:
    """Flip one bit of a float64, the bit position chosen per ``model``."""
    if model == "sign":
        bit = 63
    elif model == "exponent":
        bit = 52 + int(rng.integers(11))
    elif model == "mantissa":
        bit = int(rng.integers(52))
    else:  # "any"
        bit = int(rng.integers(64))
    bits = np.float64(value).view(np.uint64)
    return float((bits ^ np.uint64(1 << bit)).view(np.float64))


class LinkWindow:
    """One window of a run's :class:`LinkTimeline`: every link's state in it.

    Between two consecutive edges of the timeline the point queries of the
    machine's :class:`FaultPlan` and of its scenario are constant, so for
    ``lo <= t < hi``: ``node_failed(n, t)`` is ``n in dead_nodes``,
    ``link_dead(u, v, t)`` is ``not alive(u, v)``, ``drop_probability`` and
    the covering corruptions are ``drop_p.get((u, v), base_drop_p)`` and
    ``corruptions.get((u, v), ())``, and the scenario's ``factors(u, v, t)``
    is ``factors.get((u, v), (1.0, 1.0))``, whose one-word hop cost
    ``ts_factor·t_s + tw_factor·t_w`` is ``weights``.  Products are
    accumulated in record order from the point queries' own starting
    values, so every float is ``==`` theirs.  ``dead``: the window kills
    something.  ``route``: how many route edges lie at or before ``lo``; a
    route found in one window holds in every window with the same index.
    """

    __slots__ = (
        "lo", "hi", "route", "dead_nodes", "dead_channels", "dead", "drop_p",
        "base_drop_p", "corruptions", "factors", "weights",
    )

    def __init__(self, timeline: "LinkTimeline", lo: float, hi: float):
        def covering(records):
            return [
                (rec, channel)
                for rec in records if rec.start <= lo < rec.end
                for channel in rec.channels()
            ]

        plan = timeline.plan
        self.lo, self.hi = lo, hi
        self.route = bisect.bisect_right(timeline.route_edges, lo)
        self.dead_nodes = {nf.node for nf in plan.node_failures if nf.time <= lo}
        self.dead_channels = {ch for _, ch in covering(plan.link_faults)}
        self.dead = bool(self.dead_nodes or self.dead_channels)
        survive = {}
        for drop, ch in covering(plan.drops):
            survive[ch] = survive.get(ch, 1.0 - plan.drop_rate) * (1.0 - drop.rate)
        self.drop_p = {ch: 1.0 - s for ch, s in survive.items()}
        self.base_drop_p = 1.0 - (1.0 - plan.drop_rate)
        corr = self.corruptions = {}
        for lc, ch in covering(plan.corruptions):
            corr[ch] = corr.get(ch, ()) + (lc,)
        factors = self.factors = {}
        for lc, ch in covering(timeline.costs):
            ts_f, tw_f = factors[ch] if ch in factors else (1.0, 1.0)
            factors[ch] = (ts_f * lc.ts_factor, tw_f * lc.tw_factor)
        t_s, t_w = timeline.t_s, timeline.t_w
        self.weights = {
            ch: ts_f * t_s + tw_f * t_w for ch, (ts_f, tw_f) in factors.items()
        }

    def alive(self, u: int, v: int) -> bool:
        """The routing layer's link predicate (``not link_dead``)."""
        dead_nodes = self.dead_nodes
        return not ((u, v) in self.dead_channels or u in dead_nodes or v in dead_nodes)


def _window_edges(*record_lists) -> set[float]:
    return {
        edge
        for records in record_lists for rec in records
        for edge in (rec.start, rec.end) if edge < math.inf
    }


class LinkTimeline:
    """One run's link state: the machine's fault plan and scenario, tabulated.

    ``config.faults`` says what is dead or lost and ``config.scenario`` what
    a hop costs; both are piecewise constant in time.  The timeline cuts
    time at the union of their edges (every ``start`` / finite ``end`` of a
    link record, every fail-stop instant) into :class:`LinkWindow`\\ s,
    built when a query first lands in one.  ``window`` is the last one hit:
    the engine reads it inline and calls :meth:`at` only when ``win.lo <= t
    < win.hi`` fails.

    Only some edges can change a route: a link fault's, a fail-stop, and a
    cost edge when the scenario routes adaptively.  Those are the route
    edges; a drop or corruption edge, or a cost edge under oblivious
    routing, opens a window with the same ``route`` index, so it costs no
    route search (:class:`~repro.topology.routing.RouteCache`).

    Every record must name a link or node of ``config.cube``: one that
    names nothing raises :class:`~repro.errors.SimulationError` here.
    """

    __slots__ = ("plan", "costs", "t_s", "t_w", "edges", "route_edges",
                 "_windows", "window")

    def __init__(self, config):
        plan = config.faults if config.faults is not None else FaultPlan()
        scenario = config.scenario
        self.plan = plan
        #: the scenario's entries that change a cost (not ``is_identity``),
        #: in declaration order
        self.costs = () if scenario is None else tuple([
            lc for lc in scenario.links
            if lc.ts_factor != 1.0 or lc.tw_factor != 1.0
        ])
        self.t_s, self.t_w = config.params.t_s, config.params.t_w
        cube, n = config.cube, config.num_nodes
        for rec in plan.link_faults + plan.drops + plan.corruptions + self.costs:
            u, v = rec.u, rec.v
            if not (0 <= u < n and 0 <= v < n and cube.are_neighbors(u, v)):
                raise SimulationError(f"{rec!r} names no link of this machine")
        for rec in plan.node_failures + plan.node_corruptions:
            if not 0 <= rec.node < n:
                raise SimulationError(f"{rec!r} names no node of this machine")
        fault_edges = {nf.time for nf in plan.node_failures} | _window_edges(
            plan.link_faults
        )
        cost_edges = _window_edges(self.costs)
        self.edges = sorted(
            fault_edges | cost_edges | _window_edges(plan.drops, plan.corruptions)
        )
        adaptive = scenario is not None and scenario.adaptive_routing
        self.route_edges = sorted(
            fault_edges | cost_edges if adaptive else fault_edges
        )
        self._windows: dict[int, LinkWindow] = {}
        self.window = self.at(0.0)

    def at(self, time: float) -> LinkWindow:
        """The window holding ``time`` (and from now on ``self.window``)."""
        edges = self.edges
        i = bisect.bisect_right(edges, time)
        win = self._windows.get(i)
        if win is None:
            win = self._windows[i] = LinkWindow(
                self,
                edges[i - 1] if i else -math.inf,
                edges[i] if i < len(edges) else math.inf,
            )
        self.window = win
        return win


class FaultState:
    """Per-run mutable view of a :class:`FaultPlan`.

    Owns the run's random streams (seeded from the plan) so repeated runs
    of the same ``(config, plan, program)`` draw identical decisions.  The
    engine creates one per run; plans themselves are never mutated.

    Drop rolls consume ``_rng`` (seeded from ``plan.seed`` alone, exactly
    as before corruption faults existed); corruption rolls and bit-flip
    draws consume the independent ``_crng`` — so mixing fault types never
    shifts either stream relative to a plan with one type only.  What the
    plan says at a time is the run's :class:`LinkTimeline`'s: a roll reads
    the :class:`LinkWindow` its caller holds.
    """

    __slots__ = ("plan", "_rng", "_crng", "_node_corr")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        # Second, independent stream for corruption decisions + bit flips.
        # Built only when it can ever be consumed, keyed off the same plan
        # seed through a distinct SeedSequence entropy tuple.
        self._crng = (
            np.random.default_rng((plan.seed, 0xC0FFEE))
            if plan.can_corrupt
            else None
        )
        # Per-node FIFO of pending compute corruptions, soonest first.
        self._node_corr: dict[int, list[NodeCorruption]] = {}
        for nc in sorted(plan.node_corruptions, key=lambda c: c.time):
            self._node_corr.setdefault(nc.node, []).append(nc)

    # Stateful (stream-consuming) ----------------------------------------

    def roll_drop(self, win: LinkWindow, u: int, v: int) -> bool:
        """Decide whether the hop starting in ``win`` on ``u -> v`` is lost.

        Draws from the run's stream only when the effective probability is
        positive, so fault-free links never perturb the stream.
        """
        p = win.drop_p.get((u, v), win.base_drop_p)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return bool(self._rng.random() < p)

    def roll_corruptions(
        self, win: LinkWindow, u: int, v: int
    ) -> list[LinkCorruption]:
        """Corruption faults triggering on the hop starting in ``win`` on
        ``u -> v``.

        Each covering fault rolls independently against its own rate, in
        plan order, drawing from the *corruption* stream only when the
        outcome is genuinely random (0 < rate < 1) — certain outcomes
        never consume it, and the drop stream is never touched.
        """
        out = []
        for lc in win.corruptions.get((u, v), ()):
            if lc.rate <= 0.0:
                continue
            if lc.rate >= 1.0 or self._crng.random() < lc.rate:
                out.append(lc)
        return out

    def take_node_corruption(self, node: int, time: float) -> NodeCorruption | None:
        """Pop the next compute corruption due on ``node`` at ``time``."""
        pending = self._node_corr.get(node)
        if not pending or time < pending[0].time:
            return None
        return pending.pop(0)

    def corrupt_payload(self, data, model: str, flips: int) -> int:
        """Flip bits in-place on ``data``'s float64 leaves; returns the
        number of words actually flipped (0 when there is nothing to flip:
        control messages without float payloads pass through unharmed,
        like small flits protected by their own header CRC)."""
        leaves = _float_leaves(data)
        total = sum(leaf.size for leaf in leaves)
        if total == 0:
            return 0
        crng = self._crng
        for _ in range(flips):
            idx = int(crng.integers(total))
            for leaf in leaves:
                if idx < leaf.size:
                    leaf.flat[idx] = _flip_bit(leaf.flat[idx], model, crng)
                    break
                idx -= leaf.size
        return flips
