"""Heterogeneous and degraded network scenarios: per-link cost models.

Every run used to assume one uniform ``(t_s, t_w)`` on every hypercube
link — the 1994 paper's machine model.  Real large-scale platforms are
heterogeneous and partially degraded: a flaky cable stretches one link's
bandwidth, a hot node's links all slow down under background traffic, a
whole dimension congests when a co-scheduled job shares the backplane.
A :class:`NetworkScenario` describes exactly that, as a declarative,
immutable per-link cost map:

* each :class:`LinkCost` entry multiplies one link's start-up cost
  (``ts_factor``) and per-word cost (``tw_factor``) during a virtual-time
  window ``[start, end)`` — multiple covering entries compose
  multiplicatively, like independent congestion sources,
* named profile constructors build the common shapes — :func:`uniform`,
  :func:`hotspot` (every link of one node), :func:`congested_dimension`
  (every link crossing one cube dimension), :func:`random_heterogeneous`
  (a seeded fraction of links slowed by a severity-scaled draw), and
  :func:`background_traffic` (time-windowed congestion bursts from
  co-scheduled jobs),
* :meth:`NetworkScenario.to_json` / :func:`scenario_from_json` give a
  replayable **condition-trace format**: a scenario captured from one run
  (or hand-written from deployment traces) replays bit-identically as a
  first-class scenario input to sweeps and chaos campaigns.

Scenarios compose with :class:`~repro.sim.faults.FaultPlan`: faults decide
what is *lost* or *dead*, the scenario decides what every surviving hop
*costs*.  A slow link has one model, a :class:`LinkCost` entry, and one
rule decides whether it is detoured: the scenario's ``adaptive_routing``.
A run tabulates both declarations into one timeline
(:class:`~repro.sim.faults.LinkTimeline`): each window holds the dead
links, the loss tables and the cost table, and one ``route`` index that
a cost edge advances only under adaptive routing, so a cached route is
keyed on one integer whichever declaration's window edge invalidates it.

Determinism
-----------
A scenario is a pure value: all randomness happens at *construction* time
(profile constructors draw from a seeded generator in a fixed link order)
and the resulting entry tuple is embedded in the frozen dataclass.  Two
scenarios built from the same arguments are equal, hash equal, digest
equal (:meth:`NetworkScenario.descriptor`), and cost every hop
identically — runs, replays, and parallel sweep shards can never diverge.

The **uniform** scenario (no entries, or all factors exactly 1.0) is
bit-identical to no scenario at all: the engine detects it and keeps the
healthy fast path, so the golden traces and the ``a·t_s + b·t_w``
linearity gates are unaffected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SimulationError
from repro.sim.faults import _check_window, _LinkRecord

__all__ = [
    "LinkCost",
    "NetworkScenario",
    "uniform",
    "hotspot",
    "congested_dimension",
    "random_heterogeneous",
    "background_traffic",
    "scenario_from_json",
]


@dataclass(frozen=True)
class LinkCost(_LinkRecord):
    """One link's cost multipliers during ``[start, end)``.

    ``ts_factor`` stretches the hop's start-up cost, ``tw_factor`` its
    per-word cost (1.0 = nominal; factors must be >= 1 — a scenario
    models degradation, never a faster-than-spec link).
    ``directed=False`` (default) covers both directional channels of the
    ``{u, v}`` link.
    """

    u: int
    v: int
    ts_factor: float = 1.0
    tw_factor: float = 1.0
    start: float = 0.0
    end: float = math.inf
    directed: bool = False

    def __post_init__(self):
        _check_window(self.start, self.end)
        for name in ("ts_factor", "tw_factor"):
            factor = getattr(self, name)
            if not factor >= 1.0:  # (NaN too)
                raise SimulationError(
                    f"cost factor {name} must be >= 1 (a slowdown), got {factor}"
                )

    @property
    def is_identity(self) -> bool:
        """True iff the entry never changes any hop's cost."""
        return self.ts_factor == 1.0 and self.tw_factor == 1.0

    def to_dict(self) -> dict:
        """JSON-able form (the condition-trace record for this entry)."""
        return {
            "u": self.u, "v": self.v,
            "ts_factor": self.ts_factor, "tw_factor": self.tw_factor,
            "start": self.start,
            "end": None if math.isinf(self.end) else self.end,
            "directed": self.directed,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "LinkCost":
        """Rebuild an entry from its :meth:`to_dict` record."""
        end = record.get("end")
        return cls(
            u=int(record["u"]), v=int(record["v"]),
            ts_factor=float(record.get("ts_factor", 1.0)),
            tw_factor=float(record.get("tw_factor", 1.0)),
            start=float(record.get("start", 0.0)),
            end=math.inf if end is None else float(end),
            directed=bool(record.get("directed", False)),
        )


@dataclass(frozen=True)
class NetworkScenario:
    """An immutable per-link ``(t_s, t_w)`` cost map for one machine.

    Attach it to a :class:`~repro.sim.machine.MachineConfig` (the
    ``scenario`` field / :meth:`~repro.sim.machine.MachineConfig.
    with_scenario`) and every hop over a covered link pays
    ``ts_factor·t_s + tw_factor·t_w·m`` instead of the uniform cost.

    ``adaptive_routing`` (default True) lets the engine route around
    expensive links: when the scenario is non-uniform, point-to-point
    routes are chosen by a deterministic cheapest-path search over the
    current per-link costs instead of blind e-cube order — a degraded
    link is detoured exactly like a congested street.  Set it False to
    keep e-cube routes and only pay the degraded costs (the
    oblivious-routing baseline).

    Build one from a profile constructor, fluently via
    :meth:`with_link_cost`, or from a replayed condition trace
    (:func:`scenario_from_json`).
    """

    name: str = "uniform"
    links: tuple[LinkCost, ...] = ()
    adaptive_routing: bool = True

    # Derived lookup structure (not a field: equality/hash/pickle are by
    # the declared fields; it is rebuilt in __post_init__).
    def __post_init__(self):
        by_channel: dict[tuple[int, int], list[LinkCost]] = {}
        for lc in self.links:
            for channel in lc.channels():
                by_channel.setdefault(channel, []).append(lc)
        object.__setattr__(self, "_by_channel", by_channel)

    def __getstate__(self):
        return {
            "name": self.name, "links": self.links,
            "adaptive_routing": self.adaptive_routing,
        }

    def __setstate__(self, state):
        for k, v in state.items():
            object.__setattr__(self, k, v)
        self.__post_init__()

    # -- fluent builder ----------------------------------------------------

    def with_link_cost(
        self,
        u: int,
        v: int,
        *,
        ts_factor: float = 1.0,
        tw_factor: float = 1.0,
        start: float = 0.0,
        end: float = math.inf,
        directed: bool = False,
    ) -> "NetworkScenario":
        """This scenario plus one more :class:`LinkCost` entry."""
        lc = LinkCost(u, v, ts_factor, tw_factor, start, end, directed)
        return replace(self, links=self.links + (lc,))

    def with_adaptive_routing(self, adaptive: bool) -> "NetworkScenario":
        """The same cost map with cheapest-path routing on or off."""
        return replace(self, adaptive_routing=adaptive)

    # -- queries -----------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """True iff no entry can ever change a hop's cost.

        The engine treats a uniform scenario exactly like ``None``: the
        healthy fast path stays engaged and runs are bit-identical to a
        machine with no scenario at all.
        """
        return all(lc.is_identity for lc in self.links)

    def factors(self, u: int, v: int, time: float) -> tuple[float, float]:
        """Combined ``(ts_factor, tw_factor)`` on channel ``u -> v`` at
        ``time``; covering entries compose multiplicatively."""
        ts_f = tw_f = 1.0
        for lc in self._by_channel.get((u, v), ()):
            if lc.start <= time < lc.end:
                ts_f *= lc.ts_factor
                tw_f *= lc.tw_factor
        return (ts_f, tw_f)

    def worst_case_factor(self) -> float:
        """Upper bound on any single hop's slowdown under this scenario.

        Per directional channel, the product of *all* its entries'
        factors (as if every window overlapped), maximized over channels
        and over the start-up/per-word components.  Conservative by
        construction — this is what timeout budgets derive from, and a
        budget that is too generous only waits, while one that is too
        tight convicts a slow-but-healthy link as dead.
        """
        worst = 1.0
        for entries in self._by_channel.values():
            ts_f = tw_f = 1.0
            for lc in entries:
                ts_f *= lc.ts_factor
                tw_f *= lc.tw_factor
            worst = max(worst, ts_f, tw_f)
        return worst

    # -- cache / replay support -------------------------------------------

    def descriptor(self) -> dict:
        """Canonical JSON-able description for result-cache keys.

        Two scenarios with different cost maps (or routing policies)
        always produce different descriptors, so heterogeneous runs can
        never collide with uniform-cost cached results.
        """
        return {
            "name": self.name,
            "adaptive_routing": self.adaptive_routing,
            "links": [
                {k: (v if v is not None else "inf")
                 for k, v in lc.to_dict().items()}
                for lc in self.links
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize as a replayable network-condition trace."""
        payload = {
            "version": 1,
            "name": self.name,
            "adaptive_routing": self.adaptive_routing,
            "links": [lc.to_dict() for lc in self.links],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def scenario_from_json(text: str) -> NetworkScenario:
    """Rebuild a :class:`NetworkScenario` from its condition-trace JSON.

    The inverse of :meth:`NetworkScenario.to_json`; a replayed scenario
    compares equal to the original and costs every hop identically.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "links" not in payload:
        raise SimulationError("condition trace must be an object with 'links'")
    version = payload.get("version", 1)
    if version != 1:
        raise SimulationError(f"unknown condition-trace version {version!r}")
    return NetworkScenario(
        name=str(payload.get("name", "trace")),
        links=tuple(LinkCost.from_dict(r) for r in payload["links"]),
        adaptive_routing=bool(payload.get("adaptive_routing", True)),
    )


# ---------------------------------------------------------------------------
# named profiles
# ---------------------------------------------------------------------------


def _check_nodes(num_nodes: int) -> int:
    if num_nodes < 2 or num_nodes & (num_nodes - 1):
        raise SimulationError(
            f"scenario profiles need a power-of-two node count >= 2, "
            f"got {num_nodes}"
        )
    return num_nodes.bit_length() - 1


def _check_factor(factor: float) -> None:
    if not factor >= 1.0:  # (NaN too)
        raise SimulationError(
            f"profile factor must be >= 1 (a slowdown), got {factor}"
        )


def _all_links(num_nodes: int) -> list[tuple[int, int]]:
    """Every undirected hypercube link, in deterministic (u, dim) order."""
    dim = num_nodes.bit_length() - 1
    return [
        (u, u ^ (1 << d))
        for u in range(num_nodes)
        for d in range(dim)
        if u < u ^ (1 << d)
    ]


def uniform() -> NetworkScenario:
    """The identity scenario: every link at nominal cost.

    Attaching it is bit-identical to attaching no scenario — the
    passthrough the uniform-overhead benchmark pins at 1.00x.
    """
    return NetworkScenario(name="uniform")


def hotspot(
    num_nodes: int,
    node: int,
    factor: float = 4.0,
    *,
    ts_factor: float | None = None,
) -> NetworkScenario:
    """Every link incident to ``node`` degraded by ``factor``.

    Models one overloaded node (an oversubscribed NIC, a thermally
    throttled router).  ``ts_factor`` defaults to ``factor`` as well —
    congestion delays small control messages too.
    """
    _check_nodes(num_nodes)
    _check_factor(factor)
    if not 0 <= node < num_nodes:
        raise SimulationError(
            f"hotspot node {node} out of range for {num_nodes} nodes"
        )
    ts_f = factor if ts_factor is None else ts_factor
    dim = num_nodes.bit_length() - 1
    links = tuple(
        LinkCost(node, node ^ (1 << d), ts_factor=ts_f, tw_factor=factor)
        for d in range(dim)
    )
    return NetworkScenario(name=f"hotspot:{node}x{factor:g}", links=links)


def congested_dimension(
    num_nodes: int,
    dimension: int,
    factor: float = 4.0,
    *,
    start: float = 0.0,
    end: float = math.inf,
) -> NetworkScenario:
    """Every link crossing cube ``dimension`` degraded by ``factor``.

    Models a congested backplane stage: on real hypercubes one dimension
    often maps to one physical switch layer, so a busy co-scheduled job
    degrades all of its links together.  ``start``/``end`` window the
    congestion in virtual time.
    """
    d = _check_nodes(num_nodes)
    _check_factor(factor)
    if not 0 <= dimension < d:
        raise SimulationError(
            f"dimension {dimension} out of range for a {d}-cube"
        )
    links = tuple(
        LinkCost(u, u ^ (1 << dimension), tw_factor=factor, ts_factor=factor,
                 start=start, end=end)
        for u in range(num_nodes)
        if u < u ^ (1 << dimension)
    )
    return NetworkScenario(
        name=f"congested-dim:{dimension}x{factor:g}", links=links
    )


def random_heterogeneous(
    num_nodes: int,
    severity: float,
    *,
    fraction: float = 0.2,
    seed: int = 0,
) -> NetworkScenario:
    """A seeded ``fraction`` of links slowed by a severity-scaled draw.

    The robustness question this profile answers: *how do the paper's
    winners shift when the network is 20% heterogeneous?*  Each
    undirected link, visited in deterministic order, draws (1) a
    selection roll against ``fraction`` and (2) two magnitude draws —
    the affected links get ``tw_factor = 1 + severity·d`` and
    ``ts_factor = 1 + severity·d'`` with ``d, d' ~ U[0.5, 1.5)``.  Every
    link consumes its draws whether selected or not, so the *same seed*
    keeps the same affected set and per-link magnitudes across
    severities: overhead curves over ``severity`` are continuous and
    differ only in how slow the slow links are.

    ``severity = 0`` returns a scenario whose entries are all identity
    (``is_uniform``), so the severity axis starts bit-identical to the
    uniform machine.
    """
    _check_nodes(num_nodes)
    if not severity >= 0:  # (NaN too)
        raise SimulationError(f"severity must be >= 0, got {severity}")
    if not 0.0 <= fraction <= 1.0:
        raise SimulationError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng((seed, 0x5CE9A810))
    links = []
    for u, v in _all_links(num_nodes):
        select = float(rng.random())
        d_tw = 0.5 + float(rng.random())
        d_ts = 0.5 + float(rng.random())
        if select < fraction:
            links.append(LinkCost(
                u, v,
                ts_factor=1.0 + severity * d_ts,
                tw_factor=1.0 + severity * d_tw,
            ))
    return NetworkScenario(
        name=f"random:s{severity:g}f{fraction:g}#{seed}",
        links=tuple(links),
    )


def background_traffic(
    num_nodes: int,
    *,
    jobs: int = 3,
    horizon: float = 10_000.0,
    factor: float = 3.0,
    seed: int = 0,
) -> NetworkScenario:
    """Time-windowed congestion bursts from co-scheduled jobs.

    Each of ``jobs`` phantom neighbours claims one cube dimension for a
    seeded window inside ``[0, horizon)`` and degrades every link of
    that dimension by ``factor`` while it runs — the shape a sweep sees
    when it shares the machine.  All draws come from a seeded generator
    in job order, so the traffic pattern replays bit-identically.
    """
    d = _check_nodes(num_nodes)
    _check_factor(factor)
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    if not horizon > 0:  # (NaN too)
        raise SimulationError(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng((seed, 0xBAC6F1C))
    links: list[LinkCost] = []
    for _ in range(jobs):
        dimension = int(rng.integers(d))
        start = float(rng.random() * 0.6 * horizon)
        end = start + float((0.2 + 0.5 * rng.random()) * horizon)
        for u in range(num_nodes):
            v = u ^ (1 << dimension)
            if u < v:
                links.append(LinkCost(
                    u, v, ts_factor=factor, tw_factor=factor,
                    start=start, end=end,
                ))
    return NetworkScenario(
        name=f"background:{jobs}j#{seed}", links=tuple(links)
    )


# Names honoured by profile-string lookups (CLI, chaos, degradation).
PROFILES = ("uniform", "random", "hotspot", "dimension", "background")
