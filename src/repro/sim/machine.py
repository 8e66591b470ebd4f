"""Machine description: cost parameters and the port model.

The paper models the time for a node to send an ``m``-word message to a
neighbour as ``t_s + t_w·m`` where ``t_s`` is the start-up (latency) cost
and ``t_w`` the per-word transmission time.  Computation time, when modelled
at all, is ``t_c`` per floating-point operation; the paper's analysis sets
computation aside and compares pure communication overheads, so ``t_c``
defaults to zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.topology.hypercube import Hypercube

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan
    from repro.sim.scenario import NetworkScenario

__all__ = ["PortModel", "RoutingMode", "MachineParams", "MachineConfig"]


class RoutingMode(enum.Enum):
    """How multi-hop messages traverse the e-cube route.

    ``STORE_AND_FORWARD`` (default)
        Each hop completes before the next begins: an ``M``-word transfer
        over ``h`` hops costs ``h·(t_s + t_w·M)``.  This is the accounting
        behind the paper's one-port expressions (e.g. DNS phase 1's
        ``2·log∛p·(t_s + t_w·m)``).

    ``CUT_THROUGH``
        Hops pipeline behind the header: hop ``i+1`` starts ``t_s`` after
        hop ``i`` (virtual cut-through with ample buffering), so an
        uncontended transfer costs ``h·t_s + t_w·M``.  This matches the
        multi-hop accounting implicit in the paper's *multi-port* rows for
        DNS and 3DD, and is how iPSC/2-class hardware actually routed.
        Each link is still held for its full ``t_s + t_w·M`` occupancy.
    """

    STORE_AND_FORWARD = "store-and-forward"
    CUT_THROUGH = "cut-through"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PortModel(enum.Enum):
    """How many links a node may drive simultaneously.

    ``ONE_PORT``
        At most one outgoing transfer at any time, full duplex: while
        sending one message a node can simultaneously receive one (possibly
        on a different link — e.g. shifting data around a ring by sending
        right while receiving from the left, the accounting the paper uses
        for Cannon's algorithm).  Only the send side is serialized as a
        resource; see :class:`repro.sim.ports.ContentionTracker` for why.

    ``MULTI_PORT``
        All ``log p`` links usable at once, each full duplex.
    """

    ONE_PORT = "one-port"
    MULTI_PORT = "multi-port"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MachineParams:
    """Communication/computation cost parameters.

    Attributes
    ----------
    t_s:
        Message start-up cost (per hop).
    t_w:
        Per-word transmission time (per hop).
    t_c:
        Time per floating-point operation (0 = ignore computation, which is
        what the paper's communication-overhead comparison does).
    """

    t_s: float = 150.0
    t_w: float = 3.0
    t_c: float = 0.0

    def __post_init__(self):
        if self.t_s < 0 or self.t_w < 0 or self.t_c < 0:
            raise SimulationError(
                f"machine parameters must be non-negative: {self}"
            )

    def hop_time(self, nwords: int) -> float:
        """Time for one ``nwords``-word hop between nominal neighbours."""
        if nwords < 0:
            raise SimulationError(f"message size must be >= 0, got {nwords}")
        return self.t_s + self.t_w * nwords

    def flops_time(self, flops: float) -> float:
        if not flops >= 0:  # NaN too
            raise SimulationError(f"flop count must be >= 0, got {flops}")
        return self.t_c * flops


# Parameter sets used for the paper's Figures 13/14.  The paper presents
# graphs "for three different sets of values of t_s and t_w", naming
# t_s = 150, t_w = 3 explicitly (iPSC/860-class) and discussing behaviour
# for "very small values of t_s"; the other members below bracket that
# space (balanced and latency-free extremes).
PAPER_PARAMS = {
    "ipsc860": MachineParams(t_s=150.0, t_w=3.0),
    "balanced": MachineParams(t_s=10.0, t_w=3.0),
    "zero_startup": MachineParams(t_s=0.5, t_w=3.0),
}


@dataclass(frozen=True)
class MachineConfig:
    """A simulated machine: topology + costs + port model.

    Parameters
    ----------
    cube:
        The physical topology — a :class:`~repro.topology.hypercube.
        Hypercube` for everything in the paper, or any object with the
        same duck-typed surface (``num_nodes``, ``nodes()``,
        ``are_neighbors``, ``route_hops``), e.g.
        :class:`~repro.topology.torus.Torus2D` for the Cannon-on-torus
        comparison.
    params:
        Cost parameters.
    port_model:
        One-port or multi-port node capability.
    copy_on_send:
        When True (default) message payload arrays are copied at send time,
        so a sender may freely overwrite its buffer after ``send`` returns —
        the same guarantee MPI's blocking send gives.
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` injecting link
        failures, message drops, corruption and node fail-stops into
        every run on this machine.  ``None`` (default) simulates a perfect
        network.
    scenario:
        Optional :class:`~repro.sim.scenario.NetworkScenario` assigning
        per-link ``(t_s, t_w)`` cost multipliers — a heterogeneous or
        degraded network, and the one model of a slow link.  ``None``
        (default) and a uniform scenario both cost every link identically.
    """

    cube: Hypercube
    params: MachineParams = field(default_factory=MachineParams)
    port_model: PortModel = PortModel.ONE_PORT
    copy_on_send: bool = True
    routing: RoutingMode = RoutingMode.STORE_AND_FORWARD
    faults: "FaultPlan | None" = None
    scenario: "NetworkScenario | None" = None

    @classmethod
    def create(
        cls,
        num_nodes: int,
        *,
        t_s: float = 150.0,
        t_w: float = 3.0,
        t_c: float = 0.0,
        port_model: PortModel = PortModel.ONE_PORT,
        copy_on_send: bool = True,
        routing: RoutingMode = RoutingMode.STORE_AND_FORWARD,
        faults: "FaultPlan | None" = None,
        scenario: "NetworkScenario | None" = None,
    ) -> "MachineConfig":
        """Convenience constructor from a node count."""
        return cls(
            cube=Hypercube.with_nodes(num_nodes),
            params=MachineParams(t_s=t_s, t_w=t_w, t_c=t_c),
            port_model=port_model,
            copy_on_send=copy_on_send,
            routing=routing,
            faults=faults,
            scenario=scenario,
        )

    @classmethod
    def create_torus(
        cls,
        rows: int,
        cols: int,
        *,
        t_s: float = 150.0,
        t_w: float = 3.0,
        t_c: float = 0.0,
        port_model: PortModel = PortModel.ONE_PORT,
        routing: RoutingMode = RoutingMode.STORE_AND_FORWARD,
        faults: "FaultPlan | None" = None,
        scenario: "NetworkScenario | None" = None,
    ) -> "MachineConfig":
        """A 2-D torus machine (for the Cannon-on-torus comparison)."""
        from repro.topology.torus import Torus2D

        return cls(
            cube=Torus2D(rows, cols),
            params=MachineParams(t_s=t_s, t_w=t_w, t_c=t_c),
            port_model=port_model,
            routing=routing,
            faults=faults,
            scenario=scenario,
        )

    @property
    def num_nodes(self) -> int:
        return self.cube.num_nodes

    @property
    def topology(self):
        """Alias for :attr:`cube` (which may hold a non-hypercube)."""
        return self.cube

    @property
    def dimension(self) -> int:
        return getattr(self.cube, "dimension", 0)

    def with_params(self, params: MachineParams) -> "MachineConfig":
        return MachineConfig(
            self.cube, params, self.port_model, self.copy_on_send,
            self.routing, self.faults, self.scenario,
        )

    def with_port_model(self, port_model: PortModel) -> "MachineConfig":
        return MachineConfig(
            self.cube, self.params, port_model, self.copy_on_send,
            self.routing, self.faults, self.scenario,
        )

    def with_routing(self, routing: RoutingMode) -> "MachineConfig":
        return MachineConfig(
            self.cube, self.params, self.port_model, self.copy_on_send,
            routing, self.faults, self.scenario,
        )

    def with_faults(self, faults: "FaultPlan | None") -> "MachineConfig":
        """The same machine with a (possibly different) fault plan."""
        return MachineConfig(
            self.cube, self.params, self.port_model, self.copy_on_send,
            self.routing, faults, self.scenario,
        )

    def with_scenario(
        self, scenario: "NetworkScenario | None"
    ) -> "MachineConfig":
        """The same machine with a (possibly different) network scenario."""
        return MachineConfig(
            self.cube, self.params, self.port_model, self.copy_on_send,
            self.routing, self.faults, scenario,
        )
