"""Deterministic discrete-event simulator for hypercube message passing.

The simulator executes SPMD programs — one Python generator per rank — on a
2-ary n-cube whose communication obeys the paper's cost model: every hop of
an ``m``-word message costs ``t_s + t_w·m``, and concurrency is limited by
the node *port model*:

* :data:`PortModel.ONE_PORT` — a node sustains at most one outgoing and one
  incoming transfer at a time (full duplex),
* :data:`PortModel.MULTI_PORT` — every one of the node's ``log p`` links can
  carry a transfer in each direction simultaneously.

Messages between non-neighbours are forwarded store-and-forward along the
e-cube route, contending for intermediate nodes' ports/links.
"""

from repro.sim.machine import MachineConfig, MachineParams, PortModel, RoutingMode
from repro.sim.engine import Engine, run_spmd
from repro.sim.faults import (
    FaultPlan,
    FaultState,
    LinkDrop,
    LinkFault,
    NodeFailure,
)
from repro.sim.process import ProcessContext, ANY_SOURCE, ANY_TAG
from repro.sim.scenario import (
    LinkCost,
    NetworkScenario,
    background_traffic,
    congested_dimension,
    hotspot,
    random_heterogeneous,
    scenario_from_json,
    uniform,
)
from repro.sim.tracing import NetworkStats, RunResult, RankStats, TraceRecord
from repro.sim.gantt import render_gantt

__all__ = [
    "MachineConfig",
    "MachineParams",
    "PortModel",
    "RoutingMode",
    "Engine",
    "run_spmd",
    "FaultPlan",
    "FaultState",
    "LinkFault",
    "LinkDrop",
    "NodeFailure",
    "LinkCost",
    "NetworkScenario",
    "uniform",
    "hotspot",
    "congested_dimension",
    "random_heterogeneous",
    "background_traffic",
    "scenario_from_json",
    "ProcessContext",
    "ANY_SOURCE",
    "ANY_TAG",
    "RunResult",
    "RankStats",
    "NetworkStats",
    "TraceRecord",
    "render_gantt",
]
