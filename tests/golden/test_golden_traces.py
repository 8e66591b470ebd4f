"""Golden-trace regression gate for the discrete-event engine.

Every registered algorithm is executed (traced) on small one-port and
multi-port machines at ``p ∈ {8, 64}`` plus a handful of extra cases
(cut-through routing, a rerouted link fault, heterogeneous-machine
scenarios, one traced timeline per resilience layer of ``repro.mpi``, and
one sweep-service report digest), and the resulting
:meth:`~repro.sim.tracing.RunResult.trace_digest` is compared against the
committed fixture ``tests/golden/golden_traces.json``.

The digest covers the full serialized event timeline — (rank, event kind,
start/end time, payload metadata) per hop/compute/fault event, per-rank
counters, phase boundaries, and the makespan — so *any* engine change that
perturbs a single event time or reorders two events fails this suite
loudly.  The fixtures were generated from the pre-optimization engine; the
fast-path work (route caching, event batching, dispatch interning) is
required to keep them bit-identical.

Intentional behaviour changes regenerate the fixtures with::

    PYTHONPATH=src python -m pytest tests/golden --regen-golden
"""

from __future__ import annotations

import functools
import json
import pathlib

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.algorithms.abft import ABFTMatmul
from repro.mpi import CheckpointedMatmul, IntegrityContext, ReliableContext
from repro.sim import FaultPlan, MachineConfig, PortModel, RoutingMode
from repro.sim.scenario import (
    NetworkScenario,
    congested_dimension,
    hotspot,
    random_heterogeneous,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_traces.json"

#: candidate matrix sizes, smallest applicable one is used per algorithm
_CANDIDATE_NS = (4, 6, 8, 9, 12, 16, 24, 27, 32, 48, 64)

#: machine parameters shared by every golden case; t_c > 0 so compute
#: events land in the timeline too
_PARAMS = {"t_s": 7.0, "t_w": 3.0, "t_c": 0.5}


def _pick_n(key: str, p: int) -> int | None:
    algo = ALGORITHMS[key]
    for n in _CANDIDATE_NS:
        if algo.applicable(n, p):
            return n
    return None


def _base_cases() -> list[tuple[str, str, int, int, PortModel, RoutingMode]]:
    """(case_id, key, n, p, port, routing) for the registry sweep."""
    cases = []
    for key in sorted(ALGORITHMS):
        for p in (8, 64):
            n = _pick_n(key, p)
            if n is None:
                continue
            for port in (PortModel.ONE_PORT, PortModel.MULTI_PORT):
                case_id = f"{key}-n{n}-p{p}-{port.value}-sf"
                cases.append(
                    (case_id, key, n, p, port, RoutingMode.STORE_AND_FORWARD)
                )
    # Cut-through routing pins the pipelined-hop scheduling path.
    for key in ("cannon", "3d_all"):
        n = _pick_n(key, 64)
        if n is not None:
            cases.append(
                (
                    f"{key}-n{n}-p64-one-port-ct",
                    key, n, 64, PortModel.ONE_PORT, RoutingMode.CUT_THROUGH,
                )
            )
    return cases


CASES = _base_cases()


def _run_case(key: str, n: int, p: int, port: PortModel, routing: RoutingMode):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    config = MachineConfig.create(
        p, port_model=port, routing=routing, **_PARAMS
    )
    return get_algorithm(key).run(A, B, config, verify=True, trace=True)


def _run_fault_case():
    """A rerouted-link-fault run: pins the detour path of the route layer."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 8))
    plan = FaultPlan(seed=5).with_link_fault(0, 1, start=0.0)
    config = MachineConfig.create(16, faults=plan, **_PARAMS)
    return get_algorithm("cannon").run(A, B, config, verify=True, trace=True)


FAULT_CASE_ID = "cannon-n8-p16-one-port-sf-linkfault"


def _run_scenario_case(key: str, n: int, p: int, scenario, **machine):
    """A degraded-machine run: pins the scenario-scaled link timings."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    config = MachineConfig.create(p, scenario=scenario, **machine, **_PARAMS)
    return get_algorithm(key).run(A, B, config, verify=True, trace=True)


#: (case_id, key, n, p, scenario) — one random-heterogeneous profile and
#: one hotspot, covering both scenario generators in the timeline gate
SCENARIO_CASES = [
    (
        "cannon-n8-p16-one-port-sf-hetero",
        "cannon", 8, 16,
        random_heterogeneous(16, 1.5, seed=3),
    ),
    (
        "3d_all-n8-p8-one-port-sf-hotspot",
        "3d_all", 8, 8,
        hotspot(8, node=0, factor=3.0),
    ),
]


def _load_fixtures() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def _record(run) -> dict:
    res = run.result
    return {
        "digest": res.trace_digest(),
        "total_time": res.total_time,
        "events": len(res.trace),
        "messages": res.total_messages(),
        "words": res.total_words_sent(),
    }


def _check_or_regen(case_id: str, got: dict, regen: bool) -> None:
    fixtures = _load_fixtures()
    if regen:
        fixtures[case_id] = got
        GOLDEN_PATH.write_text(
            json.dumps(fixtures, indent=1, sort_keys=True) + "\n"
        )
        return
    if case_id not in fixtures:
        pytest.fail(
            f"no golden fixture for {case_id!r}; run pytest tests/golden "
            "--regen-golden to record it"
        )
    want = fixtures[case_id]
    if "total_time" in want:
        assert got["total_time"] == want["total_time"], (
            f"{case_id}: makespan changed {want['total_time']!r} -> "
            f"{got['total_time']!r}"
        )
    assert got == want, (
        f"{case_id}: event timeline diverged from the committed golden "
        f"trace ({want['events']} events, digest {want['digest'][:12]}…) — "
        "an engine change perturbed event times or ordering.  If the "
        "change is intentional, regenerate with --regen-golden."
    )


@pytest.mark.parametrize(
    "case_id,key,n,p,port,routing", CASES, ids=[c[0] for c in CASES]
)
def test_golden_trace(case_id, key, n, p, port, routing, regen_golden):
    run = _run_case(key, n, p, port, routing)
    _check_or_regen(case_id, _record(run), regen_golden)


def test_golden_trace_rerouted_fault(regen_golden):
    run = _run_fault_case()
    assert run.result.network.hops_rerouted > 0  # the detour actually fired
    _check_or_regen(FAULT_CASE_ID, _record(run), regen_golden)


@pytest.mark.parametrize(
    "case_id,key,n,p,scenario", SCENARIO_CASES,
    ids=[c[0] for c in SCENARIO_CASES],
)
def test_golden_trace_heterogeneous(case_id, key, n, p, scenario,
                                    regen_golden):
    run = _run_scenario_case(key, n, p, scenario)
    _check_or_regen(case_id, _record(run), regen_golden)


# Cost-aware routes where equal-cost ties decide them (p = 64: a whole
# congested dimension leaves many minimal orders of equal cost), recorded
# at the commit before the bounded cheapest-path search.

TIE_CT_CASE_ID = "3dd-n16-p64-one-port-ct-congested-dim1"
TIE_FAULT_CASE_ID = "cannon-n16-p64-one-port-sf-hetero-linkfault"


def test_golden_trace_congested_dimension_cut_through(regen_golden):
    run = _run_scenario_case(
        "3dd", 16, 64, congested_dimension(64, 1, 4.0),
        routing=RoutingMode.CUT_THROUGH,
    )
    _check_or_regen(TIE_CT_CASE_ID, _record(run), regen_golden)


def test_golden_trace_heterogeneous_rerouted_fault(regen_golden):
    """Both piecewise-constant layers at once: the link dies at t = 10
    under messages routed at t = 0 (the mid-flight splice re-routes them
    by cost) and heals at t = 310 (the cache key, the timeline window's
    route index, must not serve the detour afterwards)."""
    plan = FaultPlan(seed=5).with_link_fault(16, 18, start=10.0, end=310.0)
    run = _run_scenario_case(
        "cannon", 16, 64, random_heterogeneous(64, 2.0, seed=1), faults=plan,
    )
    assert run.result.network.hops_rerouted == 4  # the splice fired
    _check_or_regen(TIE_FAULT_CASE_ID, _record(run), regen_golden)


# -- resilience stack --------------------------------------------------------
# The protocol layers under ``repro.mpi`` (reliable, integrity, detector,
# recovery) each pin one traced timeline, so a refactor of the stack that
# moves an ack, a retransmission, a probe or a restart epoch by one event
# fails here — ``test_replay_determinism.py`` only compares two runs of
# one process.


def _int_operands(n: int):
    """Small-integer operands: a recovered product is exact, not close."""
    rng = np.random.default_rng(0)
    A = rng.integers(-4, 5, (n, n)).astype(float)
    B = rng.integers(-4, 5, (n, n)).astype(float)
    return A, B


def _resilient_cannon(n: int, plan: FaultPlan | None, factory, scenario=None):
    A, B = _int_operands(n)
    config = MachineConfig.create(16, faults=plan, scenario=scenario, **_PARAMS)
    return get_algorithm("cannon").run(
        A, B, config, verify=True, trace=True, context_factory=factory
    )


def _run_reliable_drops():
    plan = FaultPlan(seed=7).with_drop_rate(0.05)
    run = _resilient_cannon(8, plan, ReliableContext)
    assert run.result.network.retransmissions > 0
    return run


def _run_integrity_corruption():
    plan = (FaultPlan(seed=4)
            .with_link_corruption(0, 1, 0.4)
            .with_drop_rate(0.03))
    run = _resilient_cannon(8, plan, IntegrityContext)
    net = run.result.network
    assert net.integrity_rejects > 0 and net.messages_dropped > 0
    return run


def _run_integrity_forced():
    run = _resilient_cannon(
        8, None, functools.partial(IntegrityContext, force_protocol=True)
    )
    assert run.result.network.retransmissions == 0
    return run


def _killed_config(n: int, runner, fraction: float):
    """A 16-node machine whose node 6 fail-stops ``fraction`` of the way
    through ``runner``'s own fault-free run."""
    A, B = _int_operands(n)
    clean = MachineConfig.create(16, **_PARAMS)
    base = runner.run(A, B, clean)
    plan = FaultPlan(seed=1).with_node_failure(6, at=base.total_time * fraction)
    return A, B, clean.with_faults(plan)


def _run_abft_kill():
    runner = ABFTMatmul(get_algorithm("cannon"), mode="abft")
    A, B, config = _killed_config(12, runner, 0.3)
    run = runner.run(A, B, config, trace=True)
    assert run.mode == "abft" and run.dead == (6,) and run.recovered
    assert np.array_equal(run.C, A @ B)
    return run


def _run_checkpoint_kill():
    runner = CheckpointedMatmul(get_algorithm("cannon"))
    A, B, config = _killed_config(8, runner, 0.4)
    run = runner.run(A, B, config, trace=True)
    assert run.machine == "sub" and run.epochs >= 1 and run.dead == (6,)
    assert np.array_equal(run.C, A @ B)
    return run


#: (case_id, runner) — one traced timeline per protocol layer
RESILIENCE_CASES = [
    ("reliable-cannon-n8-p16-drop5", _run_reliable_drops),
    ("integrity-cannon-n8-p16-corrupt-drop", _run_integrity_corruption),
    ("integrity-forced-cannon-n8-p16-clean", _run_integrity_forced),
    ("abft-cannon-n12-p16-kill6-substitute", _run_abft_kill),
    ("checkpoint-cannon-n8-p16-kill6-subcube", _run_checkpoint_kill),
]


def _resilience_record(run) -> dict:
    net = run.result.network
    return {
        **_record(run),
        "retransmissions": net.retransmissions,
        "drops": net.messages_dropped,
        "integrity_rejects": net.integrity_rejects,
        "epochs": getattr(run, "epochs", 0),
    }


@pytest.mark.parametrize(
    "case_id,runner", RESILIENCE_CASES, ids=[c[0] for c in RESILIENCE_CASES]
)
def test_golden_trace_resilience(case_id, runner, regen_golden):
    _check_or_regen(case_id, _resilience_record(runner()), regen_golden)


WINDOW_EDGE_CASE_ID = "reliable-cannon-n8-p16-window-edges-between-time-and-start"


def test_golden_trace_window_edge_between_hop_time_and_start(regen_golden):
    """Four second sends of the one-port skew are ready at ``time`` 0 and
    queue behind the first until their reservation ``start`` 19; a fault
    window edge falls between the two.  Link health and the scenario's
    link cost are read at ``time``, the drop roll at ``start``.  Recorded
    at the commit before the per-window fault table, when the slow link
    was a fault-plan degradation."""
    plan = (
        FaultPlan(seed=11)
        # dies at 10 under a queued hop: the hop still crosses at 19
        .with_link_fault(5, 1, start=10.0, end=60.0, directed=True)
        # opens at 10: the hop that was ready at 0 is dropped at 19
        .with_link_drop(6, 14, 1.0, start=10.0, end=30.0, directed=True)
        # closed at 15: the hop that was ready inside it survives at 19
        .with_link_drop(10, 2, 1.0, start=0.0, end=15.0, directed=True)
    )
    # opens at 10: the hop that was ready at 0 is not slowed at 19
    slow = NetworkScenario().with_link_cost(
        7, 3, tw_factor=2.0, start=10.0, end=40.0, directed=True
    ).with_adaptive_routing(False)
    run = _resilient_cannon(8, plan, ReliableContext, slow)
    trace = run.result.trace
    queued = {
        (rec.rank, rec.info["to"]): rec
        for rec in trace if rec.kind == "hop" and rec.start == 19.0
    }
    for channel in ((5, 1), (6, 14), (10, 2), (7, 3)):
        assert queued[channel].end == 38.0  # 7 + 3·4 words, undegraded
    assert "slow" not in queued[(7, 3)].info
    drops = [rec for rec in trace if rec.kind == "drop"]
    assert [(d.start, d.info["msg"]) for d in drops] == [
        (19.0, queued[(6, 14)].info["msg"])
    ]
    reroutes = [rec for rec in trace if rec.kind == "reroute"]
    assert [(r.start, r.info["src"], r.info["dst"]) for r in reroutes] == [
        (53.0, 5, 1)  # ready inside the window: this one does detour
    ]
    _check_or_regen(WINDOW_EDGE_CASE_ID, _resilience_record(run), regen_golden)


SERVICE_CASE_ID = "service-sweep-n-cannon-berntsen"


def test_golden_service_report_digest(regen_golden):
    """The sweep service's report digest is itself golden: any change to
    cell evaluation, record schema, params normalization, or the
    canonical-JSON digest recipe moves it."""
    from repro.service.jobs import (
        build_cells,
        evaluate_chunk,
        finalize,
        make_spec,
    )

    spec = make_spec("sweep", {
        "algorithms": ["cannon", "berntsen"],
        "variable": "n",
        "values": [64.0, 256.0],
        "p": 64,
    })
    cells = build_cells(spec)
    report = finalize(spec, evaluate_chunk(spec.kind, spec.params, cells))
    got = {
        "digest": report["digest"],
        "cells": len(cells),
        "bests": [pt["best"] for pt in report["points"]],
    }
    _check_or_regen(SERVICE_CASE_ID, got, regen_golden)


def test_trace_digest_is_order_and_time_sensitive():
    """The digest moves when an event time or ordering moves (sanity)."""
    run = _run_case("cannon", 8, 16, PortModel.ONE_PORT,
                    RoutingMode.STORE_AND_FORWARD)
    res = run.result
    base = res.trace_digest()
    rec = res.trace[0]
    shifted = type(rec)(rec.kind, rec.start + 1e-9, rec.end, rec.rank, rec.info)
    res.trace[0] = shifted
    assert res.trace_digest() != base
    res.trace[0] = rec
    assert res.trace_digest() == base
    res.trace[0], res.trace[1] = res.trace[1], res.trace[0]
    assert res.trace_digest() != base
