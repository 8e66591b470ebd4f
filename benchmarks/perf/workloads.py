"""The four workloads: fixed lists of units, one public call each.

A unit is a ``call`` (timed) and a ``check`` (not timed).  ``check``
raises :class:`WrongOutput` when the call's output is wrong and returns
the unit's statistics otherwise: simulated ones (``makespan_vt``,
``messages``, ...), report digests and service counts.  Statistics are
exact, so ``expected.json`` pins them for the default seed.

``--seed`` generates the matrices and the analytic parameters (sweep
values, ``t_w``).  The fault, chaos and scenario seeds are constants of
the workload: a different fault schedule is a different amount of
simulated work (``chaos_reliable`` moved 30 % in calls between campaign
seeds 0, 1 and 2), and runs with different seeds have to be comparable.
No knob of the program is forced: units reach the event path or the
closed forms the way real runs do.
"""

from __future__ import annotations

import functools
import itertools
import json
import pathlib
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms.abft import ABFTMatmul
from repro.analysis.cache import ResultCache, cached_figure
from repro.analysis.chaos import run_campaign
from repro.analysis.regions import region_map
from repro.analysis.resilience import degradation_sweep, recovery_sweep
from repro.mpi.integrity import IntegrityContext
from repro.service import ChaosPolicy, InjectedServiceCrash, SweepService
from repro.service.jobs import build_cells, evaluate_chunk, finalize, make_spec
from repro.sim import MachineConfig, PortModel
from repro.sim.scenario import random_heterogeneous

#: seeds of fault plans, chaos campaigns and scenarios (see module doc)
FAULT_SEED = 0
#: statistics that are not pinned: journal records carry wall-clock
#: timestamps whose printed length varies
UNPINNED = frozenset({"journal_bytes"})


class WrongOutput(Exception):
    """A unit ran to completion and its output failed verification."""


@dataclass(frozen=True)
class Unit:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]


@dataclass(frozen=True)
class Workload:
    why: str
    #: unit names in pass order; metric names are made from them, so they
    #: are stated here and ``build`` has to produce exactly these
    units: tuple[str, ...]
    build: Callable[[int, pathlib.Path], list[Unit]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def _matrices(seed: int, tag: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, tag])
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _machine(p: int, **kwargs) -> MachineConfig:
    return MachineConfig.create(p, t_s=150.0, t_w=3.0, **kwargs)


def _run_stats(run, product: np.ndarray) -> dict:
    _require(np.allclose(run.C, product), f"{run.algorithm}: C != A @ B")
    result = run.result
    return {
        "makespan_vt": run.total_time,
        "messages": result.total_messages(),
        "words": result.total_words_sent(),
        "channel_busy_vt": result.network.total_channel_busy,
        "retransmissions": result.network.retransmissions,
        "drops": result.network.messages_dropped,
        "reroutes": result.network.hops_rerouted,
    }


def _algorithm_unit(name, key, A, B, config, runner=None, **run_kwargs) -> Unit:
    """One ``run`` of a registered algorithm (or of ``runner``, a wrapper
    with the same ``run``), verified against ``A @ B``."""
    target = runner if runner is not None else get_algorithm(key)
    product = A @ B
    return Unit(
        name,
        lambda: target.run(A, B, config, **run_kwargs),
        lambda run: _run_stats(run, product),
    )


def _regionmap_unit(name, **kwargs) -> Unit:
    def check(region) -> dict:
        _require(bool((region.winner_idx >= 0).all()),
                 f"{name}: a lattice point has no winner")
        return {"makespan_vt": float(np.nansum(region.times))}

    return Unit(name, lambda: region_map(backend="sim", **kwargs), check)


# -- event_core --------------------------------------------------------------


def _event_core(seed: int, work: pathlib.Path) -> list[Unit]:
    A, B = _matrices(seed, 1, 64)
    hetero = _machine(512).with_scenario(
        random_heterogeneous(512, 2.0, seed=FAULT_SEED)
    )
    return [
        _algorithm_unit("cannon_p256_traced", "cannon", A, B, _machine(256),
                        trace=True),
        _algorithm_unit("3dd_p512_traced", "3dd", A, B, _machine(512),
                        trace=True),
        _algorithm_unit("hje_p64_multi", "hje", A, B,
                        _machine(64, port_model=PortModel.MULTI_PORT)),
        _algorithm_unit("simple_p256", "simple", A, B, _machine(256)),
        _algorithm_unit("fox_p256", "fox", A, B, _machine(256)),
        _algorithm_unit("3dd_p512_hetero", "3dd", A, B, hetero),
    ]


# -- superstep_scale ---------------------------------------------------------


def _superstep_scale(seed: int, work: pathlib.Path) -> list[Unit]:
    A, B = _matrices(seed, 2, 64)
    multi = PortModel.MULTI_PORT
    return [
        _algorithm_unit("cannon_p256", "cannon", A, B, _machine(256)),
        _algorithm_unit("3d_all_p512_multi", "3d_all", A, B,
                        _machine(512, port_model=multi)),
        _algorithm_unit("3dd_p512", "3dd", A, B, _machine(512)),
        _algorithm_unit("dns_p512_multi", "dns", A, B,
                        _machine(512, port_model=multi)),
        _regionmap_unit(
            "regionmap_sim_cannon_p1024", port=PortModel.ONE_PORT,
            t_s=150.0, t_w=3.0, algorithms=("cannon",),
            log2_n_min=6, log2_n_max=6, log2_p_min=10, log2_p_max=10,
        ),
    ]


# -- resilience_stack --------------------------------------------------------


def _campaign_unit(name: str, stack: str, trials: int) -> Unit:
    def check(report) -> dict:
        _require(report["trials"] == trials, f"{name}: trial count")
        if stack == "protected":
            _require(report["clean"] == trials,
                     f"{name}: the full stack let a fault through")
        return {"digest": report["digest"], "clean": report["clean"]}

    return Unit(
        name,
        lambda: run_campaign(trials=trials, seed=FAULT_SEED, stack=stack,
                             minimize=False),
        check,
    )


def _drops_check(points) -> dict:
    _require(all(pt.completed for pt in points), "drops_reliable: a run failed")
    return {
        "makespan_vt": sum(pt.total_time for pt in points),
        "messages": sum(pt.messages_sent for pt in points),
        "retransmissions": sum(pt.retransmissions for pt in points),
        "drops": sum(pt.messages_dropped for pt in points),
        "reroutes": sum(pt.hops_rerouted for pt in points),
    }


def _recovery_check(points) -> dict:
    _require(all(pt.completed and pt.exact for pt in points),
             "recovery_abft_ckpt: a recovered product is not exact")
    return {
        "makespan_vt": sum(pt.total_time for pt in points),
        "epochs": sum(pt.epochs for pt in points),
    }


def _resilience_stack(seed: int, work: pathlib.Path) -> list[Unit]:
    A, B = _matrices(seed, 3, 32)
    cannon = get_algorithm("cannon")
    return [
        _campaign_unit("chaos_protected_6", "protected", 6),
        _campaign_unit("chaos_reliable_12", "reliable", 12),
        Unit(
            "drops_reliable",
            lambda: degradation_sweep(["cannon", "3d_all"], 32, 64,
                                      [0.05], seed=seed,
                                      plan_seed=FAULT_SEED),
            _drops_check,
        ),
        Unit(
            "recovery_abft_ckpt",
            lambda: recovery_sweep(["cannon"], 16, 16, [0.5],
                                   modes=("abft", "checkpoint"), seed=seed,
                                   plan_seed=FAULT_SEED + 1),
            _recovery_check,
        ),
        _algorithm_unit(
            "forced_integrity_p64", "cannon", A, B, _machine(64),
            context_factory=functools.partial(IntegrityContext,
                                              force_protocol=True),
        ),
        _algorithm_unit("abft_clean_p64", "cannon", A, B, _machine(64),
                        runner=ABFTMatmul(cannon, mode="abft")),
    ]


# -- service_jobs ------------------------------------------------------------


@dataclass
class _Served:
    """What a service unit hands to its check."""

    state_dir: pathlib.Path
    digests: list[str]
    #: the service's final counters and its cache's ``cache_hits``
    counters: dict


def _direct_digest(kind: str, params: dict) -> str:
    spec = make_spec(kind, params)
    records = evaluate_chunk(spec.kind, spec.params, build_cells(spec))
    return finalize(spec, records)["digest"]


def _served(svc: SweepService, reports: list[dict]) -> _Served:
    """Digests in submission order, whatever order the scheduler ran."""
    ordered = sorted(reports, key=lambda r: r["job"])
    return _Served(svc.state_dir, [r["digest"] for r in ordered],
                   dict(svc.counters, cache_hits=svc.cache.hits))


def _service_check(name: str, expected: list[str], **require) -> Callable:
    """Digests equal the direct evaluation's, the named counters have
    the required values; the statistics come from the state directory,
    which is then removed."""

    def check(served: _Served) -> dict:
        segments = sorted((served.state_dir / "wal").glob("wal-*.jsonl"))
        raw = b"".join(seg.read_bytes() for seg in segments)
        shutil.rmtree(served.state_dir)
        _require(served.digests == expected,
                 f"{name}: service digests {served.digests} != direct {expected}")
        for counter, value in require.items():
            got = served.counters[counter]
            _require(got == value, f"{name}: {counter} is {got}, not {value}")
        return {
            "digest": "+".join(served.digests),
            "journal_records": raw.count(b"\n"),
            "journal_bytes": len(raw),
            **{key: served.counters[key]
               for key in ("leases", "retries", "cache_hits")},
        }

    return check


def _service_jobs(seed: int, work: pathlib.Path) -> list[Unit]:
    rng = np.random.default_rng([seed, 4])
    values = sorted(float(v) for v in rng.choice(
        np.arange(32, 2048), size=20, replace=False))
    t_w = round(2.0 + 2.0 * float(rng.random()), 3)
    sweep = {"algorithms": ["cannon", "berntsen", "3dd", "3d_all"],
             "variable": "n", "values": values, "p": 64.0, "t_w": t_w}
    region = {"port": "one-port", "backend": "sim", "t_w": t_w,
              "algorithms": ["cannon", "3dd"],
              "log2_n_min": 4, "log2_n_max": 6,
              "log2_p_min": 4, "log2_p_max": 6}
    degrade = {"algorithms": ["cannon", "3d_all"], "n": 8, "p": 16,
               "severities": [0.5, 2.0], "seed": seed,
               "scenario_seed": FAULT_SEED}
    # Five-value slices of the sweep: distinct jobs of the same size.
    slices = [dict(sweep, values=values[i:i + 5]) for i in range(0, 20, 5)]
    lattice = {"log2_n_max": 60, "log2_p_max": 120}

    counter = itertools.count()

    def state_dir() -> pathlib.Path:
        return work / f"state-{next(counter)}"

    def cold(kind: str, params: dict) -> _Served:
        with SweepService(state_dir(), workers=1) as svc:
            svc.submit(kind, params)
            return _served(svc, svc.run_pending())

    def crash_resume() -> _Served:
        root = state_dir()
        try:
            with SweepService(root, workers=1, chunk_size=5,
                              inject=ChaosPolicy(crash_after_chunks=2)) as svc:
                svc.submit("sweep", sweep)
                svc.run_pending()
        except InjectedServiceCrash:
            pass
        else:
            raise WrongOutput("crash_resume: the injected crash did not fire")
        with SweepService(root, workers=1, chunk_size=5) as svc:
            return _served(svc, svc.run_pending())

    def tenant_burst() -> _Served:
        with SweepService(state_dir(), workers=1,
                          tenant_weights={"a": 2.0, "b": 1.0}) as svc:
            for i, params in enumerate(slices[:3]):
                svc.submit("sweep", params, tenant="ab"[i % 2])
                svc.submit("sweep", params, tenant="ba"[i % 2])
            return _served(svc, svc.run_pending())

    def daemon_spool2() -> _Served:
        with SweepService(state_dir(), workers=1) as svc:
            spool = svc.state_dir / "spool"
            spool.mkdir(parents=True)
            for i, params in enumerate(slices[2:]):
                (spool / f"req-{i}.json").write_text(json.dumps({
                    "nonce": str(i), "kind": "sweep", "params": params,
                    "tenant": "t0",
                }))
            # The first idle poll means the queue is drained: stop there,
            # so no polling delay is timed.
            svc.serve_follow(sleep=lambda _s: svc.request_stop())
            reports = [json.loads(p.read_text()) for p in
                       sorted((svc.state_dir / "results").glob("j*.json"))]
            return _served(svc, reports)

    warm = work / "figure-cache"
    cached_figure(ResultCache(warm), 13, **lattice)

    def fig13_14_direct():
        panels = [
            region_map(port, t_s, t_w, **lattice)
            for port in (PortModel.ONE_PORT, PortModel.MULTI_PORT)
            for t_s in (150.0, 30.0, 5.0, 0.5)
        ]
        cache = ResultCache(warm)
        return panels, cached_figure(cache, 13, **lattice), cache.hits

    def fig_check(out) -> dict:
        panels, figure, hits = out
        _require(hits == 1 and len(figure) == 4,
                 "fig13_14_direct: the figure did not come from the cache")
        _require(all(p.winner_idx.shape == (60, 119) for p in panels),
                 "fig13_14_direct: panel shape")
        return {"model_time_sum": float(sum(np.nansum(p.times) for p in panels)),
                "cache_hits": hits}

    slice_digests = [_direct_digest("sweep", params) for params in slices]
    sweep_digest = [_direct_digest("sweep", sweep)]
    return [
        Unit("sweep_cold", lambda: cold("sweep", sweep),
             _service_check("sweep_cold", sweep_digest)),
        Unit("regionmap_sim_cold", lambda: cold("region_map", region),
             _service_check("regionmap_sim_cold",
                            [_direct_digest("region_map", region)])),
        Unit("degrade_cold", lambda: cold("degrade", degrade),
             _service_check("degrade_cold",
                            [_direct_digest("degrade", degrade)])),
        Unit("crash_resume", crash_resume,
             _service_check("crash_resume", sweep_digest, cache_hits=2)),
        Unit("tenant_burst", tenant_burst,
             _service_check("tenant_burst", slice_digests[:3], coalesced=3)),
        Unit("daemon_spool2", daemon_spool2,
             _service_check("daemon_spool2", slice_digests[2:])),
        Unit("fig13_14_direct", fig13_14_direct, fig_check),
    ]


WORKLOADS = {
    "event_core": Workload(
        "fault-free runs that execute event by event (trace, no closed "
        "form, scenario): engine, topology, process and message layers",
        ("cannon_p256_traced", "3dd_p512_traced", "hje_p64_multi",
         "simple_p256", "fox_p256", "3dd_p512_hetero"),
        _event_core),
    "superstep_scale": Workload(
        "fault-free large-p runs on default knobs: shift and collective "
        "closed forms, per-rank set-up and numpy planners; event queue idle",
        ("cannon_p256", "3d_all_p512_multi", "3dd_p512", "dns_p512_multi",
         "regionmap_sim_cannon_p1024"),
        _superstep_scale),
    "resilience_stack": Workload(
        "the same engine under timers, drops, retransmits and restarts: "
        "reliable, integrity, detector, recovery and faults layers work",
        ("chaos_protected_6", "chaos_reliable_12", "drops_reliable",
         "recovery_abft_ckpt", "forced_integrity_p64", "abft_clean_p64"),
        _resilience_stack),
    "service_jobs": Workload(
        "submit to sealed report through SweepService: journal, worker "
        "spawn, pickling, cache I/O and streaming; the simulator is small",
        ("sweep_cold", "regionmap_sim_cold", "degrade_cold", "crash_resume",
         "tenant_burst", "daemon_spool2", "fig13_14_direct"),
        _service_jobs),
}
