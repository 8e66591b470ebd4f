"""Command-line interface: ``hypercube-mm`` (or ``python -m repro``).

Subcommands
-----------
``run``          simulate one algorithm and report timing/volume/correctness
``compare``      tabulate all applicable algorithms at one (n, p) point
``figure``       render a Figure 13/14 region-map panel as ASCII
``sweep``        tabulate model overheads along one parameter axis
``table2``       measured vs modelled (a, b) coefficients for one point
``trace``        run one algorithm and draw an ASCII Gantt chart
``scalability``  isoefficiency curves (n required to hold efficiency E)
``faults``       drop-rate sweep on a lossy machine (reliable delivery)
``recover``      node fail-stop recovery sweep (ABFT / checkpoint restart)
``chaos``        randomized fault campaign with minimized reproducers
``degrade``      graceful-degradation sweep on heterogeneous networks
``report``       regenerate the paper's full evaluation in one run
``cache``        inspect or maintain the persistent result cache
``list``         list the available algorithms
``submit``       queue a job on the crash-safe sweep service
``serve``        execute the service's pending jobs (resumes from the journal)
``work``         a multi-host worker agent for the service
``jobs``         inspect service jobs and counters

``sweep``, ``degrade`` and ``chaos`` are also service job kinds, and
``submit <kind>`` takes exactly their job flags: each kind's flags are
declared once below, and both doors build the job with
:func:`repro.service.jobs.make_spec`, which holds every default.  A
direct ``sweep`` or ``degrade`` is that job evaluated in process
(:func:`repro.service.jobs.evaluate`); a direct ``chaos`` is
:func:`repro.analysis.chaos.run_campaign` over the same cells.

``figure``, ``sweep``, ``table2``, ``faults`` and ``degrade`` accept ``--cache`` /
``--no-cache`` (and ``--cache-dir``) to serve repeat invocations from the
persistent content-addressed result cache; ``REPRO_CACHE=1`` flips the
default on.  Cached and computed outputs are bit-identical.

``report -o benchmarks/results`` rewrites every committed file there
byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro import ALGORITHMS, MachineConfig, PortModel, get_algorithm
from repro.analysis.cache import (
    ResultCache,
    cached_coefficients,
    cached_region_map,
)
from repro.analysis.figures import PANELS, render_ascii
from repro.analysis.scalability import format_isoefficiency_table
from repro.errors import NotApplicableError, ReproError
from repro.models.table2 import overhead_coefficients
from repro.sim import RoutingMode
from repro.sim.gantt import render_gantt
from repro.sim.scenario import PROFILES
from repro.util import atomic_write

__all__ = ["main"]


def _port(value: str) -> PortModel:
    return PortModel.MULTI_PORT if value == "multi" else PortModel.ONE_PORT


def _routing(value: str) -> RoutingMode:
    return (
        RoutingMode.CUT_THROUGH if value == "ct" else RoutingMode.STORE_AND_FORWARD
    )


def _machine(args) -> MachineConfig:
    return MachineConfig.create(
        args.p,
        t_s=args.ts,
        t_w=args.tw,
        t_c=args.tc,
        port_model=_port(args.port),
        routing=_routing(args.routing),
    )


def _cache_default() -> bool:
    """Whether caching is on without an explicit flag (REPRO_CACHE env)."""
    return os.environ.get("REPRO_CACHE", "").lower() in ("1", "true", "yes", "on")


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache", dest="use_cache", action="store_true",
        default=_cache_default(),
        help="serve/store this result via the persistent result cache",
    )
    p.add_argument(
        "--no-cache", dest="use_cache", action="store_false",
        help="bypass the result cache (overrides REPRO_CACHE=1)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-hypercube-mm)",
    )


def _cache(args) -> ResultCache | None:
    """The ResultCache for this invocation, or None when caching is off."""
    if not getattr(args, "use_cache", False):
        return None
    return ResultCache(args.cache_dir)


# Each subcommand accepts only the machine flags it reads, so a flag it
# would ignore is an argparse error instead of a silently default run.


def _add_port_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--port", choices=["one", "multi"], default="one",
        help="port model (one-port or multi-port nodes)",
    )


def _add_cost_args(p: argparse.ArgumentParser) -> None:
    """``--ts --tw --port``: what the model sweeps and fault runs read."""
    p.add_argument("--ts", type=float, default=150.0, help="start-up cost t_s")
    p.add_argument("--tw", type=float, default=3.0, help="per-word cost t_w")
    _add_port_arg(p)


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    """Every flag :func:`_machine` reads."""
    _add_cost_args(p)
    p.add_argument("--tc", type=float, default=0.0, help="per-flop cost t_c")
    p.add_argument(
        "--routing", choices=["sf", "ct"], default="sf",
        help="multi-hop routing: store-and-forward (sf) or cut-through (ct)",
    )


# One function per job kind declares its flags for the direct subcommand
# and ``submit <kind>`` alike.  Every dest is a job param key and every
# default is None, so a flag left out takes ``make_spec``'s default.


def _job_cost_params(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("--ts", dest="t_s", type=float,
                       help="start-up cost t_s"),
        p.add_argument("--tw", dest="t_w", type=float,
                       help="per-word cost t_w"),
        p.add_argument("--port", choices=["one", "multi"],
                       help="port model (one-port or multi-port nodes)"),
    ]


def _sweep_params(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("variable", choices=["n", "p", "t_s", "t_w"]),
        p.add_argument("values", type=float, nargs="+"),
        p.add_argument("-n", type=float, help="matrix size"),
        p.add_argument("-p", type=float, help="processor count"),
        p.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS)),
        *_job_cost_params(p),
    ]


def _region_map_params(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("--log2-n-max", type=int),
        p.add_argument("--log2-p-max", type=int),
        p.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS)),
        *_job_cost_params(p),
        p.add_argument(
            "--backend", choices=["model", "sim"],
            help="model = Table 2 closed forms (default); "
                 "sim = time each candidate in the event engine",
        ),
    ]


def _degrade_params(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("-n", type=int, help="matrix size"),
        p.add_argument("-p", type=int, help="processor count"),
        p.add_argument(
            "--severities", type=float, nargs="+",
            help="severity levels to sweep (0 = uniform network)",
        ),
        p.add_argument(
            "--profile", choices=PROFILES,
            help="network-scenario profile shaping the degradation",
        ),
        p.add_argument(
            "--scenario-seed", type=int,
            help="seed for the scenario's link selection and magnitudes",
        ),
        p.add_argument("--seed", type=int, help="matrix seed"),
        p.add_argument(
            "--algorithms", nargs="+", choices=sorted(ALGORITHMS),
            metavar="ALGO",
            help="algorithm keys to rank (those not applicable at this "
                 "n, p are dropped)",
        ),
        p.add_argument(
            "--oblivious", dest="adaptive", action="store_false",
            default=None,
            help="disable degradation-aware detour routing (fixed e-cube "
                 "paths even on slow links)",
        ),
        *_job_cost_params(p),
    ]


def _chaos_params(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("--trials", type=int),
        p.add_argument("--seed", type=int, help="campaign seed"),
        p.add_argument(
            "--stack", choices=["none", "reliable", "integrity", "protected"],
            help="protection stack the algorithm runs under",
        ),
        p.add_argument("--algorithm", choices=sorted(ALGORITHMS)),
        p.add_argument("-n", type=int, help="matrix size"),
        p.add_argument("-p", type=int, help="processor count"),
        p.add_argument(
            "--severity", type=float,
            help="layer a seeded heterogeneous network scenario of this "
                 "severity under every trial's fault plan (0 = uniform)",
        ),
        p.add_argument(
            "--scenario-seed", type=int,
            help="seed for the heterogeneous scenario (with --severity)",
        ),
        p.add_argument(
            "--no-replay-check", dest="check_replay", action="store_false",
            default=None,
            help="skip the same-seed bit-identical replay invariant",
        ),
    ]


_JOB_PARAMS = {
    "sweep": _sweep_params,
    "region-map": _region_map_params,
    "degrade": _degrade_params,
    "chaos": _chaos_params,
}


def _add_job_params(p: argparse.ArgumentParser, kind: str) -> None:
    actions = _JOB_PARAMS[kind](p)
    p.set_defaults(job_kind=kind.replace("-", "_"),
                   job_keys=[action.dest for action in actions])


def _job_params(args) -> dict:
    """The job parameters the command line sets: ``submit``'s ``--params``
    JSON object, overridden by every kind flag that was given."""
    import json as _json

    params = _json.loads(args.params) if getattr(args, "params", None) else {}
    for key in args.job_keys:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return params


def _job_spec(args):
    from repro.service.jobs import make_spec

    return make_spec(args.job_kind, _job_params(args))


def _cmd_list(_args) -> int:
    for key, algo in sorted(ALGORITHMS.items()):
        print(f"{key:14s} {algo.name:22s} (paper §{algo.paper_section})")
    return 0


def _cmd_run(args) -> int:
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    B = rng.standard_normal((args.n, args.n))
    config = _machine(args)
    algo = get_algorithm(args.algorithm)
    run = algo.run(A, B, config, verify=True)
    print(f"algorithm       : {algo.name} (§{algo.paper_section})")
    print(f"machine         : p={args.p} {config.port_model.value} "
          f"t_s={args.ts:g} t_w={args.tw:g} t_c={args.tc:g}")
    print(f"matrix          : n={args.n}")
    print(f"simulated time  : {run.total_time:.2f}")
    print(f"comm time       : {run.comm_time:.2f}")
    print(f"messages        : {run.result.total_messages()}")
    print(f"words sent      : {run.result.total_words_sent()}")
    print(f"peak words/node : {run.result.max_peak_memory_words()}")
    print(f"engine events   : {run.result.events_processed}")
    print(f"shift rounds    : {run.result.shift_rounds_event} by events, "
          f"{run.result.shift_rounds_closed_form} in closed form")
    print(f"coll. phases    : {run.result.collective_phases_event} by events, "
          f"{run.result.collective_phases_closed_form} in closed form")
    for reason, count in sorted(run.result.closed_form_refusals.items()):
        print(f"  refused {count:6d} : {reason}")
    print(f"route searches  : {run.result.route_searches} "
          f"({run.result.route_nodes_settled} nodes settled), "
          f"{run.result.adaptive_detours} adaptive detours")
    coeffs = overhead_coefficients(args.algorithm, args.n, args.p, config.port_model)
    if coeffs is not None:
        a, b = coeffs
        print(f"Table 2 model   : {a * args.ts + b * args.tw:.2f} "
              f"(a={a:g}, b={b:g})")
    print("verified        : C == A @ B")
    for name, (start, end) in sorted(
        run.result.phase_times.items(), key=lambda kv: kv[1][0]
    ):
        print(f"  phase {name:14s} [{start:10.2f}, {end:10.2f}]")
    return 0


def _cmd_compare(args) -> int:
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    B = rng.standard_normal((args.n, args.n))
    port = _port(args.port)
    config = _machine(args)
    print(f"n={args.n} p={args.p} {port.value} t_s={args.ts:g} t_w={args.tw:g}")
    print(f"{'algorithm':22s} {'simulated':>12s} {'Table 2':>12s}")
    rows = []
    for key, algo in sorted(ALGORITHMS.items()):
        try:
            run = algo.run(A, B, config, verify=True)
        except NotApplicableError as exc:
            print(f"{algo.name:22s} {'n/a':>12s}  ({exc})")
            continue
        coeffs = overhead_coefficients(key, args.n, args.p, port)
        model = (
            f"{coeffs[0] * args.ts + coeffs[1] * args.tw:12.2f}"
            if coeffs is not None
            else f"{'-':>12s}"
        )
        rows.append((run.total_time, algo.name, model))
        print(f"{algo.name:22s} {run.total_time:12.2f} {model}")
    if rows:
        best = min(rows)
        print(f"best: {best[1]} ({best[0]:.2f})")
    return 0


def _cmd_figure(args) -> int:
    port = PortModel.ONE_PORT if args.figure == 13 else PortModel.MULTI_PORT
    t_s, t_w = PANELS[args.panel]
    rm = cached_region_map(
        _cache(args), port, t_s, t_w,
        log2_n_max=args.log2n, log2_p_max=args.log2p, backend=args.backend,
    )
    title = (
        f"Figure {args.figure}({args.panel}): {port.value}, "
        f"t_s={t_s:g}, t_w={t_w:g}"
    )
    print(render_ascii(rm, title))
    return 0


def _cmd_sweep(args) -> int:
    from repro.service.jobs import evaluate

    spec = _job_spec(args)
    p = spec.params
    report = evaluate(spec, _cache(args))
    keys = p["algorithms"]
    fixed = {key: p[key] for key in ("n", "p", "t_s", "t_w")}
    fixed.pop(p["variable"])
    print(
        f"sweep over {p['variable']} ({p['port']}; "
        + ", ".join(f"{k}={v:g}" for k, v in fixed.items()) + ")"
    )
    print(f"{p['variable']:>12s}" + "".join(f"{k:>14s}" for k in keys)
          + f"{'best':>14s}")
    for pt in report["points"]:
        row = f"{pt['value']:12g}"
        for key in keys:
            t = pt["times"][key]
            row += f"{t:14.1f}" if t is not None else f"{'-':>14s}"
        print(row + f"{pt['best'] or '-':>14s}")
    return 0


def _cmd_table2(args) -> int:
    port = _port(args.port)
    cache = _cache(args)
    print(f"n={args.n} p={args.p} {port.value}")
    print(f"{'algorithm':22s} {'measured (a, b)':>24s} {'Table 2 (a, b)':>24s}")
    for key in sorted(ALGORITHMS):
        algo = ALGORITHMS[key]
        if not algo.applicable(args.n, args.p):
            continue
        ma, mb = cached_coefficients(cache, key, args.n, args.p, port)
        coeffs = overhead_coefficients(key, args.n, args.p, port)
        model = (
            f"({coeffs[0]:9.1f}, {coeffs[1]:9.1f})"
            if coeffs
            else f"{'-':>22s}"
        )
        print(f"{algo.name:22s}  ({ma:9.1f}, {mb:9.1f})  {model}")
    return 0


def _cmd_trace(args) -> int:
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    B = rng.standard_normal((args.n, args.n))
    config = _machine(args)
    algo = get_algorithm(args.algorithm)
    run = algo.run(A, B, config, verify=True, trace=True)
    print(
        f"{algo.name}: n={args.n}, p={args.p}, {config.port_model.value}, "
        f"{config.routing.value}, total={run.total_time:g}"
    )
    ranks = list(range(min(args.p, 16)))  # at most 16 lanes
    print(render_gantt(run.result, width=args.width, ranks=ranks))
    return 0


def _cmd_scalability(args) -> int:
    print(format_isoefficiency_table(
        args.algorithms or ["cannon", "berntsen", "3dd", "3d_all"],
        [float(2 ** k) for k in range(3, args.log2p_max + 1)],
        args.efficiency, _port(args.port), args.ts, args.tw,
    ))
    return 0


def _cmd_faults(args) -> int:
    from repro.analysis.resilience import (
        degradation_sweep,
        format_resilience_table,
        transient_scenario,
    )

    keys = args.algorithms or ["cannon", "fox", "dns", "3d_all"]
    keys = [k for k in keys if get_algorithm(k).applicable(args.n, args.p)]
    if not keys:
        print("error: no selected algorithm is applicable at this (n, p)",
              file=sys.stderr)
        return 1
    plan = None
    if args.transient:
        plan = transient_scenario(seed=args.plan_seed, drop_rate=0.0)
    print(
        f"drop-rate sweep: n={args.n} p={args.p} t_s={args.ts:g} "
        f"t_w={args.tw:g} plan_seed={args.plan_seed}"
        + (" + transient link fault" if args.transient else "")
    )

    def compute():
        return degradation_sweep(
            keys, args.n, args.p, args.drop_rates,
            seed=args.seed, plan_seed=args.plan_seed, plan=plan,
            t_s=args.ts, t_w=args.tw, port_model=_port(args.port),
        )

    cache = _cache(args)
    if cache is None:
        points = compute()
    else:
        descriptor = {
            "algorithms": list(keys),
            "n": args.n,
            "p": args.p,
            "drop_rates": [float(r) for r in args.drop_rates],
            "seed": args.seed,
            "plan_seed": args.plan_seed,
            "transient": bool(args.transient),
            "t_s": float(args.ts),
            "t_w": float(args.tw),
            "port": _port(args.port),
        }
        points = cache.fetch("degradation_sweep", descriptor, compute)
    print(format_resilience_table(points))
    return 0


def _cmd_recover(args) -> int:
    from repro.analysis.resilience import (
        format_recovery_table,
        recovery_sweep,
    )

    keys = args.algorithms or ["cannon", "fox", "3d_all"]
    print(
        f"recovery sweep: n={args.n} p={args.p} t_s={args.ts:g} "
        f"t_w={args.tw:g} plan_seed={args.plan_seed} "
        f"modes={','.join(args.modes)}"
    )
    points = recovery_sweep(
        keys, args.n, args.p, args.kill_fracs, tuple(args.modes),
        seed=args.seed, plan_seed=args.plan_seed,
        victims=tuple(args.victims) if args.victims else None,
        t_s=args.ts, t_w=args.tw, port_model=_port(args.port),
    )
    print(format_recovery_table(points))
    return 0


def _cmd_cache(args) -> int:
    # With --state-dir the audit targets a sweep-service state: its
    # embedded cache, plus the results/ dir checked for orphaned
    # streaming snapshots (partials whose job is neither pending nor
    # running — debris from a daemon that died mid-stream).
    partials_dir = None
    live_jobs: list[str] = []
    if getattr(args, "state_dir", None):
        from repro.service import SweepService

        cache = ResultCache(os.path.join(args.state_dir, "cache"))
        partials_dir = os.path.join(args.state_dir, "results")
        with SweepService(args.state_dir, read_only=True) as svc:
            live_jobs = [j.id for j in svc.pending_jobs()]
    else:
        cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats(partials_dir=partials_dir, live_jobs=live_jobs)
        print(f"cache root : {stats['root']}")
        print(f"entries    : {stats['entries']}")
        print(f"size       : {stats['bytes']} bytes")
        print(f"corrupt    : {stats['corrupt']}")
        if partials_dir is not None:
            print(f"orphan partials: {stats['orphan_partials']}")
        for kind, count in stats["by_kind"].items():
            print(f"  {kind:20s} {count}")
        return 0
    if args.action == "clear":
        print(f"removed {cache.clear()} cache entr(ies) from {cache.root}")
        return 0
    if args.action == "verify":
        audit = cache.verify(partials_dir=partials_dir, live_jobs=live_jobs)
        print(f"cache root : {cache.root}")
        print(f"checked    : {audit['checked']}")
        print(f"corrupt    : {audit['corrupt']}")
        print(f"tmp found  : {audit['tmp_found']}")
        print(f"tmp removed: {audit['tmp_removed']}")
        if partials_dir is not None:
            print(f"orphan partials: {audit['orphan_partials']}")
        return 1 if audit["corrupt"] else 0
    removed = cache.prune(
        max_age_days=args.max_age_days, max_bytes=args.max_bytes
    )
    print(f"pruned {removed} cache entr(ies) from {cache.root} "
          f"(corrupt entries always go)")
    return 0


def _cmd_chaos(args) -> int:
    import json as _json

    from repro.analysis.chaos import format_report, run_campaign

    atom_subset = None
    if args.atoms is not None:
        atom_subset = [int(i) for i in args.atoms.split(",") if i != ""]
        if args.only_trial is None:
            print("error: --atoms requires --only-trial", file=sys.stderr)
            return 1
    report = run_campaign(
        **_job_spec(args).params,
        minimize=not args.no_minimize,
        only_trial=args.only_trial,
        atom_subset=atom_subset,
    )
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=2, default=repr)
        print(f"report written to {args.json}")
    return 0


def _cmd_degrade(args) -> int:
    import json as _json

    from repro.analysis.degradation import format_degradation_table
    from repro.service.jobs import evaluate

    report = evaluate(_job_spec(args), _cache(args))
    print(format_degradation_table(report))
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=2, default=repr)
        print(f"report written to {args.json}")
    return 0


def _submit_outcome(args, kind: str, outcome: dict) -> int:
    """Render one submission outcome (direct or via daemon spool ack).

    A shed always echoes its ``retry_after`` — in the human line *and*
    in ``--json`` — so callers can back off precisely instead of
    guessing from a bare exit 75.
    """
    import json as _json

    if args.json:
        print(_json.dumps(outcome, indent=2, sort_keys=True))
    if outcome.get("shed"):
        if not args.json:
            print(
                f"overloaded: {outcome['reason']} — retry after "
                f"{outcome['retry_after']:.2f}s",
                file=sys.stderr,
            )
        return 75  # EX_TEMPFAIL: the client should back off and retry
    if outcome.get("error"):
        if not args.json:
            print(f"error: {outcome['error']}", file=sys.stderr)
        return 1
    if not args.json:
        note = (
            " (coalesced with identical in-flight job)"
            if outcome.get("coalesced") else ""
        )
        via = " via running daemon" if outcome.get("spooled") else ""
        print(f"submitted {outcome['job']} kind={kind}{via}{note}")
    return 0


def _submit_via_spool(args, kind: str, params: dict) -> dict:
    """Hand the submission to a live daemon through the spool directory.

    The daemon holds the single-writer LOCK, so this process cannot
    journal the submission itself; instead it drops a request file and
    polls for the daemon's ack (which carries the job id or the shed
    verdict with its ``retry_after``).
    """
    import json as _json
    import pathlib
    import uuid

    spool = pathlib.Path(args.state_dir) / "spool"
    nonce = uuid.uuid4().hex[:12]
    atomic_write(spool / f"req-{nonce}.json", _json.dumps({
        "nonce": nonce, "kind": kind, "params": params,
        "tenant": args.tenant, "ts": time.time(),
    }), tmp_stem=f".req-{nonce}")
    ack_path = spool / f"ack-{nonce}.json"
    deadline = time.monotonic() + args.wait
    while time.monotonic() < deadline:
        if ack_path.is_file():
            try:
                ack = _json.loads(ack_path.read_text(encoding="utf-8"))
            except ValueError:
                time.sleep(0.02)  # mid-rename
                continue
            ack_path.unlink(missing_ok=True)
            ack["spooled"] = True
            return ack
        time.sleep(0.05)
    return {
        "error": f"daemon did not ack within {args.wait:g}s "
                 f"(request {nonce} left in spool)",
    }


def _cmd_submit(args) -> int:
    from repro.errors import ServiceError, ServiceOverloadError
    from repro.service import SweepService

    kind = args.job_kind
    params = _job_params(args)
    try:
        with SweepService(
            args.state_dir,
            max_pending=args.max_pending,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        ) as svc:
            job_id, coalesced = svc.submit(kind, params, tenant=args.tenant)
            outcome = {"job": job_id, "coalesced": coalesced}
    except ServiceOverloadError as exc:
        outcome = {
            "shed": True, "reason": exc.reason,
            "retry_after": exc.retry_after, "tenant": exc.tenant,
        }
    except ServiceError as exc:
        # A live daemon owns the state: spool the request to it instead.
        if "locked by live pid" not in str(exc):
            raise
        outcome = _submit_via_spool(args, kind, params)
    return _submit_outcome(args, kind, outcome)


def _tenant_weights(specs) -> dict[str, float] | None:
    """Parse repeatable ``--tenant-weight NAME=W`` flags."""
    if not specs:
        return None
    weights: dict[str, float] = {}
    for spec in specs:
        name, _, value = spec.partition("=")
        if not name or not value:
            raise SystemExit(
                f"error: --tenant-weight expects NAME=WEIGHT, got {spec!r}"
            )
        weights[name] = float(value)
    return weights


def _cmd_serve(args) -> int:
    import signal

    from repro.service import InjectedServiceCrash, SweepService
    from repro.service.chaos import parse_injections

    inject = parse_injections(args.inject or [])
    with SweepService(
        args.state_dir,
        workers=args.workers,
        chunk_size=args.chunk_size,
        chunk_deadline_s=args.chunk_deadline,
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff_base,
        tenant_weights=_tenant_weights(args.tenant_weight),
        stale_after_s=args.stale_after,
        inject=None if inject.is_noop() else inject,
    ) as svc:
        for warning in svc.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if args.follow:
            # Daemon mode: SIGTERM/SIGINT request a graceful drain — the
            # executor stops leasing, in-flight chunks hand back to the
            # journal, and the loop exits after the current bookkeeping.
            def _drain(signum, frame):
                print("drain requested — handing leases back",
                      file=sys.stderr)
                svc.request_stop()

            old_term = signal.signal(signal.SIGTERM, _drain)
            old_int = signal.signal(signal.SIGINT, _drain)
            try:
                summary = svc.serve_follow(
                    poll_s=args.poll, max_seconds=args.max_seconds,
                )
            except InjectedServiceCrash as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 70
            finally:
                signal.signal(signal.SIGTERM, old_term)
                signal.signal(signal.SIGINT, old_int)
            print(
                f"daemon exit: completed={summary['completed']} "
                f"failed={summary['failed']} drained={summary['drained']} "
                f"elapsed={summary['elapsed_s']:.1f}s"
            )
            return 0
        pending = svc.pending_jobs()
        if not pending:
            print("no pending jobs")
            return 0
        try:
            svc.run_pending()
        except InjectedServiceCrash as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 70  # EX_SOFTWARE: simulated supervisor death
        for job in svc.jobs_by_id.values():
            if job.status in ("pending",):
                continue
            print(
                f"job {job.id} {job.kind} {job.status} digest={job.digest} "
                f"retries={job.retries} leases={job.leases} "
                f"quarantined={sorted(job.quarantined)}"
            )
    return 0


def _cmd_work(args) -> int:
    from repro.service import HostAgent

    agent = HostAgent(
        os.path.join(args.state_dir, "hosts"),
        args.host_id,
        heartbeat_s=args.heartbeat,
        poll_s=args.poll,
        max_seconds=args.max_seconds,
        die_after_chunks=args.die_after_chunks,
    )
    print(
        f"host agent {args.host_id} serving {args.state_dir} "
        f"(heartbeat {args.heartbeat:g}s)"
    )
    done = agent.run()
    print(f"host agent {args.host_id} exiting: {done} chunk(s) completed")
    return 0


def _render_jobs(payload) -> None:
    for warning in payload["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    if not payload["jobs"]:
        print("no jobs")
    for job in payload["jobs"]:
        total = job["chunks_total"]
        progress = (
            f"{job['chunks_done']}/{total}" if total is not None else "-"
        )
        streaming = " [streaming]" if job.get("partial") else ""
        print(
            f"{job['id']}  {job['kind']:10s} {job['tenant']:10s} "
            f"{job['status']:9s} chunks={progress:8s} "
            f"digest={job['digest'] or '-':16s} "
            f"retries={job['retries']}{streaming}"
        )
        if job["quarantined"]:
            print(
                f"  quarantined chunks: "
                f"{','.join(str(c) for c in job['quarantined'])} "
                f"(poison — excluded from the report, see results file)"
            )
    for host in payload.get("hosts", []):
        age = host["heartbeat_age_s"]
        print(
            f"host {host['host']}: "
            f"{'alive' if host['alive'] else 'STALE'} "
            f"heartbeat_age={age if age is not None else '-'}s "
            f"epoch={host['epoch']} done={host['done']}"
        )
    shed = payload.get("last_shed")
    if shed:
        print(
            f"last shed: tenant={shed['tenant']} reason={shed['reason']} "
            f"retry_after={shed['retry_after']:.2f}s"
        )
    c = payload["counters"]
    print(
        f"counters: submitted={c['submitted']} coalesced={c['coalesced']} "
        f"sheds={c['sheds']} retries={c['retries']} leases={c['leases']} "
        f"quarantined={c['quarantined']} worker_deaths={c['worker_deaths']} "
        f"lease_expiries={c['lease_expiries']} "
        f"host_leases={c.get('host_leases', 0)} "
        f"host_revocations={c.get('host_revocations', 0)}"
    )


def _cmd_jobs(args) -> int:
    import json as _json

    from repro.service import SweepService

    iterations = args.iterations if args.watch else 1
    i = 0
    while True:
        with SweepService(args.state_dir, read_only=True) as svc:
            payload = svc.jobs()
        if args.json:
            print(_json.dumps(payload, indent=2, default=repr))
        else:
            if args.watch and i > 0:
                print(f"--- refresh {i} ---")
            _render_jobs(payload)
        i += 1
        if iterations is not None and i >= iterations:
            return 0
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_report(args) -> int:
    import pathlib

    from repro.analysis.report import ARTEFACTS

    texts = {
        name: make()
        for name, make in ARTEFACTS.items()
        if not (args.no_figures and name.startswith("fig"))
    }
    if args.output:
        out = pathlib.Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / f"{name}.txt").write_text(text)
        print(f"{len(texts)} artefacts written to {out}")
    else:
        print("\n\n".join(text.rstrip("\n") for text in texts.values()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercube-mm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list algorithms").set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="simulate one algorithm")
    p_run.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p_run.add_argument("-n", type=int, default=64, help="matrix size")
    p_run.add_argument("-p", type=int, default=64, help="processor count")
    p_run.add_argument("--seed", type=int, default=0)
    _add_machine_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare all applicable algorithms")
    p_cmp.add_argument("-n", type=int, default=64)
    p_cmp.add_argument("-p", type=int, default=64)
    p_cmp.add_argument("--seed", type=int, default=0)
    _add_machine_args(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fig = sub.add_parser("figure", help="render a Figure 13/14 panel")
    p_fig.add_argument("figure", type=int, choices=[13, 14])
    p_fig.add_argument("panel", choices=sorted(PANELS))
    p_fig.add_argument("--log2n", type=int, default=13)
    p_fig.add_argument("--log2p", type=int, default=20)
    p_fig.add_argument(
        "--backend", choices=["model", "sim"], default="model",
        help="model = Table 2 closed forms (default); sim = time each "
             "candidate in the engine (keep --log2p modest)",
    )
    _add_cache_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sw = sub.add_parser(
        "sweep", help="tabulate model overheads along one parameter axis"
    )
    _add_job_params(p_sw, "sweep")
    _add_cache_args(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)

    p_t2 = sub.add_parser("table2", help="measured vs modelled coefficients")
    p_t2.add_argument("-n", type=int, default=16)
    p_t2.add_argument("-p", type=int, default=16)
    _add_port_arg(p_t2)
    _add_cache_args(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_tr = sub.add_parser("trace", help="draw an ASCII Gantt chart of a run")
    p_tr.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p_tr.add_argument("-n", type=int, default=16)
    p_tr.add_argument("-p", type=int, default=8)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--width", type=int, default=72)
    _add_machine_args(p_tr)
    p_tr.set_defaults(func=_cmd_trace)

    p_sc = sub.add_parser("scalability", help="isoefficiency curves")
    p_sc.add_argument("-E", "--efficiency", type=float, default=0.8)
    p_sc.add_argument("--log2p-max", type=int, default=15)
    p_sc.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS))
    _add_cost_args(p_sc)
    p_sc.set_defaults(func=_cmd_scalability)

    p_fl = sub.add_parser(
        "faults", help="drop-rate sweep on a lossy machine"
    )
    p_fl.add_argument("-n", type=int, default=16)
    p_fl.add_argument("-p", type=int, default=16)
    p_fl.add_argument("--seed", type=int, default=0, help="matrix seed")
    p_fl.add_argument("--plan-seed", type=int, default=0, help="fault-plan seed")
    p_fl.add_argument(
        "--drop-rates", type=float, nargs="+", default=[0.0, 0.01, 0.05],
        help="per-hop message drop probabilities to sweep",
    )
    p_fl.add_argument(
        "--transient", action="store_true",
        help="also inject the canonical windowed link failure",
    )
    p_fl.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS))
    _add_cost_args(p_fl)
    _add_cache_args(p_fl)
    p_fl.set_defaults(func=_cmd_faults)

    p_rc = sub.add_parser(
        "recover", help="node fail-stop recovery sweep (ABFT / checkpoint)"
    )
    p_rc.add_argument("-n", type=int, default=12)
    p_rc.add_argument("-p", type=int, default=16)
    p_rc.add_argument("--seed", type=int, default=0, help="matrix seed")
    p_rc.add_argument("--plan-seed", type=int, default=1, help="fault-plan seed")
    p_rc.add_argument(
        "--kill-fracs", type=float, nargs="+", default=[0.3, 0.7],
        help="kill times as fractions of the fault-free run time",
    )
    p_rc.add_argument(
        "--modes", nargs="+", choices=["abft", "checkpoint", "none"],
        default=["abft", "checkpoint", "none"],
        help="recovery modes to sweep",
    )
    p_rc.add_argument(
        "--victims", type=int, nargs="*",
        help="ranks to fail-stop (default: one seeded victim per algorithm)",
    )
    p_rc.add_argument("--algorithms", nargs="*", choices=sorted(ALGORITHMS))
    _add_cost_args(p_rc)
    p_rc.set_defaults(func=_cmd_recover)

    p_ch = sub.add_parser(
        "chaos",
        help="randomized fault-injection campaign with minimized reproducers",
    )
    _add_job_params(p_ch, "chaos")
    p_ch.add_argument(
        "--only-trial", type=int, default=None,
        help="replay a single trial instead of the whole campaign",
    )
    p_ch.add_argument(
        "--atoms", default=None,
        help="comma-separated fault-atom indices to keep (with --only-trial; "
             "this is the reproducer form the minimizer emits)",
    )
    p_ch.add_argument(
        "--no-minimize", action="store_true",
        help="skip delta-debugging the failing trials' fault sets",
    )
    p_ch.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full JSON report to FILE",
    )
    p_ch.set_defaults(func=_cmd_chaos)

    p_dg = sub.add_parser(
        "degrade",
        help="graceful-degradation sweep over heterogeneous network "
             "scenarios (which algorithm degrades most gracefully?)",
    )
    _add_job_params(p_dg, "degrade")
    p_dg.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full JSON report to FILE",
    )
    _add_cache_args(p_dg)
    p_dg.set_defaults(func=_cmd_degrade)

    p_ca = sub.add_parser(
        "cache", help="inspect or maintain the persistent result cache"
    )
    p_ca.add_argument("action", choices=["stats", "clear", "prune", "verify"])
    p_ca.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-hypercube-mm)",
    )
    p_ca.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: drop entries older than this many days",
    )
    p_ca.add_argument(
        "--max-bytes", type=int, default=None,
        help="prune: shrink the store to this byte budget (oldest first)",
    )
    p_ca.add_argument(
        "--state-dir", default=None,
        help="audit a sweep-service state instead: its cache plus "
             "orphaned streaming partials in results/",
    )
    p_ca.set_defaults(func=_cmd_cache)

    p_rep = sub.add_parser(
        "report", help="regenerate the paper's full evaluation"
    )
    p_rep.add_argument(
        "-o", "--output", metavar="DIR",
        help="write each artefact to DIR/<name>.txt instead of stdout",
    )
    p_rep.add_argument(
        "--no-figures", action="store_true",
        help="skip the Figure 13/14 artefacts",
    )
    p_rep.set_defaults(func=_cmd_report)

    # -- crash-safe sweep service -------------------------------------------

    def _add_state_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--state-dir", required=True,
            help="service state directory (journal, cache, results)",
        )

    p_sub = sub.add_parser(
        "submit", help="queue a job on the crash-safe sweep service"
    )
    _add_state_dir(p_sub)
    p_sub.add_argument("--tenant", default="default")
    p_sub.add_argument("--max-pending", type=int, default=32)
    p_sub.add_argument("--tenant-rate", type=float, default=2.0)
    p_sub.add_argument("--tenant-burst", type=float, default=8.0)
    p_sub.add_argument(
        "--json", action="store_true",
        help="emit the submission outcome (job id, or shed with "
             "retry_after) as JSON",
    )
    p_sub.add_argument(
        "--wait", type=float, default=10.0,
        help="seconds to wait for a running daemon's ack when the state "
             "is locked (submissions spool to it)",
    )
    kind_sub = p_sub.add_subparsers(dest="kind", required=True)

    for kind, help_ in [
        ("sweep", "parameter sweep over n/p/t_s/t_w"),
        ("region-map", "best-algorithm region map"),
        ("degrade", "graceful-degradation severity report"),
        ("chaos", "seeded fault-injection campaign"),
    ]:
        p_k = kind_sub.add_parser(kind, help=help_)
        p_k.add_argument(
            "--params", default=None,
            help="extra job parameters as a JSON object (flags win)",
        )
        _add_job_params(p_k, kind)
        p_k.set_defaults(func=_cmd_submit)

    p_sv = sub.add_parser(
        "serve", help="execute pending service jobs (resumes from the journal)"
    )
    _add_state_dir(p_sv)
    p_sv.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: half the CPUs this process may "
             "run on, at least 1)",
    )
    p_sv.add_argument("--chunk-size", type=int, default=None)
    p_sv.add_argument(
        "--chunk-deadline", type=float, default=30.0,
        help="per-chunk lease deadline in seconds",
    )
    p_sv.add_argument("--max-attempts", type=int, default=3)
    p_sv.add_argument("--backoff-base", type=float, default=0.05)
    p_sv.add_argument(
        "--inject", action="append", default=None, metavar="SPEC",
        help="fault injection: kill-worker:K, stall-worker:K, "
             "poison-chunk:K, crash-service:K, corrupt-journal-tail "
             "(repeatable)",
    )
    p_sv.add_argument(
        "--follow", action="store_true",
        help="daemon mode: keep tailing the submit spool after the "
             "queue drains; SIGTERM drains gracefully",
    )
    p_sv.add_argument(
        "--poll", type=float, default=0.1,
        help="daemon idle poll interval in seconds",
    )
    p_sv.add_argument(
        "--max-seconds", type=float, default=None,
        help="daemon mode: exit after this long (soak/CI bound)",
    )
    p_sv.add_argument(
        "--tenant-weight", action="append", default=None,
        metavar="TENANT=W",
        help="fair-scheduling weight for a tenant (repeatable; "
             "unlisted tenants weigh 1.0)",
    )
    p_sv.add_argument(
        "--stale-after", type=float, default=5.0,
        help="seconds without a heartbeat before a host's leases are "
             "revoked and re-sharded",
    )
    p_sv.set_defaults(func=_cmd_serve)

    p_wk = sub.add_parser(
        "work",
        help="run a multi-host worker agent leasing chunks from a "
             "(possibly remote) service state directory",
    )
    _add_state_dir(p_wk)
    p_wk.add_argument(
        "--host-id", required=True,
        help="this host's identity under <state>/hosts/",
    )
    p_wk.add_argument("--heartbeat", type=float, default=0.5)
    p_wk.add_argument("--poll", type=float, default=0.05)
    p_wk.add_argument(
        "--max-seconds", type=float, default=None,
        help="exit after this long even without a STOP file",
    )
    p_wk.add_argument(
        "--die-after-chunks", type=int, default=None,
        help="chaos: simulate a host crash (exit without cleanup) after "
             "completing this many chunks",
    )
    p_wk.set_defaults(func=_cmd_work)

    p_jb = sub.add_parser(
        "jobs", help="inspect service jobs and robustness counters"
    )
    _add_state_dir(p_jb)
    p_jb.add_argument("--json", action="store_true")
    p_jb.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render every SECONDS (streamed partials show live "
             "chunk progress); ctrl-c to stop",
    )
    p_jb.add_argument(
        "--iterations", type=int, default=None,
        help="with --watch: stop after N renders (tests/CI)",
    )
    p_jb.set_defaults(func=_cmd_jobs)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # ``... | head``: point stdout at devnull so the exit flush cannot
        # raise again, and exit 1 (the recipe in the ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
