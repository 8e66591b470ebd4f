"""Differential conformance harness for the engine's execution paths.

The engine promises that its two ways of running the same program are
*bit-identical*: the event path (``superstep=False``) and the closed-form
superstep path (``superstep=True``).  This module turns that promise into
a seeded, shrinkable differential suite:

* :func:`sample_cases` draws a deterministic case list over
  (algorithm × p × port model × routing × machine parameters × fault
  plan × scenario severity), guaranteeing every registered algorithm
  appears;
* :func:`diff_case` runs one case through both paths and returns
  ``None`` on agreement or a human-readable mismatch label (runs that
  raise are compared by error, not skipped — both paths must fail
  identically);
* :func:`shrink_case` delta-debugs a mismatching case with
  :func:`~repro.analysis.chaos.minimize_atoms` (dropping fault/scenario
  atoms) plus an axis-reset sweep (plainer routing/port/parameters), so
  the reproducer that gets printed is locally minimal;
* :func:`closed_form_reach` counts the cases the closed forms batched
  (``repro report``'s ``conformance`` artefact prints it).

Faulty cases run the "fast" configuration through the generator loops
too, and pin the fallback-equivalence contract instead.  Degraded cases
pay one event per hop on both sides: there the engine's own rounds are
compared with those loops.  ``traced`` cases compare hop record by hop
record, and there only an aligned shift phase and a lifted pair park:
the hop table emits their records (see ``repro.sim.superstep``, "Traced
phases").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.analysis.chaos import minimize_atoms, plan_from_atoms, sample_atoms
from repro.errors import ReproError
from repro.sim.machine import MachineConfig, PortModel, RoutingMode
from repro.sim.scenario import random_heterogeneous

__all__ = [
    "Case",
    "sample_cases",
    "diff_case",
    "shrink_case",
    "reproducer",
    "closed_form_reach",
    "SUITE_COUNT",
]

#: machine parameter sets; deliberately includes non-dyadic values (the
#: engine's aggregates fold in an order-independent way, so even 10/3
#: must agree to the last bit)
PARAM_SETS: tuple[tuple[float, float, float], ...] = (
    (7.0, 3.0, 0.5),
    (150.0, 3.0, 0.25),
    (10.0 / 3.0, 0.7, 0.125),
    (1.0, 2.0, 0.0),
)

#: processor counts sampled per algorithm: the smallest two applicable
#: machines keep the sweep fast while still crossing the p=8/p=64 golden
#: coverage with fresh parameters
_P_LADDER = (4, 8, 16, 32, 64, 128, 256, 512)
_N_LADDER = (4, 6, 8, 9, 12, 16, 24, 27, 32, 48, 64)

#: the 3D family plus DNS: every algorithm whose communication is dominated
#: by collective phases (allgather / reduce-scatter / broadcast / reduce
#: rounds) rather than pairwise shifts.  ``sample_cases`` oversamples these
#: once full-registry coverage is secured, because the collective closed
#: form (``sim/superstep.py``) has far more schedule surface to pin down
#: than the shift recurrence.
_COLLECTIVE_HEAVY: tuple[str, ...] = (
    "3d_all", "3d_all_rect", "3d_all_trans", "3dd", "dns",
    "3dd_cannon", "dns_cannon",
)

#: the registered callers of ``cannon_kernel``: a contended multi-hop skew
#: declared with its shift phase.  From p = 64 up the skew leaves the ranks
#: rounds apart, which is what exercises the hop table's overlapped rounds
#: and the frontier it hands the shift closed form (smaller machines reach
#: a level one).
_SHIFT_HEAVY: tuple[str, ...] = ("cannon", "berntsen", "dns_cannon", "3dd_cannon")

#: passes over the collective-heavy family before the sampler starts
#: alternating it with the shift-heavy one (cases keep their index, and
#: with it their identity, when ``count`` grows)
_COLLECTIVE_PASSES = 5

#: algorithms whose communication is all single-hop phases with a closed
#: form: one declared shift phase (``hje`` grouped, ``fox`` broadcast)
#: and, on a one-port machine, fused allgather pairs planned through one
#: port column (``simple``, ``3d_all``, ``3d_all_rect``)
_SINGLE_HOP: tuple[str, ...] = ("hje", "fox", "simple", "3d_all", "3d_all_rect")

#: alternating cases drawn before the single-hop pass (which then takes one
#: case per algorithm x port model x routing mode), so that the pass starts
#: at index 77 of the full registry's sample and renames no earlier case
_ALTERNATING_BEFORE_SINGLE_HOP = 16

_PORTS = ("one-port", "multi-port")
_ROUTINGS = ("store-and-forward", "cut-through")

#: size of the sample ``tests/conformance`` runs; the ``conformance``
#: report artefact measures the closed forms' reach over it
SUITE_COUNT = 97


@dataclass(frozen=True)
class Case:
    """One differential configuration (plain data, reprs as a reproducer)."""

    algorithm: str
    n: int
    p: int
    port: str       # "one-port" | "multi-port"
    routing: str    # "store-and-forward" | "cut-through"
    t_s: float
    t_w: float
    t_c: float
    #: fault atoms (``repro.analysis.chaos`` vocabulary) plus at most one
    #: ``{"kind": "scenario", "severity": ..., "seed": ...}`` atom
    atoms: tuple = ()
    data_seed: int = 0
    traced: bool = False  # compare the paths under trace=True too


def _applicable_machines(key: str) -> list[tuple[int, int]]:
    """(n, p) pairs for ``key``: the smallest applicable n per ladder p."""
    algo = ALGORITHMS[key]
    out = []
    for p in _P_LADDER:
        n = next((n for n in _N_LADDER if algo.applicable(n, p)), None)
        if n is not None:
            out.append((n, p))
    return out


def sample_cases(
    seed: int = 2026,
    count: int = 52,
    algorithms: tuple[str, ...] | None = None,
) -> list[Case]:
    """A deterministic case list covering every requested algorithm.

    The first two passes cycle through the algorithm list, so
    ``count >= 2 * len(algorithms)`` guarantees full registry coverage
    with both healthy (``traced`` as well) and faulty flavors; the next
    ``_COLLECTIVE_PASSES`` passes oversample the collective-heavy 3D
    family (largest applicable machines, alternating fault-free with
    chaos flavors) where the closed-form collective path has the most
    surface; from there on every other case is a fault-free run of a
    ``cannon_kernel`` caller at p >= 64, where the skew staggers the shift
    phase's frontier — interrupted, sixteen cases in, by one pass over the
    single-hop family (:data:`_SINGLE_HOP`) fault-free at p >= 64, one
    case per algorithm, port model and routing mode.  Pure function of
    ``(seed, count, algorithms)``, and case ``i`` does not depend on
    ``count``.
    """
    algos = tuple(algorithms if algorithms is not None else sorted(ALGORITHMS))
    heavy = tuple(k for k in _COLLECTIVE_HEAVY if k in algos) or algos
    shifty = tuple(k for k in _SHIFT_HEAVY if k in algos) or heavy
    single = tuple(k for k in _SINGLE_HOP if k in algos)
    machines = {key: _applicable_machines(key) for key in algos}
    base = 2 * len(algos)
    alternating = _COLLECTIVE_PASSES * len(heavy)
    single_start = base + alternating + _ALTERNATING_BEFORE_SINGLE_HOP
    single_cases = len(single) * len(_PORTS) * len(_ROUTINGS)
    cases: list[Case] = []
    for i in range(count):
        port = routing = None
        j = i - base
        if i >= single_start + single_cases:
            j -= single_cases  # the alternation resumes where it stopped
        if i < base:
            key = algos[i % len(algos)]
            flavor = (i // len(algos)) % 4  # healthy, faulty, degraded, both
            pool = machines[key][:2] or machines[key]
        elif single_start <= i < single_start + single_cases:
            m = i - single_start
            key = single[m % len(single)]
            port = _PORTS[m // len(single) % len(_PORTS)]
            routing = _ROUTINGS[m // (len(single) * len(_PORTS))]
            flavor = 0
            pool = [mach for mach in machines[key] if mach[1] >= 64] or machines[key]
        elif j >= alternating and (j - alternating) % 2 == 0:
            key = shifty[(j - alternating) // 2 % len(shifty)]
            flavor = 0
            pool = [m for m in machines[key] if m[1] >= 64] or machines[key]
        else:
            if j >= alternating:
                j = alternating + (j - alternating) // 2
            key = heavy[j % len(heavy)]
            # Every other oversampled case stays fault-free, so the
            # collective closed form itself (not just its fallback) is
            # what gets differentially pinned; the rest walk the chaos
            # flavors on the same large machines.
            flavor = 0 if j % 2 == 0 else 1 + (j // 2) % 3
            pool = machines[key][-2:] or machines[key]
        rng = np.random.default_rng([seed, i])
        if not pool:
            raise ReproError(f"no applicable machine for {key!r}")
        n, p = pool[int(rng.integers(len(pool)))]
        t_s, t_w, t_c = PARAM_SETS[int(rng.integers(len(PARAM_SETS)))]
        atoms: list[dict[str, Any]] = []
        if flavor in (1, 3):
            atoms.extend(sample_atoms(rng, p, 5_000.0))
        if flavor in (2, 3):
            atoms.append({
                "kind": "scenario",
                "severity": round(0.5 + 1.5 * float(rng.random()), 3),
                "seed": int(rng.integers(1 << 16)),
            })
        if port is None:
            port = "multi-port" if rng.random() < 0.5 else "one-port"
            routing = (
                "cut-through" if rng.random() < 0.3 else "store-and-forward"
            )
        cases.append(Case(
            algorithm=key, n=n, p=p, port=port, routing=routing,
            t_s=t_s, t_w=t_w, t_c=t_c,
            atoms=tuple(atoms), data_seed=i,
            traced=i < base and flavor in (0, 2),
        ))
    return cases


def _build_config(case: Case) -> MachineConfig:
    fault_atoms = [a for a in case.atoms if a["kind"] != "scenario"]
    scen_atoms = [a for a in case.atoms if a["kind"] == "scenario"]
    faults = (
        plan_from_atoms(fault_atoms, seed=case.data_seed)
        if fault_atoms else None
    )
    scenario = (
        random_heterogeneous(
            case.p, scen_atoms[0]["severity"], seed=scen_atoms[0]["seed"]
        )
        if scen_atoms else None
    )
    return MachineConfig.create(
        case.p,
        t_s=case.t_s, t_w=case.t_w, t_c=case.t_c,
        port_model=(
            PortModel.MULTI_PORT if case.port == "multi-port"
            else PortModel.ONE_PORT
        ),
        routing=(
            RoutingMode.CUT_THROUGH if case.routing == "cut-through"
            else RoutingMode.STORE_AND_FORWARD
        ),
        faults=faults,
        scenario=scenario,
    )


def _outcome(case: Case, *, superstep: bool, trace: bool = False) -> dict:
    """One path's observables — or its error, which must also agree."""
    rng = np.random.default_rng([case.data_seed, 99])
    A = rng.standard_normal((case.n, case.n))
    B = rng.standard_normal((case.n, case.n))
    try:
        run = get_algorithm(case.algorithm).run(
            A, B, _build_config(case),
            superstep=superstep, max_virtual_time=None, trace=trace,
        )
    except Exception as exc:  # noqa: BLE001 — failures are outcomes too
        # Handle ids ("tag=1#573") are per-engine disambiguators, so the
        # same run always renders the same text — but the fast and event
        # paths legitimately create different numbers of handles; strip
        # them so error equality compares the *failure*, not the count.
        msg = re.sub(r"#\d+", "#*", str(exc))
        return {"error": f"{type(exc).__name__}: {msg}"}
    res = run.result
    evented = res.shift_rounds_event + res.collective_phases_event
    assert sum(res.closed_form_refusals.values()) == evented, (
        f"refusals {res.closed_form_refusals} do not sum to the "
        f"{evented} shift rank-rounds and collective phases run by events"
    )
    return {
        "total_time": res.total_time,
        "digest": res.trace_digest(),
        "stats": res.stats,
        "network": res.network,
        "C": run.C,
        "product_ok": run.C is not None and bool(np.allclose(run.C, A @ B)),
        "events": res.events_processed,
        # Which path ran the shift rounds and collective phases, and why
        # (diagnostics: they legitimately differ between the two paths).
        "rounds_closed_form": res.shift_rounds_closed_form,
        "rounds_event": res.shift_rounds_event,
        "phases_closed_form": res.collective_phases_closed_form,
        "phases_event": res.collective_phases_event,
        "refusals": res.closed_form_refusals,
    }


def diff_case(case: Case) -> str | None:
    """Run both paths; ``None`` on bitwise agreement, else a label.

    Agreement alone would pass a fast path that is wrong the same way as
    the event path, so a case without fault atoms (a scenario slows links
    but cannot corrupt or drop data) must also return ``C ≈ A @ B``.
    """
    fast = _outcome(case, superstep=True)
    label = (
        _planner_exceptions(fast)
        or _wrong_product(case, fast)
        or _compare(fast, _outcome(case, superstep=False), "fast-vs-event")
    )
    if label is None and case.traced:
        fast, event = (_outcome(case, superstep=s, trace=True) for s in (True, False))
        label = _compare(fast, event, "traced fast-vs-event")
    return label


def _wrong_product(case: Case, fast: dict) -> str | None:
    """The default path's product, checked where nothing can perturb it
    (a run that raised is compared by its error instead)."""
    if "error" in fast or any(a["kind"] != "scenario" for a in case.atoms):
        return None
    return None if fast["product_ok"] else "fast path: C != A @ B"


def _planner_exceptions(fast: dict) -> str | None:
    """A run that completed although a closed-form planner raised: the
    fallback hid a planner bug (a program error would have failed the run
    on the event path too)."""
    raised = sorted(
        reason for reason in fast.get("refusals", ())
        if reason.startswith("planner exception")
    )
    return f"fast path: {', '.join(raised)}" if raised else None


def closed_form_reach(cases: list[Case]) -> dict:
    """How far the closed forms reach over ``cases``.

    Runs the default path of every case whose machine lets phases park
    (no fault or scenario atoms) and returns ``{"eligible", "declared",
    "batched", "refusals", "unbatched", "planner_exceptions"}``: how many
    such cases there are, how many of them declare a shift or collective
    phase at all, how many of those ran *none* of it by events (no shift
    rank-round, no collective phase), the refusal reasons of the rest
    (reason -> rank-rounds and phases, summed over cases), the ``(case,
    refusals)`` pairs of the cases not batched, and the ``(case, reason)``
    pairs whose reason is a planner exception.
    """
    eligible = declared = batched = 0
    refusals: dict[str, int] = {}
    unbatched, planner_exceptions = [], []
    for case in cases:
        if case.atoms:
            continue
        eligible += 1
        fast = _outcome(case, superstep=True)
        if "error" in fast or not any(
            fast[k] for k in ("rounds_closed_form", "rounds_event",
                              "phases_closed_form", "phases_event")
        ):
            continue
        declared += 1
        if fast["rounds_event"] or fast["phases_event"]:
            unbatched.append((case, fast["refusals"]))
        else:
            batched += 1
        for reason, count in fast["refusals"].items():
            refusals[reason] = refusals.get(reason, 0) + count
            if reason.startswith("planner exception"):
                planner_exceptions.append((case, reason))
    return {
        "eligible": eligible, "declared": declared, "batched": batched,
        "refusals": refusals, "unbatched": unbatched,
        "planner_exceptions": planner_exceptions,
    }


def _compare(a: dict, b: dict, where: str) -> str | None:
    if ("error" in a) != ("error" in b):
        return f"{where}: one path errored ({a.get('error') or b.get('error')})"
    if "error" in a:
        return None if a["error"] == b["error"] else (
            f"{where}: different errors ({a['error']!r} vs {b['error']!r})"
        )
    if a["total_time"] != b["total_time"]:
        return (
            f"{where}: total_time {a['total_time']!r} != {b['total_time']!r}"
        )
    if a["digest"] != b["digest"]:
        return f"{where}: trace digest diverged"
    if a["stats"] != b["stats"]:
        return f"{where}: per-rank stats diverged"
    if a["network"] != b["network"]:
        return f"{where}: network stats {a['network']} != {b['network']}"
    ca, cb = a["C"], b["C"]
    if (ca is None) != (cb is None) or (
        ca is not None and not np.array_equal(ca, cb)
    ):
        return f"{where}: result matrix C diverged bitwise"
    if a["events"] > b["events"]:
        # ``a`` is the superstep-on run.  A closed form that engages
        # replaces a phase's events; a refused one re-enters through one
        # resume per parked rank.  Costing *more* events than the twin
        # means ranks are parked only to be released: a host-cost
        # regression even though every simulated number agrees.
        return (
            f"{where}: fast path processed more events "
            f"({a['events']} > {b['events']})"
        )
    return None


def _axis_resets(case: Case) -> list[Case]:
    """Candidate simplifications, plainest first."""
    out = []
    if case.routing != "store-and-forward":
        out.append(replace(case, routing="store-and-forward"))
    if case.port != "one-port":
        out.append(replace(case, port="one-port"))
    if case.t_c != 0.0:
        out.append(replace(case, t_c=0.0))
    if (case.t_s, case.t_w) != (1.0, 1.0):
        out.append(replace(case, t_s=1.0, t_w=1.0))
    for n, p in _applicable_machines(case.algorithm):
        if p < case.p or (p == case.p and n < case.n):
            out.append(replace(case, n=n, p=p))
            break
    return out


def shrink_case(
    case: Case,
    mismatches: Callable[[Case], bool] | None = None,
) -> Case:
    """A locally minimal case that still mismatches.

    ``mismatches`` defaults to ``diff_case(...) is not None``.  Atoms are
    delta-debugged first (ddmin), then each axis reset is kept whenever
    the simpler case still reproduces, to a fixpoint.
    """
    if mismatches is None:
        mismatches = lambda c: diff_case(c) is not None  # noqa: E731
    if not mismatches(case):
        raise ReproError("shrink_case needs a mismatching case to start from")
    atoms = list(case.atoms)
    if atoms:
        keep = minimize_atoms(
            atoms,
            lambda idx: mismatches(
                replace(case, atoms=tuple(atoms[i] for i in idx))
            ),
        )
        case = replace(case, atoms=tuple(atoms[i] for i in keep))
    changed = True
    while changed:
        changed = False
        for candidate in _axis_resets(case):
            if mismatches(candidate):
                case = candidate
                changed = True
                break
    return case


def reproducer(case: Case) -> str:
    """A paste-ready snippet replaying one case's differential check."""
    return (
        "PYTHONPATH=src python -c \"from repro.analysis.conformance import "
        f"Case, diff_case; print(diff_case({case!r}))\""
    )

