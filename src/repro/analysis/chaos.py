"""Chaos-campaign harness: randomized fault injection with invariants,
delta-debugged reproducers, and deterministic replay.

A *campaign* samples ``trials`` random fault plans — link drops, link
corruption, node corruption, fail-stops — and runs a registered matmul
algorithm under a chosen **protection stack** against each, checking
three invariants per trial:

* **oracle** — the computed product matches the numpy oracle within a
  tight tolerance (silent corruption that slips through protection is
  caught here),
* **replay** — re-running the same trial is bit-identical (result *and*
  virtual time), the property every debugging workflow in this repo
  rests on,
* **hang** — the run finishes before a generous virtual-time deadline
  (deadlocks and livelocks count as hangs; the simulator's own detectors
  convert them to typed errors).

Any other :class:`~repro.errors.ReproError` escaping the stack is an
``error`` violation.  On violation, a **delta-debugging minimizer**
(classic ddmin plus a final one-at-a-time sweep) shrinks the trial's
fault set to a locally minimal subset that still reproduces the same
violation kind, and the report carries a ready-to-paste ``repro chaos``
command line replaying exactly that minimized plan.

Protection stacks
-----------------
``none``
    Raw contexts: nothing between the algorithm and the faults.
``reliable``
    :class:`~repro.mpi.reliable.ReliableContext` — survives message
    loss, blind to corruption.
``integrity``
    :class:`~repro.mpi.integrity.IntegrityContext` — survives loss and
    in-flight corruption, blind to compute corruption and fail-stops.
``protected``
    :class:`~repro.algorithms.abft.ABFTMatmul` over an integrity
    context — the full stack: erasure reconstruction, checksum error
    correction, checkpoint fallback, end-to-end message integrity.

Determinism
-----------
Every trial is a pure function of ``(campaign seed, trial index)``:
matrices, fault atoms and the plan's RNG seed all derive from
``default_rng([seed, trial])``, and the driver precomputes the fault-free
horizon once, so a campaign is bit-identical across reruns and across
however the sweep service shards its trials over workers.

Coverage limits (by design)
---------------------------
A plan gets at most one of {fail-stop, node corruption}: an erasure and
a silent error in the same decode line poison each other's
reconstruction, which the sampler documents by simply not generating the
combination.  Link-corruption rates stay below 1.0 so retransmission can
succeed; a deterministic always-corrupting link is a
:class:`~repro.errors.CorruptionError`, not something retries can beat.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

import numpy as np

from repro.algorithms import get_algorithm
from repro.algorithms.abft import ABFTMatmul
from repro.errors import (
    DeadlockError,
    LivelockError,
    ReproError,
)
from repro.mpi.integrity import IntegrityContext
from repro.mpi.reliable import ReliableContext
from repro.sim.faults import FLIP_MODELS, FaultPlan
from repro.sim.machine import MachineConfig
from repro.sim.scenario import random_heterogeneous

__all__ = [
    "STACKS",
    "sample_atoms",
    "plan_from_atoms",
    "run_campaign",
    "campaign_cells",
    "campaign_report",
    "minimize_atoms",
    "format_report",
]

#: protection stacks a campaign can run under (see module doc)
STACKS = ("none", "reliable", "integrity", "protected")

#: relative/absolute tolerance of the numpy-oracle invariant — tight
#: enough that a sign or exponent flip anywhere is a violation, loose
#: enough that float rounding (and sub-ULP mantissa flips, harmless by
#: definition) never false-positives
ORACLE_RTOL = 1e-8
ORACLE_ATOL = 1e-8


# ---------------------------------------------------------------------------
# fault-plan sampling
# ---------------------------------------------------------------------------


def _sample_edge(rng: np.random.Generator, p: int) -> tuple[int, int]:
    """A random hypercube edge (u, u ^ 2^k)."""
    dim = p.bit_length() - 1
    u = int(rng.integers(p))
    return u, u ^ (1 << int(rng.integers(dim)))


def _sample_window(rng: np.random.Generator, horizon: float) -> tuple[float, float]:
    start = float(rng.random() * 0.6 * horizon)
    length = float((0.15 + 0.45 * rng.random()) * horizon)
    return start, start + length


def sample_atoms(
    rng: np.random.Generator, p: int, horizon: float
) -> list[dict[str, Any]]:
    """Sample a trial's fault atoms (1–3 JSON-able dicts).

    Consumes the trial RNG in a fixed order, so the same
    ``(seed, trial)`` always yields the same atoms.
    """
    atoms: list[dict[str, Any]] = []
    n_atoms = 1 + int(rng.integers(3))
    have_node_fault = False
    for _ in range(n_atoms):
        roll = float(rng.random())
        if roll < 0.40 or (roll >= 0.60 and have_node_fault):
            u, v = _sample_edge(rng, p)
            start, end = _sample_window(rng, horizon)
            atoms.append({
                "kind": "link_corrupt", "u": u, "v": v,
                "rate": round(0.2 + 0.3 * float(rng.random()), 3),
                "start": start, "end": end,
                "model": FLIP_MODELS[int(rng.integers(len(FLIP_MODELS)))],
                "flips": 1 + int(rng.integers(2)),
            })
        elif roll < 0.60:
            u, v = _sample_edge(rng, p)
            start, end = _sample_window(rng, horizon)
            atoms.append({
                "kind": "link_drop", "u": u, "v": v,
                "rate": round(0.2 + 0.3 * float(rng.random()), 3),
                "start": start, "end": end,
            })
        elif roll < 0.85:
            atoms.append({
                "kind": "node_corrupt",
                "node": int(rng.integers(p)),
                "at": float(rng.random() * 0.8 * horizon),
                "model": FLIP_MODELS[int(rng.integers(len(FLIP_MODELS)))],
                "flips": 1 + int(rng.integers(2)),
            })
            have_node_fault = True
        else:
            atoms.append({
                "kind": "node_fail",
                "node": int(rng.integers(p)),
                "at": float(rng.random() * 0.5 * horizon),
            })
            have_node_fault = True
    return atoms


def plan_from_atoms(atoms: list[dict[str, Any]], seed: int) -> FaultPlan:
    """Materialize sampled atoms into a seeded :class:`FaultPlan`."""
    plan = FaultPlan(seed=seed)
    for atom in atoms:
        kind = atom["kind"]
        if kind == "link_corrupt":
            plan = plan.with_link_corruption(
                atom["u"], atom["v"], atom["rate"],
                start=atom["start"], end=atom["end"],
                model=atom["model"], flips=atom["flips"],
            )
        elif kind == "link_drop":
            plan = plan.with_link_drop(
                atom["u"], atom["v"], atom["rate"],
                start=atom["start"], end=atom["end"],
            )
        elif kind == "node_corrupt":
            plan = plan.with_node_corruption(
                atom["node"], at=atom["at"],
                model=atom["model"], flips=atom["flips"],
            )
        elif kind == "node_fail":
            plan = plan.with_node_failure(atom["node"], at=atom["at"])
        else:
            raise ValueError(f"unknown fault atom kind {kind!r}")
    return plan


# ---------------------------------------------------------------------------
# one trial (module-level and picklable for the service's workers)
# ---------------------------------------------------------------------------


def _trial_matrices(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Small-integer-valued float matrices: checksum sums stay exact in
    float64, so clean residuals are exactly zero and every invariant
    comparison is sharp."""
    A = rng.integers(-4, 5, (n, n)).astype(float)
    B = rng.integers(-4, 5, (n, n)).astype(float)
    return A, B


def _detector_friendly_integrity(ctx):
    """Integrity context with the failure detector's short retry ladder
    (``max_retries=3, backoff=1.5``): silence from a fail-stopped peer is
    convicted after a few round trips instead of thousands, and a message
    the short ladder gives up on just becomes an ABFT-recoverable hole."""
    return IntegrityContext(ctx, max_retries=3, backoff=1.5)


def _execute(cell: dict[str, Any], plan: FaultPlan, A, B):
    """Run the cell's algorithm under its stack on the faulted machine.

    Returns ``(C, total_time)``; lets :class:`~repro.errors.ReproError`
    propagate to the caller's classifier.
    """
    config = MachineConfig.create(cell["p"]).with_faults(plan)
    severity = cell.get("severity", 0.0)
    if severity > 0:
        config = config.with_scenario(random_heterogeneous(
            cell["p"], severity, seed=cell.get("scenario_seed", 0)
        ))
    algorithm = get_algorithm(cell["algorithm"])
    stack = cell["stack"]
    deadline = cell["deadline"]
    if stack == "protected":
        run = ABFTMatmul(
            algorithm, mode="abft",
            context_factory=_detector_friendly_integrity,
        ).run(A, B, config, max_virtual_time=deadline)
        return run.C, run.total_time
    factory = {
        "none": None,
        "reliable": ReliableContext,
        "integrity": IntegrityContext,
    }[stack]
    run = algorithm.run(
        A, B, config, context_factory=factory, max_virtual_time=deadline
    )
    return run.C, run.result.total_time


def _violation_of(cell: dict[str, Any]) -> dict[str, Any] | None:
    """Run one trial and classify its outcome.

    ``None`` means every invariant held; otherwise a dict with the
    violation ``kind`` (``oracle`` / ``replay`` / ``hang`` / ``error``)
    and a human-readable ``detail``.
    """
    rng = np.random.default_rng([cell["seed"], cell["trial"]])
    A, B = _trial_matrices(rng, cell["n"])
    atoms = cell["atoms"]
    if atoms is None:
        atoms = sample_atoms(rng, cell["p"], cell["horizon"])
    if cell.get("atom_subset") is not None:
        atoms = [atoms[i] for i in cell["atom_subset"]]
    plan_seed = (cell["seed"] << 16) ^ cell["trial"]
    plan = plan_from_atoms(atoms, seed=plan_seed)

    try:
        C, total_time = _execute(cell, plan, A, B)
    except (DeadlockError, LivelockError) as exc:
        return {"kind": "hang", "detail": str(exc), "atoms": atoms}
    except ReproError as exc:
        return {
            "kind": "error",
            "detail": f"{type(exc).__name__}: {exc}",
            "atoms": atoms,
        }

    oracle = A @ B
    if not np.allclose(C, oracle, rtol=ORACLE_RTOL, atol=ORACLE_ATOL):
        bad = int(np.sum(~np.isclose(C, oracle, rtol=ORACLE_RTOL,
                                     atol=ORACLE_ATOL)))
        worst = float(np.nanmax(np.abs(C - oracle)))
        return {
            "kind": "oracle",
            "detail": f"{bad} wrong elements, max abs error {worst:g}",
            "atoms": atoms,
        }

    if cell["check_replay"]:
        try:
            C2, total_time2 = _execute(cell, plan, A, B)
        except ReproError as exc:
            return {
                "kind": "replay",
                "detail": f"replay raised {type(exc).__name__}: {exc}",
                "atoms": atoms,
            }
        if not np.array_equal(C, C2) or total_time != total_time2:
            return {
                "kind": "replay",
                "detail": (
                    f"replay diverged: time {total_time!r} vs {total_time2!r}"
                ),
                "atoms": atoms,
            }
    return None


def _run_trial(cell: dict[str, Any]) -> dict[str, Any]:
    """Grid cell entry point: one trial's record (picklable both ways)."""
    violation = _violation_of(cell)
    record: dict[str, Any] = {"trial": cell["trial"]}
    if violation is None:
        record["violation"] = None
    else:
        record["violation"] = {
            "kind": violation["kind"], "detail": violation["detail"],
        }
        record["atoms"] = violation["atoms"]
    return record


# ---------------------------------------------------------------------------
# delta-debugging minimizer
# ---------------------------------------------------------------------------


def minimize_atoms(
    atoms: list[Any], reproduces: Callable[[list[int]], bool]
) -> list[int]:
    """ddmin over indices into ``atoms``: a locally minimal index subset
    for which ``reproduces(subset)`` still holds.

    Classic Zeller/Hildebrandt delta debugging (subset and complement
    tests with doubling granularity) plus a final one-at-a-time sweep, so
    the result is 1-minimal: removing any single remaining atom breaks
    reproduction.  ``reproduces`` must hold for the full index set.
    """
    current = list(range(len(atoms)))
    gran = 2
    while len(current) >= 2:
        size = max(1, len(current) // gran)
        chunks = [current[i:i + size] for i in range(0, len(current), size)]
        reduced = False
        for chunk in chunks:
            if len(chunk) == len(current):
                continue
            if reproduces(chunk):
                current = chunk
                gran = 2
                reduced = True
                break
            complement = [i for i in current if i not in chunk]
            if complement and reproduces(complement):
                current = complement
                gran = max(2, gran - 1)
                reduced = True
                break
        if not reduced:
            if gran >= len(current):
                break
            gran = min(len(current), gran * 2)
    for i in list(current):
        rest = [j for j in current if j != i]
        if rest and reproduces(rest):
            current = rest
    return current


def _minimize_violation(
    cell: dict[str, Any], record: dict[str, Any]
) -> dict[str, Any]:
    """Shrink a failing trial's fault set; returns the reproducer dict."""
    atoms = record["atoms"]
    kind = record["violation"]["kind"]

    def reproduces(subset: list[int]) -> bool:
        probe = dict(cell, atoms=atoms, atom_subset=sorted(subset))
        v = _violation_of(probe)
        return v is not None and v["kind"] == kind

    if reproduces(list(range(len(atoms)))):
        keep = minimize_atoms(atoms, reproduces)
    else:
        # The violation did not reproduce on a rerun (e.g. a replay
        # violation, which is itself nondeterminism) — report unminimized.
        keep = list(range(len(atoms)))
    command = (
        f"repro chaos --stack {cell['stack']} --algorithm {cell['algorithm']}"
        f" -n {cell['n']} -p {cell['p']} --seed {cell['seed']}"
        f" --trials {cell['trials']}"
        f" --only-trial {cell['trial']}"
        f" --atoms {','.join(str(i) for i in keep)}"
    )
    if cell.get("severity", 0.0) > 0:
        command += (
            f" --severity {cell['severity']:g}"
            f" --scenario-seed {cell['scenario_seed']}"
        )
    return {
        "atoms": [atoms[i] for i in keep],
        "atom_indices": keep,
        "command": command,
    }


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------


def run_campaign(
    *,
    trials: int = 50,
    seed: int = 0,
    stack: str = "none",
    algorithm: str = "cannon",
    n: int = 8,
    p: int = 16,
    minimize: bool = True,
    check_replay: bool = True,
    only_trial: int | None = None,
    atom_subset: list[int] | None = None,
    deadline_factor: float = 200.0,
    severity: float = 0.0,
    scenario_seed: int = 0,
) -> dict[str, Any]:
    """Run a seeded chaos campaign; returns the JSON-able report.

    The report is a pure function of its parameters, one
    :func:`_run_trial` call per trial.  ``only_trial`` replays a single
    trial — optionally restricted to ``atom_subset`` indices of its
    sampled fault atoms — which is the reproducer form the minimizer
    emits.

    ``severity`` > 0 layers a seeded heterogeneous network scenario
    (:func:`~repro.sim.scenario.random_heterogeneous` at
    ``scenario_seed``) under every trial's fault plan: the campaign then
    probes whether slow links and injected faults *compose* — e.g. that
    degradation-stretched round trips never eat the retransmission
    budget the integrity layer needs for real corruption.  The default
    0.0 runs on the uniform machine, bit-identical to earlier releases.
    """
    cells = campaign_cells(
        trials=trials, seed=seed, stack=stack, algorithm=algorithm, n=n,
        p=p, check_replay=check_replay, deadline_factor=deadline_factor,
        severity=severity, scenario_seed=scenario_seed,
        only_trial=only_trial, atom_subset=atom_subset,
    )
    return campaign_report(
        cells, [_run_trial(cell) for cell in cells], minimize=minimize
    )


def campaign_cells(
    *,
    trials: int,
    seed: int,
    stack: str,
    algorithm: str,
    n: int,
    p: int,
    check_replay: bool = True,
    deadline_factor: float = 200.0,
    severity: float = 0.0,
    scenario_seed: int = 0,
    only_trial: int | None = None,
    atom_subset: list[int] | None = None,
) -> list[dict[str, Any]]:
    """The campaign's trial cells, one :func:`_run_trial` input each.

    Every trial, or only ``only_trial`` (restricted to ``atom_subset``).
    Each cell carries the fault-free horizon: the virtual duration of a
    clean run, the time scale fault windows are sampled against and the
    unit of the hang deadline.  It is deterministic (seeded matrices,
    uniform machine), so a resumed service job rebuilds identical cells.
    """
    if stack not in STACKS:
        raise ValueError(f"stack must be one of {STACKS}, got {stack!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    baseline = get_algorithm(algorithm).run(
        *_trial_matrices(np.random.default_rng([seed, 0]), n),
        MachineConfig.create(p),
    )
    horizon = baseline.result.total_time
    wanted = range(trials) if only_trial is None else [only_trial]
    return [
        {
            "seed": seed, "trial": t, "stack": stack,
            "algorithm": algorithm, "n": n, "p": p,
            "horizon": horizon, "deadline": deadline_factor * horizon,
            "check_replay": check_replay, "atoms": None,
            "atom_subset": atom_subset if only_trial is not None else None,
            "trials": trials,
            "severity": severity, "scenario_seed": scenario_seed,
        }
        for t in wanted
    ]


def campaign_report(
    cells: list[dict[str, Any]],
    records: list[dict[str, Any] | None],
    *,
    minimize: bool = False,
) -> dict[str, Any]:
    """The JSON-able campaign report from the cells' records (cell order).

    A ``None`` record is a trial the sweep service quarantined: it counts
    neither as clean nor as a violation, and the report names it in
    ``quarantined_cells``, which only such a report carries (and
    digests).  ``minimize`` delta-debugs each violating trial's fault set
    into a reproducer.
    """
    violations = []
    for cell, record in zip(cells, records):
        if record is None or record["violation"] is None:
            continue
        entry = {
            "trial": record["trial"],
            "kind": record["violation"]["kind"],
            "detail": record["violation"]["detail"],
            "atoms": record["atoms"],
        }
        if minimize and cell["atom_subset"] is None:
            entry["reproducer"] = _minimize_violation(cell, record)
        violations.append(entry)

    first = cells[0]
    quarantined = [i for i, rec in enumerate(records) if rec is None]
    report = {
        key: first[key]
        for key in ("stack", "algorithm", "n", "p", "seed", "trials",
                    "horizon", "severity", "scenario_seed")
    }
    report["clean"] = len(records) - len(quarantined) - len(violations)
    report["violations"] = violations
    if quarantined:
        report["quarantined_cells"] = quarantined
    report["digest"] = _report_digest(report)
    return report


def _report_digest(report: dict[str, Any]) -> str:
    """Stable fingerprint of a campaign's (or a degradation sweep's) outcome.

    Invariant across reruns and across the sweep service's worker
    counts: ``detail`` strings are excluded because the engine's
    diagnostics embed process-global message/handle counters, which
    depend on how trials were sharded over workers — everything
    semantic (trial outcomes, violation kinds, fault atoms, minimized
    reproducers; a sweep's cell outcomes, times, overheads and ranking)
    is covered.
    """

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in ("detail", "digest")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    payload = json.dumps(strip(report), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def format_report(report: dict[str, Any]) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"chaos campaign: {report['trials']} trials, "
        f"{report['algorithm']} n={report['n']} p={report['p']}, "
        f"stack={report['stack']}, seed={report['seed']}"
        + (
            f", network severity={report['severity']:g} "
            f"(scenario seed {report['scenario_seed']})"
            if report.get("severity") else ""
        ),
        f"  clean: {report['clean']}   "
        f"violations: {len(report['violations'])}   "
        f"digest: {report['digest']}",
    ]
    for v in report["violations"]:
        lines.append(
            f"  trial {v['trial']}: {v['kind']} — {v['detail']}"
        )
        rep = v.get("reproducer")
        if rep:
            kinds = ",".join(a["kind"] for a in rep["atoms"])
            lines.append(
                f"    minimized to {len(rep['atoms'])} fault(s) [{kinds}]"
            )
            lines.append(f"    $ {rep['command']}")
    return "\n".join(lines)
