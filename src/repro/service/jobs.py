"""Job kinds the sweep service can execute, as chunkable pure grids.

Every artefact family the service serves — Table 2 axis sweeps, region
maps, graceful-degradation reports, chaos campaigns — already reduces to
*one pure function over many independent cells*.  This module gives
each family a uniform shape the supervisor can lease chunk by chunk:

``make_spec(kind, params)``
    Apply the kind's defaults (the only ones: every job flag of the CLI
    defaults to ``None``) and coerce to canonical JSON-safe values.  The
    normalized params are what gets journaled and what the job's
    content-addressed key digests — logically-equal submissions coalesce.
``build_cells(spec)``
    The plain-data cell list, in canonical order (drives the chunk plan).
``evaluate_chunk(kind, params, cells)``
    Worker entry point (module-level, picklable): evaluate a contiguous
    slice of cells into plain-data records.
``finalize(spec, records)``
    Reassemble the full record list (cell order) into the family's
    JSON-able report, carrying the family's own ``digest``.  For the
    ``degrade`` kind this is literally
    :func:`repro.analysis.degradation.report_from_points`, so a service
    job and a direct ``repro degrade`` produce bit-identical digests.
``evaluate(spec)``
    The three above in this process, in one chunk: what a direct
    ``repro sweep`` or ``repro degrade`` prints.

Quarantined chunks surface as ``None`` records; ``finalize`` is handed
the record list with holes and each family degrades explicitly (the
report names the missing cells) rather than crashing or silently
dropping them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.analysis.cache import canonical_json, engine_fingerprint, task_digest
from repro.errors import AlgorithmError, ServiceError
from repro.sim.machine import PortModel

__all__ = [
    "JobSpec", "KINDS", "make_spec", "build_cells", "evaluate_chunk",
    "finalize", "evaluate",
]

#: job kinds the service accepts
KINDS = ("sweep", "region_map", "degrade", "chaos")


@dataclass(frozen=True)
class JobSpec:
    """One submitted unit of work: a kind plus normalized parameters."""

    kind: str
    params: dict

    def key(self) -> str:
        """Content address of this job's *result*.

        Engine-fingerprinted like every cache key: the same submission
        against a changed engine is a different job, so coalescing and
        chunk-cache hits can never serve stale physics.
        """
        return task_digest({
            "engine": engine_fingerprint(),
            "kind": self.kind,
            "task": self.params,
            "service": 1,
        })


def make_spec(kind: str, params: dict) -> JobSpec:
    """Validate ``kind``, normalize ``params``, and build the spec.

    Submissions cross this boundary (``repro submit``, or a spooled
    request file anyone can write): whatever is wrong with one surfaces
    as :class:`~repro.errors.ServiceError` and nothing else.
    """
    from repro.algorithms.registry import get_algorithm

    if kind not in KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r} (expected one of {', '.join(KINDS)})"
        )
    try:
        normalized = _NORMALIZE[kind](dict(params))
        for key in normalized.get("algorithms") or ():
            get_algorithm(key)  # a typo would seal an all-None report
    except (ValueError, TypeError, KeyError, AlgorithmError) as exc:
        raise ServiceError(
            f"malformed {kind} job params: {type(exc).__name__}: {exc}"
        ) from exc
    return JobSpec(kind=kind, params=normalized)


def _port_value(params: dict, default: str = "one-port") -> str:
    port = params.get("port", default)
    if isinstance(port, PortModel):
        return port.value
    if port in ("one", "one-port"):
        return PortModel.ONE_PORT.value
    if port in ("multi", "multi-port"):
        return PortModel.MULTI_PORT.value
    raise ServiceError(f"unknown port model {port!r}")


# ---------------------------------------------------------------------------
# normalize: defaults + canonical JSON-safe params per kind
# ---------------------------------------------------------------------------


def _normalize_sweep(p: dict) -> dict:
    values = p.get("values")
    if not values:
        raise ServiceError("sweep job needs a non-empty 'values' list")
    variable = p.get("variable", "p")
    if variable not in ("n", "p", "t_s", "t_w"):
        raise ServiceError(f"unknown sweep variable {variable!r}")
    return {
        "algorithms": list(p.get("algorithms")
                           or ["cannon", "berntsen", "3dd", "3d_all"]),
        "variable": variable,
        "values": [float(v) for v in values],
        "n": float(p.get("n", 256)),
        "p": float(p.get("p", 64)),
        "port": _port_value(p),
        "t_s": float(p.get("t_s", 150.0)),
        "t_w": float(p.get("t_w", 3.0)),
    }


def _normalize_region_map(p: dict) -> dict:
    lo_n, hi_n = int(p.get("log2_n_min", 1)), int(p.get("log2_n_max", 13))
    lo_p, hi_p = int(p.get("log2_p_min", 2)), int(p.get("log2_p_max", 20))
    if lo_n > hi_n or lo_p > hi_p:
        raise ServiceError("region_map job has an empty lattice")
    backend = p.get("backend", "model")
    if backend not in ("model", "sim"):
        raise ServiceError(
            f"region_map backend must be 'model' or 'sim', got {backend!r}"
        )
    algorithms = p.get("algorithms")
    return {
        "port": _port_value(p),
        "t_s": float(p.get("t_s", 150.0)),
        "t_w": float(p.get("t_w", 3.0)),
        "log2_n_min": lo_n, "log2_n_max": hi_n,
        "log2_p_min": lo_p, "log2_p_max": hi_p,
        "algorithms": list(algorithms) if algorithms else None,
        "backend": backend,
    }


def _normalize_degrade(p: dict) -> dict:
    from repro.algorithms.registry import get_algorithm
    from repro.analysis.degradation import DEFAULT_ALGORITHMS

    n, pp = int(p.get("n", 8)), int(p.get("p", 16))
    keys = list(p.get("algorithms") or DEFAULT_ALGORITHMS)
    keys = [k for k in keys if get_algorithm(k).applicable(n, pp)]
    if not keys:
        raise ServiceError(
            f"no selected algorithm is applicable at n={n}, p={pp}"
        )
    severities = p.get("severities") or [0.5, 1.0, 2.0]
    return {
        "algorithms": keys,
        "n": n, "p": pp,
        "severities": [float(s) for s in severities],
        "profile": p.get("profile", "random"),
        "scenario_seed": int(p.get("scenario_seed", 0)),
        "seed": int(p.get("seed", 0)),
        "adaptive": bool(p.get("adaptive", True)),
        "t_s": float(p.get("t_s", 150.0)),
        "t_w": float(p.get("t_w", 3.0)),
        "port": _port_value(p),
        "max_events": int(p.get("max_events", 5_000_000)),
    }


def _normalize_chaos(p: dict) -> dict:
    from repro.analysis.chaos import STACKS

    stack = p.get("stack", "none")
    if stack not in STACKS:
        raise ServiceError(f"stack must be one of {STACKS}, got {stack!r}")
    trials = int(p.get("trials", 25))
    if trials < 1:
        raise ServiceError(f"trials must be >= 1, got {trials}")
    return {
        "trials": trials,
        "seed": int(p.get("seed", 0)),
        "stack": stack,
        "algorithm": p.get("algorithm", "cannon"),
        "n": int(p.get("n", 8)),
        "p": int(p.get("p", 16)),
        "check_replay": bool(p.get("check_replay", True)),
        "deadline_factor": float(p.get("deadline_factor", 200.0)),
        "severity": float(p.get("severity", 0.0)),
        "scenario_seed": int(p.get("scenario_seed", 0)),
    }


_NORMALIZE = {
    "sweep": _normalize_sweep,
    "region_map": _normalize_region_map,
    "degrade": _normalize_degrade,
    "chaos": _normalize_chaos,
}


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def build_cells(spec: JobSpec) -> list:
    """The job's plain-data cell list, in canonical (chunk-plan) order."""
    p = spec.params
    if spec.kind == "sweep":
        return list(p["values"])
    if spec.kind == "region_map":
        from repro.analysis.regions import candidates

        port = PortModel(p["port"])
        algos = tuple(p["algorithms"] or candidates(port))
        log2_p = tuple(
            float(v) for v in range(p["log2_p_min"], p["log2_p_max"] + 1)
        )
        return [
            (p["port"], p["t_s"], p["t_w"], float(ln), log2_p, algos)
            for ln in range(p["log2_n_min"], p["log2_n_max"] + 1)
        ]
    if spec.kind == "degrade":
        from repro.analysis.degradation import sweep_cells

        return sweep_cells(
            p["algorithms"], p["n"], p["p"], p["severities"],
            profile=p["profile"], scenario_seed=p["scenario_seed"],
            seed=p["seed"], adaptive=p["adaptive"],
            t_s=p["t_s"], t_w=p["t_w"],
            port_model=PortModel(p["port"]), max_events=p["max_events"],
        )
    if spec.kind == "chaos":
        from repro.analysis.chaos import campaign_cells

        return campaign_cells(**p)
    raise ServiceError(f"unknown job kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# worker entry point
# ---------------------------------------------------------------------------


def evaluate_chunk(kind: str, params: dict, cells: list) -> list:
    """Evaluate one leased chunk of cells (module-level, picklable).

    Pure: the records depend only on ``(kind, params, cells)``, never on
    the worker, the attempt number, or wall time — re-executions after a
    kill produce bit-identical records, which is what lets the chunk
    cache and the digest gates work.
    """
    if kind == "sweep":
        from repro.analysis.sweep import sweep

        points = sweep(
            tuple(params["algorithms"]), params["variable"], list(cells),
            n=params["n"], p=params["p"], port=PortModel(params["port"]),
            t_s=params["t_s"], t_w=params["t_w"],
        )
        return [{"value": pt.value, "times": pt.times, "best": pt.best()}
                for pt in points]
    if kind == "region_map":
        from repro.analysis.regions import region_map

        # Any journaled value other than "sim" is the model (journals
        # written before the backends were renamed say "scalar").
        backend = "sim" if params.get("backend") == "sim" else "model"
        out = []
        for port_value, t_s, t_w, ln, log2_p, algos in cells:
            # one leased row is a one-row lattice of the whole-map call
            row = region_map(
                PortModel(port_value), t_s, t_w,
                log2_n_min=int(ln), log2_n_max=int(ln),
                log2_p_min=int(log2_p[0]), log2_p_max=int(log2_p[-1]),
                algorithms=tuple(algos), backend=backend,
            )
            out.append({
                "log2_n": ln,
                "winners": row.winners[0],
                # NaN marks "no applicable algorithm"; make it JSON-safe
                # (and canonical_json-safe for the digest) as None.
                "times": [None if t != t else t for t in row.times[0].tolist()],
            })
        return out
    if kind == "degrade":
        from repro.analysis.degradation import _run_cell

        return [_run_cell(cell) for cell in cells]
    if kind == "chaos":
        from repro.analysis.chaos import _run_trial

        return [_run_trial(cell) for cell in cells]
    raise ServiceError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------------


def _missing_chunks(records: list) -> list[int]:
    return [i for i, rec in enumerate(records) if rec is None]


def _flat_digest(payload: Any) -> str:
    """Digest for the analytic kinds (sweep / region_map): canonical JSON
    over the semantic payload, chaos-report style (16 hex chars)."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def finalize(spec: JobSpec, records: list) -> dict:
    """The job's JSON-able report from its full record list (cell order).

    ``records`` may contain ``None`` holes for quarantined cells; the
    report carries them in ``quarantined_cells`` and computes whatever
    remains computable — a degraded answer with an explicit hole list,
    never a silent one.
    """
    p = dict(spec.params)
    missing = _missing_chunks(records)
    if spec.kind == "sweep":
        points = [rec for rec in records if rec is not None]
        report = {
            "kind": "sweep", **p, "points": points,
            "quarantined_cells": missing,
        }
        report["digest"] = _flat_digest(
            {"params": p, "points": points, "quarantined": missing}
        )
        return report
    if spec.kind == "region_map":
        rows = [rec for rec in records if rec is not None]
        counts: dict[str, int] = {}
        for row in rows:
            for winner in row["winners"]:
                if winner is not None:
                    counts[winner] = counts.get(winner, 0) + 1
        report = {
            "kind": "region_map", **p, "rows": rows,
            "winner_counts": dict(sorted(counts.items())),
            "quarantined_cells": missing,
        }
        report["digest"] = _flat_digest(
            {"params": p, "rows": rows, "quarantined": missing}
        )
        return report
    if spec.kind == "degrade":
        from repro.analysis.degradation import (
            points_from_records,
            report_from_points,
        )

        if missing:
            # A hole in a degrade grid poisons the baseline threading;
            # degrade explicitly rather than guess.
            report = {
                "kind": "degrade", **p, "ranking": [],
                "quarantined_cells": missing,
                "digest": _flat_digest({"params": p, "quarantined": missing}),
                "detail": f"{len(missing)} cell(s) quarantined — "
                          f"no ranking computable",
            }
            return report
        points = points_from_records(p["algorithms"], records)
        report = report_from_points(
            p["algorithms"], points,
            n=p["n"], p=p["p"], severities=p["severities"],
            profile=p["profile"], scenario_seed=p["scenario_seed"],
            seed=p["seed"], adaptive=p["adaptive"],
            t_s=p["t_s"], t_w=p["t_w"], port_model=PortModel(p["port"]),
        )
        report["kind"] = "degrade"
        report["quarantined_cells"] = []
        return report
    if spec.kind == "chaos":
        from repro.analysis.chaos import campaign_report

        # Digested like the one-shot campaign: ``kind`` and an empty
        # ``quarantined_cells`` stay outside the digest.
        report = {"kind": "chaos", **campaign_report(build_cells(spec), records)}
        report.setdefault("quarantined_cells", [])
        return report
    raise ServiceError(f"unknown job kind {spec.kind!r}")


def evaluate(spec: JobSpec, cache=None) -> dict:
    """The job's report with every cell evaluated in this process.

    A direct ``repro sweep`` or ``repro degrade`` is this call; the
    service reaches the same report, digest included, chunk by chunk.
    ``cache`` (a :class:`~repro.analysis.cache.ResultCache`) memoizes
    the report under the job's normalized params.
    """

    def compute() -> dict:
        return finalize(
            spec, evaluate_chunk(spec.kind, spec.params, build_cells(spec))
        )

    if cache is None:
        return compute()
    return cache.fetch("job", {"kind": spec.kind, "params": spec.params},
                       compute)
