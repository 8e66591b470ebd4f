"""Chunk planning for the sweep service, the repo's one parallel executor.

Region maps, coefficient sweeps, degradation and chaos grids all
evaluate one pure function over many independent cells.  Evaluated in
process they are plain loops; to use more cores, submit the grid to the
sweep service (``repro submit ...`` then ``repro serve --workers N``),
which leases contiguous chunks of cells to supervised workers.  This
module is that service's partitioning:

* :func:`default_jobs` / :func:`resolve_jobs` — the worker count, resolved
  once per job so the chunk plan can be journaled;
* :func:`plan_chunks` — deterministic contiguous chunk boundaries,
  derived from the cell count, worker count and chunk size only, never
  from worker availability, so the same inputs always shard identically;
* :func:`contiguous_spans` — chunk index sets collapsed into spans.

Each worker evaluates its cells with its own private simulator state
(engines, route caches, fault RNG streams are all built per run from
seeds), and the service merges records in cell order, so the sealed
report does not depend on the worker count.
"""

from __future__ import annotations

import os
from typing import Iterable

__all__ = ["default_jobs", "resolve_jobs", "plan_chunks", "contiguous_spans"]


def default_jobs() -> int:
    """Worker count used when a caller asks for "parallel" without a number.

    Half the CPUs in this process's *affinity* mask
    (``os.sched_getaffinity(0)`` where the platform provides it, else
    ``os.cpu_count()``), at least one: a container or ``taskset`` pinning
    sees the CPUs it was actually given, not the whole machine.  Sweeps
    are CPU-bound pure Python, so hyper-sibling oversubscription buys
    nothing, and leaving headroom keeps interactive use pleasant.
    """
    try:
        visible = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        visible = os.cpu_count() or 2
    return max(1, visible // 2)


def resolve_jobs(jobs: int | None) -> int:
    """The effective worker count for one job, resolved exactly once.

    ``None`` consults :func:`default_jobs` *at this call*, so the
    resolved value can be recorded (the sweep service journals it in the
    chunk plan) and a resumed job never re-shards work planned under
    another worker count.  Explicit non-positive values degrade to 1.
    """
    if jobs is None:
        return default_jobs()
    return max(1, int(jobs))


def plan_chunks(
    n_cells: int, jobs: int, chunk_size: int | None = None
) -> list[tuple[int, int]]:
    """Deterministic contiguous chunk boundaries for an ``n_cells`` grid.

    Returns ``[(start, stop), ...]`` half-open index ranges covering
    ``range(n_cells)`` in order.  The partition depends only on
    ``(n_cells, jobs, chunk_size)`` — never on scheduling or worker
    availability — so the same inputs always shard identically.  The
    sweep-service supervisor leases exactly these ranges to workers (and
    journals them, so a resumed job re-uses the recorded plan verbatim).

    ``chunk_size=None`` targets about four chunks per worker — small
    enough to balance load, large enough to amortize pickling.
    """
    if n_cells <= 0:
        return []
    jobs = max(1, jobs)
    if chunk_size is None:
        chunk_size = max(1, -(-n_cells // (jobs * 4)))
    elif chunk_size < 1:
        chunk_size = 1
    return [
        (i, min(i + chunk_size, n_cells))
        for i in range(0, n_cells, chunk_size)
    ]


def contiguous_spans(indices: Iterable[int]) -> list[tuple[int, int]]:
    """Collapse a set of chunk indices into sorted half-open spans.

    ``{0, 1, 2, 5, 7, 8} -> [(0, 3), (5, 6), (7, 9)]``.  The sweep
    service uses this in two places with opposite polarities: the host
    pool grants each host one contiguous span per lease (fewer task
    files, cache-friendly cell ranges), and ``repro jobs --watch``
    renders a job's completed chunks as spans instead of a wall of
    integers.
    """
    spans: list[tuple[int, int]] = []
    for i in sorted(set(indices)):
        if spans and spans[-1][1] == i:
            spans[-1] = (spans[-1][0], i + 1)
        else:
            spans.append((i, i + 1))
    return spans
