"""Which layer a profiled function belongs to, and the boundary spans.

The benchmark measures the program from outside: one pass runs under
``cProfile`` and every profiled function is attributed to a layer by the
path of the file that defines it.  The layer names are the repository's
module names, so a change to ``src/repro/sim/ports.py`` moves
``sim.ports.*`` and nothing else.
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
HARNESS = pathlib.Path(__file__).resolve().parent

LAYERS = (
    "util", "topology",
    "sim.engine", "sim.process", "sim.ports", "sim.message",
    "sim.superstep", "sim.faults", "sim.scenario", "sim.other",
    "mpi.communicator", "mpi.reliable", "mpi.integrity", "mpi.detector",
    "mpi.recovery",
    "collectives", "algorithms", "models",
    "analysis", "analysis.cache",
    "service.journal", "service.supervisor", "service.core",
    "numpy", "builtins", "stdlib",
)

#: files that are a layer of their own inside their package
_FILE_LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/process.py": "sim.process",
    "sim/ports.py": "sim.ports",
    "sim/message.py": "sim.message",
    "sim/superstep.py": "sim.superstep",
    "sim/faults.py": "sim.faults",
    "sim/scenario.py": "sim.scenario",
    "mpi/reliable.py": "mpi.reliable",
    "mpi/integrity.py": "mpi.integrity",
    "mpi/detector.py": "mpi.detector",
    "mpi/recovery.py": "mpi.recovery",
    "mpi/checkpoint.py": "mpi.recovery",
    "analysis/cache.py": "analysis.cache",
    "service/journal.py": "service.journal",
    "service/supervisor.py": "service.supervisor",
}

#: where the remaining files of each package go
_PACKAGE_LAYERS = {
    "util": "util",
    "topology": "topology",
    "sim": "sim.other",
    "mpi": "mpi.communicator",
    "collectives": "collectives",
    "algorithms": "algorithms",
    "blocks": "algorithms",
    "models": "models",
    "analysis": "analysis",
    "service": "service.core",
}


def package_layer(relative: str) -> str | None:
    """Layer of a file given relative to ``src/repro``; ``None`` when the
    file is in a package this table does not know (the harness test fails
    on that, so a new package gets a layer before it is measured)."""
    if relative in _FILE_LAYERS:
        return _FILE_LAYERS[relative]
    head, _, rest = relative.partition("/")
    if not rest:
        # cli.py, errors.py, __init__.py, __main__.py
        return "util"
    return _PACKAGE_LAYERS.get(head)


def location(entry) -> tuple[str, str]:
    """(file, function) of one ``cProfile.Profile.getstats()`` entry.

    C functions have no file: ``cProfile`` names them
    ``<built-in method numpy.array>`` or ``<method 'append' of 'list'
    objects>``, and their file reads ``~`` as in ``pstats``.
    """
    code = entry.code
    if isinstance(code, str):
        return "~", code
    return code.co_filename, code.co_name


def _relative(filename: str) -> str | None:
    """``filename`` relative to ``src/repro``, ``~`` for a C function,
    ``None`` for any other file."""
    if filename == "~":
        return filename
    path = pathlib.Path(filename)
    if path.is_relative_to(PACKAGE):
        return path.relative_to(PACKAGE).as_posix()
    return None


def layer_of(filename: str, function: str) -> str:
    """Layer of one profiled function; a C function counts as ``numpy``
    when its name says so and as ``builtins`` otherwise."""
    relative = _relative(filename)
    if relative == "~":
        return "numpy" if "numpy" in function else "builtins"
    if relative is not None:
        return package_layer(relative) or "stdlib"
    path = pathlib.Path(filename)
    if path.is_relative_to(HARNESS):
        return "harness"
    return "numpy" if "numpy" in path.parts else "stdlib"


#: boundary spans read from the same profile: span name -> the functions
#: whose cumulative time and calls it sums, as (file under src/repro or a
#: directory prefix ending in "/", function name)
SPANS = {
    "distribute": (("algorithms/", "distribute_inputs"),),
    "run_spmd": (("sim/engine.py", "run_spmd"),),
    "collect": (("algorithms/", "collect_output"),),
    "superstep_shift": (("sim/superstep.py", "try_advance_superstep"),),
    "superstep_collective": (("sim/superstep.py", "try_advance_collective"),),
    "reserve_hop": (("sim/ports.py", "reserve_hop"),),
    "journal_append": (("service/journal.py", "append"),),
    "cache_io": (("analysis/cache.py", "_load"), ("analysis/cache.py", "put")),
    "supervisor_run": (("service/supervisor.py", "run"),),
    "stream_refresh": (("service/streaming.py", "refresh"),),
}

#: functions whose exact call counts are reported as service counters
CALL_COUNTS = {
    "service.journal.fsyncs": ("~", "<built-in method posix.fsync>"),
    "service.worker_spawns": ("service/supervisor.py", "_spawn_worker"),
    "service.cache.puts": ("analysis/cache.py", "put"),
}


def _matches(relative: str | None, function: str, target: tuple[str, str]) -> bool:
    where, name = target
    if function != name or relative is None:
        return False
    return relative.startswith(where) if where.endswith("/") else relative == where


def summarize(entries) -> dict[str, float]:
    """Per-layer and per-span metrics of one profile.

    ``entries`` is ``cProfile.Profile.getstats()``.  Returns
    ``<layer>.calls``, ``<layer>.self_share``, ``span.<name>.calls``,
    ``span.<name>.cum_share``, the ``CALL_COUNTS`` counters and
    ``py_calls``; shares are of the profile's total self time.  A span
    sums the cumulative time of every function it names, so a wrapper
    that calls the wrapped function of the same name (ABFT around an
    algorithm's ``distribute_inputs``) counts that time twice.
    """
    calls = dict.fromkeys(LAYERS + ("harness",), 0)
    self_time = dict.fromkeys(LAYERS + ("harness",), 0.0)
    span_calls = dict.fromkeys(SPANS, 0)
    span_time = dict.fromkeys(SPANS, 0.0)
    counters = dict.fromkeys(CALL_COUNTS, 0)
    for entry in entries:
        filename, function = location(entry)
        relative = _relative(filename)
        layer = layer_of(filename, function)
        calls[layer] += entry.callcount
        self_time[layer] += entry.inlinetime
        for span, targets in SPANS.items():
            if any(_matches(relative, function, t) for t in targets):
                span_calls[span] += entry.callcount
                span_time[span] += entry.totaltime
        for counter, target in CALL_COUNTS.items():
            if _matches(relative, function, target):
                counters[counter] += entry.callcount
    total = sum(self_time.values()) or 1.0
    out: dict[str, float] = {"py_calls": sum(calls.values())}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = self_time[layer] / total
    for span in SPANS:
        out[f"span.{span}.calls"] = span_calls[span]
        out[f"span.{span}.cum_share"] = span_time[span] / total
    out.update(counters)
    out["harness.self_share"] = self_time["harness"] / total
    return out
