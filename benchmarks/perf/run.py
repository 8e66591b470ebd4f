"""Quiet-host, count-backed benchmark of the simulator and the sweep service.

    python3 benchmarks/perf/run.py --workload NAME [--seed S] [--seconds T]
                                   [--trace 0|1] [--selfcheck] [--pin]

One run: set-up (imports, inputs, reference results, one verified warm-up
pass), then measured *passes* over the workload's units until ``--seconds``
are used, each unit timed beside a calibration kernel, then the Table 2
comparison, one pass under ``cProfile``, and two more cold set-ups in child
processes.  Everything a person reads is printed
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  README.md in this
directory says what each metric means and why the protocol is what it is.
"""

import time

_T0 = time.perf_counter()  # the set-up clock starts before the imports

import argparse
import cProfile
import gc
import heapq
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: {ROOT / 'src' / 'repro'} is missing; the benchmark "
             "measures the program in this checkout and has nothing to run")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import layers
from workloads import UNPINNED, WORKLOADS

from repro.analysis.measure import measured_vs_model
from repro.sim import PortModel

DEFAULT_SEED = 0
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"
#: a run measures at least this many passes, whatever ``--seconds`` says
MIN_PASSES = 3
#: cold set-ups timed in child processes, beside the run's own
EXTRA_SETUPS = 2
#: a unit slower than this on a quiet host should be split (README, protocol)
UNIT_LIMIT_S = 0.6
#: what the calibration kernel takes on a quiet host of the kind this was
#: written on; calibrated seconds are seconds on such a host
KERNEL_REF_S = 0.010
#: kernel samples that calibrate one set-up
SETUP_KERNELS = 9
TABLE2_KEYS = ("simple", "cannon", "hje", "berntsen", "dns", "3dd",
               "3d_all_trans", "3d_all")
SIM_STATS = ("makespan_vt", "messages", "words", "channel_busy_vt",
             "retransmissions", "drops", "reroutes")

END_TO_END = {
    "cal_pass_s": "s", "py_calls": "calls", "peak_rss_mb": "MiB",
    "setup_s": "s", "table2_gap_max": "ratio",
}


def _per_layer_units() -> dict[str, str]:
    names: dict[str, str] = {}
    for layer in layers.LAYERS:
        names[f"{layer}.calls"] = "calls"
        names[f"{layer}.self_share"] = "ratio"
    for span in layers.SPANS:
        names[f"span.{span}.calls"] = "calls"
        names[f"span.{span}.cum_share"] = "ratio"
    for workload in WORKLOADS.values():
        for unit in workload.units:
            names[f"unit.{unit}.cal_s"] = "s"
    names.update({
        "sim.makespan_vt": "vt", "sim.messages": "count",
        "sim.words": "words", "sim.channel_busy_vt": "vt",
        "sim.retransmissions": "count", "sim.drops": "count",
        "sim.reroutes": "count", "sim.us_per_msg": "us",
        "service.journal.records": "count", "service.journal.bytes": "bytes",
        "service.journal.fsyncs": "calls", "service.worker_spawns": "calls",
        "service.cache.puts": "calls", "service.cache.hits": "count",
        "service.leases": "count", "service.retries": "count",
        "trace.overhead_ratio": "ratio", "host.kernel_p50_s": "s",
        "host.pass_min_s": "s", "host.pass_p50_s": "s",
        "host.steal_share": "ratio",
    })
    return names


#: name -> unit of every per-layer metric, the same on every workload (a
#: unit the workload does not run reads 0)
PER_LAYER = _per_layer_units()


def calibrated_units(samples: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    """Per unit, the median over passes of (unit seconds / seconds of the
    kernel sample taken just before it), in calibrated seconds.

    On a shared host the same code runs 30-70 % slower for minutes at a
    time and no execution is ever undisturbed, so neither a minimum nor a
    median of raw times repeats; the ratio to a kernel that the host slows
    down alike, measured side by side, does (README, noise evidence).
    """
    return {name: KERNEL_REF_S * statistics.median(dt / k for dt, k in pairs)
            for name, pairs in samples.items()}


_KERNEL_ARRAY = np.arange(4096, dtype=float)


class _Event:
    __slots__ = ("time", "key")

    def __init__(self, time, key):
        self.time = time
        self.key = key


def _counter():
    i = 0
    while True:
        yield i
        i += 1


def calibration_kernel() -> float:
    """A fixed ~10 ms that uses the host the way the program does: a heap
    of small objects, a dict, a generator, and numpy slices, ufuncs and
    reductions.  A register-only loop is no use: the host's slow phases
    are stolen time and cache pressure and leave such a loop almost alone.
    """
    heap: list = []
    table = {}
    ticks = _counter()
    acc = 0.0
    for i in range(7000):
        event = _Event((i * 7919) % 1009, i)
        heapq.heappush(heap, (event.time, i, event))
        table[i & 4095] = event
        if i & 1:
            acc += heapq.heappop(heap)[0]
        acc += next(ticks)
    for i in range(700):
        block = _KERNEL_ARRAY[i & 1023:(i & 1023) + 512] * 1.5
        block[::2] += 1.0
        acc += float(block.max()) + float(np.maximum(block, 3.0).sum())
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host so far; zeros without /proc."""
    try:
        fields = pathlib.Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0, 0
    ticks = [int(v) for v in fields[1:9]]
    return ticks[7], sum(ticks)


def _pinned(stats: dict) -> dict:
    return {k: v for k, v in stats.items() if k not in UNPINNED}


class Run:
    """One workload's units, every execution of them, and its spans."""

    def __init__(self, workload: str, seed: int, work: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.units = WORKLOADS[workload].build(seed, work)
        names = tuple(unit.name for unit in self.units)
        if names != WORKLOADS[workload].units:
            raise SystemExit(f"{workload}: built {names}, declared "
                             f"{WORKLOADS[workload].units}")
        self.attempted = 0
        self.failed = 0
        self.spans: list[dict] = []
        #: statistics of the warm-up pass; every later pass must repeat them
        self.reference: dict[str, dict] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def run_pass(self, name: str, profiler=None,
                 calibrate: bool = False) -> dict[str, tuple[float, float]]:
        """Every unit once; returns (seconds, seconds of the kernel sample
        taken just before) for the units that passed; the kernel reads 0
        without ``calibrate``.

        The collector runs before each unit and stays enabled inside it.
        """
        seconds: dict[str, tuple[float, float]] = {}
        pass_start = time.perf_counter()
        for unit in self.units:
            gc.collect()
            self.attempted += 1
            kernel = kernel_seconds() if calibrate else 0.0
            start = time.perf_counter()
            try:
                if profiler is not None:
                    profiler.enable()
                try:
                    out = unit.call()
                finally:
                    end = time.perf_counter()
                    if profiler is not None:
                        profiler.disable()
                stats = unit.check(out)
            except Exception as exc:  # a failed unit is counted, not fatal
                self.fail(f"{unit.name} in {name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                self.spans.append({"name": unit.name, "parent": name,
                                   "start": start - _T0,
                                   "end": time.perf_counter() - _T0})
            reference = self.reference.setdefault(unit.name, stats)
            if _pinned(stats) != _pinned(reference):
                self.fail(f"{unit.name} in {name}: statistics changed "
                          f"within the run: {stats} != {reference}")
                continue
            seconds[unit.name] = (end - start, kernel)
        self.spans.append({"name": name, "parent": self.workload,
                           "start": pass_start - _T0,
                           "end": time.perf_counter() - _T0})
        return seconds

    def check_pins(self, pins: dict) -> None:
        """Compare the warm-up statistics with ``expected.json``; a
        difference fails that unit's warm-up execution."""
        for unit in self.units:
            got = self.reference.get(unit.name)
            want = pins.get(unit.name)
            if got is not None and _pinned(got) != want:
                self.fail(f"{unit.name}: pinned statistics differ: "
                          f"{_pinned(got)} != {want}")


def set_up(workload: str, seed: int, work: pathlib.Path) -> tuple[Run, dict]:
    """Inputs, reference results and one verified warm-up pass (fills
    ``lru_cache``s, route caches and lazy imports).  Returns the run and
    the seconds since the process started importing, raw and calibrated by
    kernel samples taken right after."""
    run = Run(workload, seed, work)
    run.run_pass("warm-up")
    if seed == DEFAULT_SEED:
        run.check_pins(json.loads(EXPECTED.read_text())["units"][workload])
    raw = time.perf_counter() - _T0
    kernel = statistics.median(kernel_seconds() for _ in range(SETUP_KERNELS))
    return run, {"setup_raw_s": raw, "setup_s": raw * KERNEL_REF_S / kernel}


def table2_rows() -> list[list]:
    """Measured and Table 2 ``(a, b)`` for 8 algorithms x 2 port models
    at n = p = 64: the simulator's error against the paper."""
    rows = []
    for key in TABLE2_KEYS:
        for port in PortModel:
            cmp = measured_vs_model(key, 64, 64, port)
            rows.append([key, port.value, list(cmp.measured),
                         list(cmp.model) if cmp.model else None])
    return rows


def table2_gap(rows: list[list]) -> float:
    """max |measured/model - 1| over the coefficients with a closed form."""
    return max(
        abs(measured[i] / model[i] - 1.0)
        for _key, _port, measured, model in rows if model is not None
        for i in (0, 1)
    )


def child(*flags: str) -> dict:
    """This script in a fresh process; the last line it printed, parsed."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *flags],
                          capture_output=True, text=True, timeout=170)
    if not done.stdout.strip():
        raise SystemExit(f"run.py {' '.join(flags)} printed nothing:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(args, work: pathlib.Path) -> dict:
    run, own_setup = set_up(args.workload, args.seed, work)

    # Measured passes, tracing off.
    samples: dict[str, list[tuple[float, float]]] = {u.name: [] for u in run.units}
    pass_seconds: list[float] = []
    steal0, total0 = _cpu_ticks()
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        typical = statistics.median(pass_seconds) if pass_seconds else 0.0
        if len(pass_seconds) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
        pass_start = time.perf_counter()
        seconds = run.run_pass(f"pass-{len(pass_seconds) + 1}", calibrate=True)
        pass_seconds.append(time.perf_counter() - pass_start)
        for name, pair in seconds.items():
            samples[name].append(pair)
    steal1, total1 = _cpu_ticks()
    rusage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    rows = table2_rows()
    run.attempted += 1
    if rows != json.loads(EXPECTED.read_text())["table2"]:
        run.fail("table2: measured or model coefficients differ from the pins")

    # One more pass under cProfile gives the per-layer numbers.
    profiler = cProfile.Profile()
    traced = run.run_pass("traced", profiler)
    profile = layers.summarize(profiler.getstats())

    # Cold set-ups in fresh processes: imports and caches start empty,
    # which a repeat inside this process could not show.
    setups = [own_setup] + [
        child("--workload", args.workload, "--seed", str(args.seed),
              "--setup-only")
        for _ in range(EXTRA_SETUPS)
    ]

    measured = {name: pairs for name, pairs in samples.items() if pairs}
    units_cal = calibrated_units(measured)
    cal_pass = sum(units_cal.values())
    raw_p50 = sum(statistics.median(dt for dt, _ in pairs)
                  for pairs in measured.values())
    end_to_end = {
        "cal_pass_s": cal_pass,
        "py_calls": profile["py_calls"],
        "peak_rss_mb": rusage / 1024.0,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "table2_gap_max": table2_gap(rows),
    }

    per_layer = dict.fromkeys(PER_LAYER, 0.0)
    per_layer.update({k: v for k, v in profile.items() if k in per_layer})
    for name, value in units_cal.items():
        per_layer[f"unit.{name}.cal_s"] = value
    totals = {key: sum(stats.get(key, 0) for stats in run.reference.values())
              for key in SIM_STATS + ("journal_records", "journal_bytes",
                                      "leases", "retries", "cache_hits")}
    for key in SIM_STATS:
        per_layer[f"sim.{key}"] = totals[key]
    if totals["messages"]:
        per_layer["sim.us_per_msg"] = 1e6 * cal_pass / totals["messages"]
    per_layer.update({
        "service.journal.records": totals["journal_records"],
        "service.journal.bytes": totals["journal_bytes"],
        "service.cache.hits": totals["cache_hits"],
        "service.leases": totals["leases"],
        "service.retries": totals["retries"],
        "trace.overhead_ratio": sum(dt for dt, _ in traced.values()) / raw_p50,
        "host.kernel_p50_s": statistics.median(
            k for pairs in measured.values() for _, k in pairs),
        "host.pass_min_s": sum(min(dt for dt, _ in pairs)
                               for pairs in measured.values()),
        "host.pass_p50_s": raw_p50,
        "host.steal_share":
            (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
    })

    diagnostics = {
        "passes": len(pass_seconds),
        "fail_share": run.failed / run.attempted,
        "setup_raw_s": [round(s["setup_raw_s"], 3) for s in setups],
        "harness.self_share": profile["harness.self_share"],
    }
    correct = run.failed == 0 and len(measured) == len(samples)
    print_report(args, end_to_end, per_layer, diagnostics, run)
    if args.trace:
        write_trace(args.workload, run, profiler, per_layer)
    metrics, units = (per_layer, PER_LAYER) if args.trace \
        else (end_to_end, END_TO_END)
    return {
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def print_report(args, end_to_end, per_layer, diagnostics, run) -> None:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{diagnostics['passes']} passes in {args.seconds:g} s  "
          f"attempted {run.attempted}  failed {run.failed}")
    for name, value in end_to_end.items():
        print(f"  {name:24s} {value:.6g} {END_TO_END[name]}")
    for name, value in diagnostics.items():
        print(f"  {name:24s} {value}")
    for name, value in per_layer.items():
        if name.startswith(("host.", "unit.")) and value:
            over = "  > limit, split it" if name.startswith("unit.") \
                and value > UNIT_LIMIT_S else ""
            print(f"  {name:44s} {value:.6g} {PER_LAYER[name]}{over}")
    if not args.trace:
        return
    for name, value in per_layer.items():
        if value and not name.startswith(("host.", "unit.")):
            print(f"  {name:44s} {value:.6g} {PER_LAYER[name]}")


def write_trace(workload: str, run: Run, profiler, per_layer: dict) -> None:
    """``trace-<workload>.json`` (spans and per-layer metrics) and the
    profile table ``profile-<workload>.txt`` beside it."""
    WORK.mkdir(exist_ok=True)
    (WORK / f"trace-{workload}.json").write_text(json.dumps(
        {"workload": workload, "seed": run.seed, "spans": run.spans,
         "per_layer": per_layer}, indent=1))
    entries = sorted(profiler.getstats(), key=lambda e: -e.inlinetime)[:40]
    lines = [f"{'self_s':>9} {'cum_s':>9} {'calls':>9}  layer  function"]
    for e in entries:
        filename, function = layers.location(e)
        lines.append(
            f"{e.inlinetime:9.4f} {e.totaltime:9.4f} {e.callcount:9d}  "
            f"{layers.layer_of(filename, function)}  "
            f"{pathlib.Path(filename).name} {function}")
    (WORK / f"profile-{workload}.txt").write_text("\n".join(lines) + "\n")


def pin(work: pathlib.Path) -> None:
    """Rewrite ``expected.json`` from the default seed's warm-up passes."""
    units = {}
    for workload in WORKLOADS:
        run = Run(workload, DEFAULT_SEED, work)
        run.run_pass("warm-up")
        if run.failed:
            raise SystemExit(f"{workload}: not pinning a failing workload")
        units[workload] = {n: _pinned(s) for n, s in run.reference.items()}
    EXPECTED.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "units": units, "table2": table2_rows()},
        indent=1) + "\n")
    print(f"wrote {EXPECTED}")


def selfcheck(args) -> int:
    """The A/A gate: the same workload twice, each in a fresh process; no
    end-to-end metric may differ by more than its bound."""
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    results = [
        child("--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds))
        for _ in range(2)
    ]
    status = 0 if all(r["correct"] for r in results) else 1
    for name, bound in bounds.items():
        a, b = (r["metrics"][name]["value"] for r in results)
        ratio = max(a, b) / min(a, b)
        verdict = "ok" if ratio - 1.0 <= bound else "DIFFERS"
        status |= verdict != "ok"
        print(f"{name:18s} {a:.6g} {b:.6g} ratio {ratio:.4f} "
              f"bound {bound:g} {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", "--budget-s", type=float, default=15.0,
                        help="how long the measured passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the last line carries the per-layer metrics "
                             "and the trace files are written")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the workload twice and compare (A/A gate)")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from the default seed")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.selfcheck:
        return selfcheck(args)

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{args.workload}-{time.time_ns()}"
    work.mkdir()
    try:
        if args.pin:
            pin(work)
        elif args.setup_only:
            _run, seconds = set_up(args.workload, args.seed, work)
            print(json.dumps(seconds))
        else:
            result = measure(args, work)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
