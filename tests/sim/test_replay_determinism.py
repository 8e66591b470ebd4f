"""Replay determinism of the fault subsystem: same seed, same run —
bit-identical results, times, and fault decisions; different seeds (or
different rates) genuinely diverge.

Also pins down the finding behind ``benchmarks/results/fault_tolerance.txt``
showing identical *times* at drop rates 0.01 and 0.05 for some algorithms:
the fault streams do differ (different drop decisions, different
retransmission counts), but retransmissions that complete off the critical
path do not move the makespan.  The regression tests below assert the
divergence where it must exist — in the seeded fault decisions — rather
than in the makespan, where it legitimately may not.
"""

import numpy as np

from repro.algorithms import get_algorithm
from repro.analysis.regions import region_map
from repro.mpi import ReliableContext
from repro.service.jobs import build_cells, evaluate_chunk, finalize, make_spec
from repro.sim import FaultPlan, MachineConfig, PortModel
from repro.sim.faults import FaultState, LinkTimeline


def _rolls(plan, k):
    """``k`` drop rolls on channel ``0 -> 1`` at ``t = 0`` of one run."""
    state = FaultState(plan)
    win = LinkTimeline(MachineConfig.create(4, faults=plan)).at(0.0)
    return [state.roll_drop(win, 0, 1) for _ in range(k)]


def _run(key, n, p, plan, seed=0):
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    cfg = MachineConfig.create(p, t_s=10.0, t_w=1.0, faults=plan)
    return get_algorithm(key).run(
        A, B, cfg, verify=True, context_factory=ReliableContext,
        max_events=5_000_000,
    )


class TestSameSeedReplays:
    def test_lossy_run_is_bit_identical(self):
        plan = FaultPlan(seed=7).with_drop_rate(0.05)
        runs = [_run("cannon", 8, 16, plan) for _ in range(2)]
        assert runs[0].total_time == runs[1].total_time
        assert runs[0].result.network == runs[1].result.network
        assert np.array_equal(runs[0].C, runs[1].C)

    def test_fault_state_rolls_identically(self):
        plan = FaultPlan(seed=11).with_drop_rate(0.3)
        rolls = [_rolls(plan, 200) for _ in range(2)]
        assert rolls[0] == rolls[1]

    def test_node_failure_replay_is_bit_identical(self):
        from repro.algorithms.abft import ABFTMatmul

        rng = np.random.default_rng(0)
        n = 12
        A = rng.integers(-4, 5, (n, n)).astype(float)
        B = rng.integers(-4, 5, (n, n)).astype(float)
        cfg0 = MachineConfig.create(16, t_s=10.0, t_w=1.0)
        algo = get_algorithm("cannon")
        base = ABFTMatmul(algo).run(A, B, cfg0)
        plan = FaultPlan(seed=1).with_node_failure(
            6, at=base.total_time * 0.3
        )
        runs = [
            ABFTMatmul(algo).run(A, B, cfg0.with_faults(plan))
            for _ in range(2)
        ]
        assert runs[0].total_time == runs[1].total_time
        assert runs[0].result.network == runs[1].result.network
        assert np.array_equal(runs[0].C, runs[1].C)


class TestDifferentSeedsDiverge:
    def test_fault_state_streams_diverge(self):
        streams = [
            _rolls(FaultPlan(seed=s).with_drop_rate(0.3), 200) for s in (1, 2)
        ]
        assert streams[0] != streams[1]

    def test_run_outcomes_diverge(self):
        runs = [
            _run("cannon", 8, 16, FaultPlan(seed=s).with_drop_rate(0.2))
            for s in (1, 2)
        ]
        assert (
            runs[0].result.network != runs[1].result.network
            or runs[0].total_time != runs[1].total_time
        )


class TestDropRateDivergence:
    """Regression for the fault_tolerance.txt observation: equal times at
    0.01 vs 0.05 are legitimate (off-critical-path retransmissions), but
    the underlying fault decisions MUST differ."""

    def test_rates_share_a_seed_but_decide_differently(self):
        res = {
            rate: _run(
                "cannon", 8, 16, FaultPlan(seed=0).with_drop_rate(rate)
            )
            for rate in (0.01, 0.05)
        }
        low, high = res[0.01].result.network, res[0.05].result.network
        assert (low.messages_dropped, low.retransmissions) != (
            high.messages_dropped, high.retransmissions
        )
        # both still verified (algo.run(verify=True) raised otherwise)

    def test_roll_drop_consumes_rng_only_when_armed(self):
        """Rate 0.0 must not consume randomness — the lossless fast path
        relies on a 0-rate plan being literally side-effect free."""
        assert any(_rolls(FaultPlan(seed=3).with_drop_rate(0.5), 50))
        assert not any(_rolls(FaultPlan(seed=3), 50))


class TestParallelExecutorDeterminism:
    """Sharding over the sweep service's workers must be invisible: any
    worker count, same bits.

    Worker processes each rebuild their own engines, route caches, and
    seeded fault streams, so parallel evaluation of a grid has to seal
    exactly the in-process results in the in-process order.
    """

    def test_region_maps_identical_across_jobs(self, on_service):
        lattice = dict(log2_n_max=8, log2_p_max=12)
        seq = region_map(PortModel.ONE_PORT, 150.0, 3.0, **lattice)
        for workers in (1, 2):
            par = on_service("region_map", lattice, workers=workers)
            assert [row["winners"] for row in par["rows"]] == seq.winners
            # bit-identical per-cell times; inapplicable points are NaN
            # in the map and None in the report
            assert [row["times"] for row in par["rows"]] == [
                [None if t != t else t for t in row]
                for row in seq.times.tolist()
            ]

    def test_seeded_fault_runs_identical_across_jobs(self, on_service):
        params = {"trials": 6, "seed": 2026, "stack": "none"}
        spec = make_spec("chaos", params)
        cells = build_cells(spec)
        records = evaluate_chunk(spec.kind, spec.params, cells)
        sequential = finalize(spec, records)
        # ``detail`` strings embed process-global counters; the digest
        # leaves them out and so does this comparison
        outcomes = [(v["trial"], v["kind"], v["atoms"])
                    for v in sequential["violations"]]
        for workers in (1, 2):
            parallel = on_service("chaos", params, workers=workers)
            assert parallel["digest"] == sequential["digest"]
            assert [(v["trial"], v["kind"], v["atoms"])
                    for v in parallel["violations"]] == outcomes
        # sanity: the seeded faults really did break some trials
        assert outcomes
