"""Coordinated checkpoint/restart: the recovery path of last resort.

ABFT checksums (:mod:`repro.algorithms.abft`) reconstruct lost output
cheaply, but only up to their encoding's coverage.  When more ranks die
than the checksums span — or for algorithms whose loss pattern the
encoding cannot confine — the fallback is the classic scheme: snapshot a
consistent cut, and on failure *restart from it on the machine that is
left*.

The simulator's natural consistent cut is the operation start: the input
blocks every rank holds before the clock runs (the paper's timing model
likewise assumes operands pre-distributed).  A restart therefore means:

1. **agree** — all survivors run the dead-set consensus
   (:func:`repro.mpi.recovery.agree`), discovering failures they had not
   personally observed,
2. **shrink** — map the survivors onto the largest sub-hypercube on
   which the wrapped algorithm is still applicable
   (:func:`repro.mpi.recovery.shrink`); if none exists, the lowest
   surviving rank computes the product serially,
3. **restore** — each participant charges the modeled cost of re-reading
   its input blocks from the checkpoint store (one network hop per
   block volume — the snapshot lives one hop away), then
4. **re-run** the algorithm's unmodified program on a
   :class:`~repro.mpi.recovery.RecoveryContext` over the sub-machine,
   with tags shifted so stale first-attempt messages are never consumed.

Survivors that completed their first attempt still join every round of
consensus — otherwise ranks stuck behind the corpse could never
distinguish "peer finished" from "peer left the protocol" — and their
first-attempt results are discarded when a re-run happens.  The loop
repeats while new deaths keep appearing (a rank can die mid-recovery),
bounded by ``max_epochs``.

Snapshot-cadence trade-off: writing the cut costs one charge of
``snapshot_cost`` up front; restoring costs the same per restart epoch.
Because the cut is the operation start, a failure loses *all* progress
since then — the cost of the coarsest possible cadence.  Finer cadences
(periodic mid-run snapshots) would shrink the lost-work term at the
price of more snapshot charges; with matmul's short phase structure the
paper-level model gains little from them, so this module keeps the
single-cut model and documents the trade-off in ``docs/FAULTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import AlgorithmRun, MatmulAlgorithm
from repro.errors import AlgorithmError, CommTimeoutError, RankFailedError
from repro.mpi.detector import FailureDetectorContext
from repro.mpi.recovery import RecoveryContext, agree, shrink
from repro.sim.engine import run_spmd
from repro.sim.machine import MachineConfig
from repro.topology.hypercube import Hypercube

__all__ = ["RecoveryRun", "CheckpointedMatmul", "EPOCH_TAG_STRIDE"]

#: per-epoch tag namespace stride for re-runs (above every collective subtag)
EPOCH_TAG_STRIDE = 1 << 12


@dataclass
class RecoveryRun(AlgorithmRun):
    """An :class:`~repro.algorithms.base.AlgorithmRun` plus recovery facts."""

    #: recovery mode that produced the result: "abft", "checkpoint", "none"
    mode: str = "checkpoint"
    #: number of restart epochs taken (0 = first attempt sufficed)
    epochs: int = 0
    #: fail-stopped ranks agreed on by the survivors
    dead: tuple[int, ...] = ()
    #: machine that produced the final result: "full", "sub", or "serial"
    machine: str = "full"
    #: True iff a failure occurred and the result was still produced
    recovered: bool = False
    #: virtual time burnt on failed attempts before ``result`` (e.g. an
    #: undecodable ABFT run that fell back to checkpoint/restart)
    attempt_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.result.total_time + self.attempt_time


def _input_words(local: dict) -> int:
    return sum(
        int(v.size) for v in local.values() if isinstance(v, np.ndarray)
    )


class CheckpointedMatmul:
    """Run a :class:`~repro.algorithms.base.MatmulAlgorithm` under
    checkpoint/restart recovery (see module doc).

    Parameters
    ----------
    algorithm:
        Any registered algorithm; its program runs unmodified.
    max_epochs:
        Restart attempts before giving up; default covers one epoch per
        planned node failure plus slack.
    context_factory:
        Optional wrapper applied to each rank's raw context *under* the
        failure detector (e.g.
        :class:`~repro.mpi.integrity.IntegrityContext` so restarted
        epochs keep end-to-end message integrity).
    """

    def __init__(
        self,
        algorithm: MatmulAlgorithm,
        *,
        max_epochs: int | None = None,
        context_factory=None,
    ):
        self.algorithm = algorithm
        self.max_epochs = max_epochs
        self.context_factory = context_factory

    # -- machine planning (pure, identical on every survivor) -------------

    def _plan_machine(self, n: int, cube: Hypercube, dead: frozenset):
        """What machine does the epoch run on, given the agreed dead set?"""
        if not dead:
            return ("full", None)
        sub = shrink(
            cube, dead,
            require=lambda s: self.algorithm.applicable(n, s.num_nodes),
        )
        if sub is None:
            alive = [r for r in range(cube.num_nodes) if r not in dead]
            return ("serial", min(alive))
        return ("sub", sub)

    # -- harness -----------------------------------------------------------

    def run(
        self,
        A: np.ndarray,
        B: np.ndarray,
        config: MachineConfig,
        *,
        trace: bool = False,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
    ) -> RecoveryRun:
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or B.shape != A.shape:
            raise AlgorithmError(
                f"A and B must be square and equal-shaped, got {A.shape} / {B.shape}"
            )
        n = A.shape[0]
        algo = self.algorithm
        algo.check_applicable(n, config.num_nodes)
        cube = config.cube
        plan = config.faults
        planned_deaths = len(plan.node_failures) if plan is not None else 0
        max_epochs = (
            self.max_epochs if self.max_epochs is not None
            else planned_deaths + 2
        )
        params = config.params

        # The consistent cut is the initial distribution on the full machine;
        # writing it costs one snapshot charge before the clock-relevant work.
        full_inputs = algo.distribute_inputs(A, B, cube)
        # One distribution per restart, shared by its participants; each
        # takes only its own blocks, and a later epoch gets fresh ones.
        sub_inputs: dict = {}

        factory = self.context_factory

        def spmd(ctx):
            base = ctx if factory is None else factory(ctx)
            # abort-and-restart, not degrade: a dead peer raises
            det = FailureDetectorContext(base, on_dead="raise")
            me = ctx.rank
            dead_used: frozenset = frozenset()
            last_exc: Exception | None = None
            for epoch in range(max_epochs + 1):
                kind, desc = self._plan_machine(n, cube, dead_used)
                desc_out = desc
                ok = False
                out = None
                vrank = None
                try:
                    if kind == "full":
                        local = full_inputs.get(me, {})
                        if epoch == 0:
                            # write the consistent cut (one hop per word)
                            yield from det.elapse(
                                params.hop_time(_input_words(local))
                            )
                        vrank = me
                        out = yield from algo.program(det, n, local)
                        ok = True
                    elif kind == "sub":
                        desc_out = (tuple(desc.free_dims), desc.anchor)
                        if desc.contains(me):
                            rctx = RecoveryContext(
                                det, desc, tag_shift=epoch * EPOCH_TAG_STRIDE
                            )
                            key = (epoch, desc_out)
                            if key not in sub_inputs:
                                sub_inputs[key] = algo.distribute_inputs(
                                    A, B, rctx.config.cube
                                )
                            local = sub_inputs[key].get(rctx.rank, {})
                            # restore the inputs from the checkpoint store
                            yield from det.elapse(
                                params.hop_time(_input_words(local))
                            )
                            vrank = rctx.rank
                            out = yield from algo.program(rctx, n, local)
                        ok = True
                    else:  # serial fallback on the lowest survivor
                        if me == desc:
                            yield from det.elapse(
                                params.hop_time(int(A.size + B.size))
                            )
                            vrank = 0
                            out = yield from det.local_matmul(A, B)
                        ok = True
                except (RankFailedError, CommTimeoutError) as exc:
                    last_exc = exc
                    ok = False
                if not det.active:
                    return ("done", kind, desc_out, vrank, out, epoch)
                if not ok or dead_used:
                    det.phase("recover")
                dead = yield from agree(det)
                if dead == dead_used:
                    if ok:
                        return ("done", kind, desc_out, vrank, out, epoch)
                    # same machine, same dead set, still failing: a peer is
                    # alive but out of protocol — restarting cannot help.
                    raise last_exc
                dead_used = dead
            raise RankFailedError(
                ctx.rank, -1, detail=f"gave up after {max_epochs} restart epochs"
            )

        result = run_spmd(
            config, spmd, trace=trace,
            max_events=max_events, max_virtual_time=max_virtual_time,
        )

        # -- collect -------------------------------------------------------
        tuples = {r: t for r, t in result.results.items() if t is not None}
        if not tuples:
            raise AlgorithmError("checkpoint restart: no rank returned a result")
        machines = {(t[1], str(t[2])) for t in tuples.values()}
        if len(machines) > 1:
            raise AlgorithmError(
                f"checkpoint restart: survivors disagree on the final machine "
                f"({sorted(machines)})"
            )
        kind = next(iter(tuples.values()))[1]
        blocks = {
            t[3]: t[4] for t in tuples.values() if t[3] is not None
        }
        if kind == "full":
            C = algo.collect_output(n, cube, blocks)
        elif kind == "sub":
            free_dims, anchor = next(iter(tuples.values()))[2]
            vcube = Hypercube(len(free_dims))
            C = algo.collect_output(n, vcube, blocks)
        else:
            C = np.asarray(blocks[0])

        dead = tuple(sorted(set(range(cube.num_nodes)) - set(result.results)))
        epochs = max(t[5] for t in tuples.values())
        return RecoveryRun(
            algorithm=algo.key,
            n=n,
            config=config,
            C=C,
            result=result,
            mode="checkpoint",
            epochs=epochs,
            dead=dead,
            machine=kind,
            recovered=bool(dead),
        )
