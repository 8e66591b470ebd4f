"""Algorithm protocol and the run/verify harness.

A :class:`MatmulAlgorithm` bundles three things:

* an applicability check (the grid-shape conditions of the paper's Table 3
  plus divisibility constraints of the block partitions),
* the placement: which block of ``A``, ``B`` and ``C`` each cube node holds
  (before the clock starts for ``A`` and ``B``, after it stops for ``C``),
* the per-processor SPMD program (a generator exercising the simulator).

The base class derives the initial distribution and the reassembly of
``C`` from the placement.  Both happen *outside* the simulated clock — the
paper's timing likewise assumes operands pre-distributed in each
algorithm's required layout.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import AlgorithmError, NotApplicableError
from repro.sim.engine import run_spmd
from repro.sim.machine import MachineConfig
from repro.sim.tracing import RunResult
from repro.topology.hypercube import Hypercube

__all__ = ["MatmulAlgorithm", "AlgorithmRun"]


@dataclass
class AlgorithmRun:
    """Outcome of one simulated distributed multiplication."""

    algorithm: str
    n: int
    config: MachineConfig
    C: np.ndarray
    result: RunResult

    @property
    def total_time(self) -> float:
        return self.result.total_time

    @property
    def comm_time(self) -> float:
        """Communication part of the runtime (total minus max compute)."""
        max_compute = max(
            (s.compute_time for s in self.result.stats.values()), default=0.0
        )
        return self.result.total_time - max_compute


class MatmulAlgorithm(abc.ABC):
    """A distributed dense-matmul algorithm runnable on the simulator."""

    #: registry key, e.g. ``"3d_all"``
    key: str = ""
    #: human-readable name, e.g. ``"3D All"``
    name: str = ""
    #: paper section implementing it, e.g. ``"4.2.2"``
    paper_section: str = ""

    # -- contract ----------------------------------------------------------

    @abc.abstractmethod
    def check_applicable(self, n: int, p: int) -> None:
        """Raise :class:`NotApplicableError` if (n, p) violates the
        algorithm's conditions (Table 3 plus partition divisibility)."""

    def applicable(self, n: int, p: int) -> bool:
        """True iff :meth:`check_applicable` passes for (n, p)."""
        try:
            self.check_applicable(n, p)
        except NotApplicableError:
            return False
        return True

    @abc.abstractmethod
    def placement(self, n: int, cube: Hypercube) -> tuple:
        """The data layout on ``cube`` for ``n × n`` operands:
        ``(A grid, B grid, C grid, holders)``: one
        :class:`~repro.blocks.partition.BlockGrid` per matrix and, for each
        node that holds data, ``(node, A index, B index, C index)``.  The nodes
        that receive ``A`` and ``B`` are the ones that return ``C``."""

    @abc.abstractmethod
    def program(self, ctx, n: int, local: dict[str, Any]):
        """The SPMD generator for one processor; returns its output locals."""

    def distribute_inputs(
        self, A: np.ndarray, B: np.ndarray, cube: Hypercube
    ) -> dict[int, dict[str, Any]]:
        """Initial per-node local data, ``{node: {"A": block, "B": block}}``."""
        a_grid, b_grid, _c, holders = self.placement(A.shape[0], cube)
        return {
            node: {"A": a_grid.extract(A, a), "B": b_grid.extract(B, b)}
            for node, a, b, _ in holders
        }

    def collect_output(
        self, n: int, cube: Hypercube, results: dict[int, Any]
    ) -> np.ndarray:
        """Reassemble the product matrix from per-node program returns;
        a holder that returned no block (or none at all) raises
        :class:`AlgorithmError`."""
        _a, _b, c_grid, holders = self.placement(n, cube)
        blocks = {}
        for node, _, _, c in holders:
            block = results[node] if node in results else None
            if block is None:
                raise AlgorithmError(f"{self.name}: node {node} returned no C block")
            blocks[c] = block
        return c_grid.assemble(blocks)

    # -- harness -----------------------------------------------------------

    def run(
        self,
        A: np.ndarray,
        B: np.ndarray,
        config: MachineConfig,
        *,
        verify: bool = False,
        trace: bool = False,
        context_factory=None,
        max_events: int | None = None,
        max_virtual_time: float | None = None,
        superstep: bool = True,
        timing_only: bool = False,
    ) -> AlgorithmRun:
        """Distribute inputs, simulate, collect (and optionally verify) C.

        ``context_factory`` optionally wraps each rank's
        :class:`~repro.sim.process.ProcessContext` (e.g.
        :class:`~repro.mpi.reliable.ReliableContext` for retransmitting
        delivery on a lossy machine).  ``max_events`` /
        ``max_virtual_time`` are the engine's watchdog caps.
        ``superstep``/``timing_only`` pass through to the
        engine (see :class:`~repro.sim.engine.Engine`); a timing-only run
        returns ``C = None`` and cannot be verified.
        """
        if timing_only and verify:
            raise AlgorithmError("timing_only runs produce no C to verify")
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise AlgorithmError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise AlgorithmError(
                f"A and B must have equal shapes, got {A.shape} vs {B.shape}"
            )
        n = A.shape[0]
        self.check_applicable(n, config.num_nodes)

        initial = self.distribute_inputs(A, B, config.cube)
        algo = self

        def spmd(ctx):
            if context_factory is not None:
                ctx = context_factory(ctx)
            return algo.program(ctx, n, initial.get(ctx.rank, {}))

        result = run_spmd(
            config, spmd, trace=trace,
            max_events=max_events, max_virtual_time=max_virtual_time,
            superstep=superstep, timing_only=timing_only,
        )
        if timing_only:
            # Per-rank returns are shape-only broadcast views; there is no
            # product to reassemble.
            C = None
        else:
            C = self.collect_output(n, config.cube, result.results)

        if verify:
            expected = A @ B
            if not np.allclose(C, expected):
                err = float(np.max(np.abs(C - expected)))
                raise AlgorithmError(
                    f"{self.name}: result mismatch (max abs error {err:g})"
                )
        return AlgorithmRun(
            algorithm=self.key, n=n, config=config, C=C, result=result
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} key={self.key!r} section={self.paper_section}>"
