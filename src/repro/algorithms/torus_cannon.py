"""Cannon's algorithm on a genuine 2-D torus (no hypercube shortcuts).

Cannon [2] was designed for 2-D meshes; the paper runs it on hypercubes
via the Gray-code embedding and notes that the shift-multiply phase costs
the same on both machines (§3.3) — the unit shifts are neighbour transfers
either way.  The machines differ in the *alignment* phase: a shift by
``i`` positions is ``min(i, q-i)`` ring hops on the torus but at most
``log q`` e-cube hops on the hypercube.

:func:`run_cannon_on_torus` executes the identical Cannon kernel used by
the hypercube :class:`~repro.algorithms.cannon.CannonAlgorithm`, on a
``q × q`` :class:`~repro.topology.torus.Torus2D` machine, so the two
phase timings are directly comparable (see
``tests/algorithms/test_torus_cannon.py`` and the ``torus_vs_hypercube``
artefact of :mod:`repro.analysis.report`).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmRun
from repro.algorithms.common import cannon_kernel
from repro.blocks.partition import BlockPartition2D
from repro.errors import AlgorithmError, NotApplicableError
from repro.sim.engine import run_spmd
from repro.sim.machine import MachineConfig
from repro.topology.torus import Torus2D

__all__ = ["run_cannon_on_torus", "torus_machine_like"]


def torus_machine_like(config: MachineConfig, q: int) -> MachineConfig:
    """A ``q × q`` torus with the same cost parameters as ``config``."""
    return MachineConfig(
        cube=Torus2D(q, q),
        params=config.params,
        port_model=config.port_model,
        copy_on_send=config.copy_on_send,
        routing=config.routing,
    )


def run_cannon_on_torus(
    A: np.ndarray,
    B: np.ndarray,
    config: MachineConfig,
    *,
    verify: bool = False,
    trace: bool = False,
) -> AlgorithmRun:
    """Run Cannon's algorithm on a square-torus machine.

    ``config.cube`` must be a square :class:`Torus2D`; blocks are laid out
    by grid coordinate exactly as on the hypercube grid.
    """
    torus = config.cube
    if not isinstance(torus, Torus2D):
        raise AlgorithmError("run_cannon_on_torus needs a Torus2D machine")
    if torus.rows != torus.cols:
        raise NotApplicableError(
            f"Cannon needs a square torus, got {torus.rows}x{torus.cols}"
        )
    q = torus.rows
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise AlgorithmError(f"bad operand shapes {A.shape} / {B.shape}")
    if n % q:
        raise NotApplicableError(f"n={n} not divisible by torus side {q}")

    part = BlockPartition2D(n, q)
    initial = {
        torus.node_at(r, c): {
            "A": part.extract(A, r, c),
            "B": part.extract(B, r, c),
        }
        for r in range(q)
        for c in range(q)
    }

    def program(ctx):
        r, c = torus.coords_of(ctx.rank)
        local = initial[ctx.rank]
        ctx.phase("cannon")
        c_block = yield from cannon_kernel(
            ctx, torus.node_at, q, r, c, local["A"], local["B"]
        )
        return c_block

    result = run_spmd(config, program, trace=trace)
    C = part.assemble(
        {
            (r, cc): result.results[torus.node_at(r, cc)]
            for r in range(q)
            for cc in range(q)
        }
    )
    if verify and not np.allclose(C, A @ B):
        raise AlgorithmError("torus Cannon produced a wrong product")
    return AlgorithmRun(
        algorithm="cannon@torus", n=n, config=config, C=C, result=result
    )
