"""Huang–Abraham checksum matmul (ABFT) over any paper algorithm.

Algorithm-based fault tolerance encodes redundancy *into the operands*
so a fail-stop costs a reconstruction, not a rerun.  With decode-grid
side ``g`` and checksum width ``e`` (``m = g·e``, inputs zero-padded to
``(g-1)·e``), the augmented operands are built from ``e × e`` sub-blocks:

* ``A″`` carries a checksum **row**-block: ``A″[g-1][j] = Σ_i A[i][j]``,
  and a zero **column**-block ``A″[i][g-1] = 0``,
* ``B″`` carries a checksum **column**-block: ``B″[i][g-1] = Σ_j B[i][j]``,
  and a zero **row**-block ``B″[g-1][j] = 0``.

Then every decode row and column of ``C″ = A″·B″`` satisfies a checksum
relation — ``C″[i][g-1] = Σ_{j<g-1} C″[i][j]`` and
``C″[g-1][j] = Σ_{i<g-1} C″[i][j]``, *including* the checksum lines
themselves — so any loss pattern reducible to one unknown per line is
recoverable by iterated Gaussian elimination over the relations.  The
zero padding keeps ``A″``/``B″`` square, which lets the paper's
algorithms run on them **unchanged**: the wrapper only grows the problem
from ``n`` to ``m`` and post-processes the collected product.

Coverage.  The decode side ``g`` is chosen to match the wrapped
algorithm's block layout (``√p`` for the 2-D grids, ``∛p`` for the 3-D
ones), so one fail-stopped rank contaminates exactly one decode
row ∪ column — the recoverable pattern — for Cannon (row/column rings)
and 3D All (the corpse's x-line and z-plane collectives).  Losses the
relations cannot pin down (two ranks on distinct rows *and* columns,
or an algorithm whose communication structure spreads NaN further) fall
back to coordinated checkpoint/restart
(:class:`~repro.mpi.checkpoint.CheckpointedMatmul`).

The run itself uses the failure detector in ``substitute`` mode:
survivors finish with NaN-poisoned blocks rather than aborting, which
is what makes the lost region identifiable at collect time.

Beyond erasures, the same checksum relations support Huang–Abraham
**error correction** for *silent* corruption (no NaN marker, no failed
rank — just a wrong block): a corrupted decode block at unknown position
leaves a nonzero residual in exactly one checksum row and one checksum
column, so intersecting the inconsistent lines locates it and the clean
line relation reconstructs it (:func:`abft_correct_errors`).  Patterns
the residuals cannot pin down — two corrupted blocks sharing a decode
row or column — fall back to checkpoint/restart like undecodable
erasures.  Combining an erasure and a silent corruption in the same
decode line is outside the coverage: the erasure reconstruction would
bake the corruption into the rebuilt block.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any

import numpy as np

from repro.algorithms.base import MatmulAlgorithm
from repro.errors import (
    AlgorithmError,
    CommTimeoutError,
    CorruptionError,
    RankFailedError,
)
from repro.mpi.checkpoint import CheckpointedMatmul, RecoveryRun
from repro.mpi.detector import FailureDetectorContext, lost_like
from repro.sim.engine import run_spmd
from repro.sim.machine import MachineConfig

__all__ = [
    "ABFTMatmul",
    "abft_geometry",
    "abft_encode",
    "abft_decode",
    "abft_correct_errors",
]

#: algorithms whose decode grid follows the ∛p (3-D) layout
_CUBIC_KEYS = frozenset(
    {"3d_all", "all_trans", "berntsen", "dns", "diagonal3d",
     "dns_cannon", "diag3d_cannon"}
)


def abft_geometry(key: str, n: int, p: int) -> tuple[int, int, int]:
    """Decode-grid side ``g``, checksum width ``e`` and augmented size
    ``m = g·e`` for wrapping algorithm ``key`` at problem size ``n`` on
    ``p`` ranks.

    ``g`` matches the algorithm's block grid (``√p`` or ``∛p``) so that
    per-rank losses land on whole decode rows/columns; ``e`` is the
    smallest width whose padded input ``(g-1)·e`` covers ``n`` while
    keeping ``m`` compatible with the algorithm's divisibility rules
    (``m % g²`` for the 3-D family's Fig. 8 row groups).
    """
    if key in _CUBIC_KEYS:
        g = round(p ** (1 / 3))
    else:
        g = math.isqrt(p)
    if g < 2:
        raise AlgorithmError(
            f"ABFT needs a block grid of side >= 2, got p={p} for {key!r}"
        )
    e = -(-n // (g - 1)) if g > 1 else n
    if key in _CUBIC_KEYS:
        e = -(-e // g) * g  # m = g*e must be divisible by g^2
    return g, e, g * e


def _sum_blocks(M: np.ndarray, axis: int, g: int, e: int) -> np.ndarray:
    """Sum the ``g-1`` size-``e`` slabs of ``M`` along ``axis``."""
    slabs = [
        M.take(range(i * e, (i + 1) * e), axis=axis) for i in range(g - 1)
    ]
    return np.sum(slabs, axis=0)


def abft_encode(
    A: np.ndarray, B: np.ndarray, g: int, e: int
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad to ``(g-1)·e`` and append the checksum slabs (see module doc)."""
    n = A.shape[0]
    npad = (g - 1) * e
    m = g * e
    Ap = np.zeros((m, m))
    Bp = np.zeros((m, m))
    Ap[:n, :n] = A
    Bp[:n, :n] = B
    Ap[npad:m, :npad] = _sum_blocks(Ap[:npad, :npad], 0, g, e)
    Bp[:npad, npad:m] = _sum_blocks(Bp[:npad, :npad], 1, g, e)
    return Ap, Bp


def abft_decode(
    C: np.ndarray, g: int, e: int
) -> tuple[np.ndarray, int, int]:
    """Reconstruct NaN-marked ``e × e`` decode blocks of the augmented
    product in place (on a copy).

    Iterates the row and column checksum relations, each pass solving
    every line with exactly one unknown block, until a fixpoint.  Returns
    ``(C_fixed, lost, unrecovered)`` — ``lost`` blocks initially marked,
    ``unrecovered`` still missing at the fixpoint (0 means full recovery).
    """
    C = np.array(C, dtype=float)

    def blk(r: int, c: int) -> np.ndarray:
        return C[r * e:(r + 1) * e, c * e:(c + 1) * e]

    lost = [
        [bool(np.isnan(blk(r, c)).any()) for c in range(g)] for r in range(g)
    ]
    total_lost = sum(sum(row) for row in lost)

    def solve(line_lost, get, put):
        """One line: reconstruct its single unknown from the relation
        ``block[g-1] == Σ_{j<g-1} block[j]``."""
        missing = [i for i in range(g) if line_lost[i]]
        if len(missing) != 1:
            return False
        (idx,) = missing
        if idx == g - 1:
            val = np.sum([get(j) for j in range(g - 1)], axis=0)
        else:
            val = get(g - 1) - np.sum(
                [get(j) for j in range(g - 1) if j != idx], axis=0
            )
        put(idx, val)
        line_lost[idx] = False
        return True

    progress = True
    while progress:
        progress = False
        for r in range(g):
            row_lost = [lost[r][c] for c in range(g)]
            if solve(
                row_lost,
                lambda c, r=r: blk(r, c),
                lambda c, v, r=r: blk(r, c).__setitem__(slice(None), v),
            ):
                for c in range(g):
                    lost[r][c] = row_lost[c]
                progress = True
        for c in range(g):
            col_lost = [lost[r][c] for r in range(g)]
            if solve(
                col_lost,
                lambda r, c=c: blk(r, c),
                lambda r, v, c=c: blk(r, c).__setitem__(slice(None), v),
            ):
                for r in range(g):
                    lost[r][c] = col_lost[r]
                progress = True

    unrecovered = sum(sum(row) for row in lost)
    return C, total_lost, unrecovered


def _line_bad(res: np.ndarray, tol: float) -> bool:
    """True iff a checksum-line residual is inconsistent (non-finite
    entries count as inconsistent; ``nan > tol`` alone would not)."""
    if not np.isfinite(res).all():
        return True
    return float(np.abs(res).max()) > tol


def _errors_match(er: np.ndarray, ec: np.ndarray, tol: float) -> bool:
    """True iff the row- and column-derived error hypotheses agree.

    Non-finite entries (a flipped exponent can push a word to inf/nan)
    must agree exactly in position and value; finite entries within
    ``tol``.  ``er - ec`` alone would turn matching infs into NaNs.
    """
    fin_r = np.isfinite(er)
    if not np.array_equal(fin_r, np.isfinite(ec)):
        return False
    if not np.array_equal(er[~fin_r], ec[~fin_r], equal_nan=True):
        return False
    if fin_r.any() and float(np.abs(er[fin_r] - ec[fin_r]).max()) > tol:
        return False
    return True


def abft_correct_errors(
    C: np.ndarray, g: int, e: int, *, tol: float | None = None
) -> tuple[np.ndarray, int, int]:
    """Locate and correct silently corrupted ``e × e`` decode blocks of
    the augmented product (on a copy).

    A corruption +E in block ``(r, c)`` leaves residual ``E`` in checksum
    row ``r`` and checksum column ``c`` (sign-flipped when the corrupted
    block *is* the line's checksum block), so the corrupted position is
    the intersection of the inconsistent row and column whose
    sign-adjusted error hypotheses agree.  The located block is then
    reconstructed from its clean row relation — erasure decode at a
    position the residuals discovered — which also repairs non-finite
    corruption that subtraction could not.  Iterates for multiple errors
    in distinct rows and columns; co-linear errors (two corrupted blocks
    sharing a decode line) are ambiguous and left for the caller's
    fallback.

    ``tol`` separates float rounding noise from injected errors; the
    default is ``1e-8 · max(1, |C|_max)``.  Returns ``(C_fixed,
    corrected, suspect)`` — blocks corrected, and inconsistent checksum
    lines remaining at the fixpoint (0 means all clean).
    """
    C = np.array(C, dtype=float)
    if tol is None:
        finite = C[np.isfinite(C)]
        scale = float(np.abs(finite).max()) if finite.size else 1.0
        tol = 1e-8 * max(1.0, scale)

    def blk(r: int, c: int) -> np.ndarray:
        return C[r * e:(r + 1) * e, c * e:(c + 1) * e]

    corrected = 0
    while True:
        row_res = [
            np.sum([blk(r, c) for c in range(g - 1)], axis=0) - blk(r, g - 1)
            for r in range(g)
        ]
        col_res = [
            np.sum([blk(r, c) for r in range(g - 1)], axis=0) - blk(g - 1, c)
            for c in range(g)
        ]
        bad_rows = [r for r in range(g) if _line_bad(row_res[r], tol)]
        bad_cols = [c for c in range(g) if _line_bad(col_res[c], tol)]
        if not bad_rows and not bad_cols:
            return C, corrected, 0
        matches = []
        for r in bad_rows:
            for c in bad_cols:
                er = row_res[r] if c < g - 1 else -row_res[r]
                ec = col_res[c] if r < g - 1 else -col_res[c]
                if _errors_match(er, ec, tol):
                    matches.append((r, c))
        row_uses = {r: sum(1 for m in matches if m[0] == r) for r, _ in matches}
        col_uses = {c: sum(1 for m in matches if m[1] == c) for _, c in matches}
        progress = False
        for r, c in matches:
            # Only unambiguous locations: a row or column claimed by two
            # candidate positions cannot be trusted this round.
            if row_uses[r] != 1 or col_uses[c] != 1:
                continue
            if c == g - 1:
                val = np.sum([blk(r, j) for j in range(g - 1)], axis=0)
            else:
                val = blk(r, g - 1) - np.sum(
                    [blk(r, j) for j in range(g - 1) if j != c], axis=0
                )
            blk(r, c)[:] = val
            corrected += 1
            progress = True
        if not progress:
            return C, corrected, len(bad_rows) + len(bad_cols)


class ABFTMatmul:
    """Run a :class:`~repro.algorithms.base.MatmulAlgorithm` with
    node-failure recovery.

    Parameters
    ----------
    algorithm:
        The wrapped algorithm (runs unmodified on the augmented operands).
    mode:
        ``"abft"`` (checksum encode + reconstruct, checkpoint/restart as
        fallback), ``"checkpoint"`` (restart-only), or ``"none"``
        (detection only: a fail-stop raises
        :class:`~repro.errors.RankFailedError`).
    checkpoint_fallback:
        In ``"abft"`` mode, whether an undecodable loss pattern (or an
        ambiguous corruption pattern) falls back to checkpoint/restart
        (default) or raises.
    correct_errors:
        In ``"abft"`` mode, run :func:`abft_correct_errors` on the
        decoded product to locate and repair silently corrupted blocks
        (default).  Patterns the residuals cannot disambiguate follow
        ``checkpoint_fallback``.
    residual_tol:
        Tolerance separating rounding noise from injected errors in the
        checksum residuals (default: ``1e-8 · max(1, |C|_max)``).
    context_factory:
        Optional wrapper applied to each rank's raw context *under* the
        failure detector — e.g.
        :class:`~repro.mpi.integrity.IntegrityContext` for end-to-end
        message integrity alongside ABFT compute protection.  Also
        forwarded to the checkpoint fallback.
    """

    MODES = ("abft", "checkpoint", "none")

    def __init__(
        self,
        algorithm: MatmulAlgorithm,
        mode: str = "abft",
        *,
        checkpoint_fallback: bool = True,
        max_epochs: int | None = None,
        correct_errors: bool = True,
        residual_tol: float | None = None,
        context_factory=None,
    ):
        if mode not in self.MODES:
            raise AlgorithmError(
                f"recovery mode must be one of {self.MODES}, got {mode!r}"
            )
        self.algorithm = algorithm
        self.mode = mode
        self.checkpoint_fallback = checkpoint_fallback
        self.max_epochs = max_epochs
        self.correct_errors = correct_errors
        self.residual_tol = residual_tol
        self.context_factory = context_factory

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
        if self.mode == "checkpoint":
            return CheckpointedMatmul(
                self.algorithm,
                max_epochs=self.max_epochs,
                context_factory=self.context_factory,
            ).run(
                A, B, config, trace=trace,
                max_events=max_events, max_virtual_time=max_virtual_time,
            )
        if self.mode == "none":
            return self._run_detect_only(
                A, B, config, trace=trace,
                max_events=max_events, max_virtual_time=max_virtual_time,
            )
        return self._run_abft(
            A, B, config, trace=trace,
            max_events=max_events, max_virtual_time=max_virtual_time,
        )

    def _run_detect_only(self, A, B, config, **run_kwargs):
        n = A.shape[0]
        algo = self.algorithm
        algo.check_applicable(n, config.num_nodes)
        initial = algo.distribute_inputs(A, B, config.cube)
        factory = self.context_factory

        def spmd(ctx):
            base = ctx if factory is None else factory(ctx)
            det = FailureDetectorContext(base, on_dead="raise")
            return algo.program(det, n, initial.get(ctx.rank, {}))

        result = run_spmd(config, spmd, **run_kwargs)
        C = algo.collect_output(n, config.cube, result.results)
        return RecoveryRun(
            algorithm=algo.key, n=n, config=config, C=C, result=result,
            mode="none", machine="full", recovered=False,
        )

    def _run_abft(self, A, B, config, **run_kwargs):
        n = A.shape[0]
        p = config.num_nodes
        algo = self.algorithm
        g, e, m = abft_geometry(algo.key, n, p)
        algo.check_applicable(m, p)
        Ap, Bp = abft_encode(A, B, g, e)
        initial = algo.distribute_inputs(Ap, Bp, config.cube)
        factory = self.context_factory

        def spmd(ctx):
            base = ctx if factory is None else factory(ctx)
            det = FailureDetectorContext(base, on_dead="substitute")
            try:
                return (yield from algo.program(det, m, initial.get(ctx.rank, {})))
            except (RankFailedError, CommTimeoutError, CorruptionError):
                # This rank's block is unrecoverable in-band; mark it lost
                # and let the checksum decode (or the fallback) handle it.
                return None

        result = run_spmd(config, spmd, **run_kwargs)

        # -- collect with NaN holes for dead / aborted ranks ---------------
        blocks = {r: b for r, b in result.results.items() if b is not None}
        if not blocks:
            raise AlgorithmError("ABFT: every rank lost its block")
        template = next(iter(blocks.values()))
        filled = {
            r: blocks.get(r, None) for r in range(p)
        }
        for r in range(p):
            if filled[r] is None:
                filled[r] = lost_like(template)
        Cp = algo.collect_output(m, config.cube, filled)

        dead = tuple(sorted(set(range(p)) - set(result.results)))
        Cfix, n_lost, n_unrecovered = abft_decode(Cp, g, e)
        n_corrected = 0
        undecodable = n_unrecovered > 0
        ambiguous = False
        if not undecodable and self.correct_errors:
            Cfix, n_corrected, n_suspect = abft_correct_errors(
                Cfix, g, e, tol=self.residual_tol
            )
            ambiguous = n_suspect > 0

        if not undecodable and not ambiguous:
            return RecoveryRun(
                algorithm=algo.key, n=n, config=config,
                C=Cfix[:n, :n], result=result,
                mode="abft", dead=dead, machine="full",
                recovered=n_lost > 0 or n_corrected > 0,
            )

        if not self.checkpoint_fallback:
            if undecodable:
                raise RankFailedError(
                    -1, -1,
                    detail=(
                        f"ABFT decode left {n_unrecovered}/{g * g} blocks "
                        f"unrecovered (dead ranks {list(dead)})"
                    ),
                )
            raise CorruptionError(
                detail=(
                    "ABFT error correction could not locate the corrupted "
                    "blocks (co-linear or inconsistent residual pattern)"
                ),
            )
        plan = config.faults
        if plan is not None and plan.node_corruptions:
            # NodeCorruption is a one-shot transient and the restart runs
            # *after* the failed attempt (attempt_time accounts for it), so
            # the planned compute transients are already spent — replaying
            # them on the fallback's fresh FaultState would corrupt the
            # restart with faults that have already fired.
            config = config.with_faults(replace(plan, node_corruptions=()))
        ckpt = CheckpointedMatmul(
            algo, max_epochs=self.max_epochs,
            context_factory=self.context_factory,
        ).run(A, B, config, **run_kwargs)
        ckpt.mode = "abft+checkpoint"
        ckpt.attempt_time = result.total_time
        return ckpt
