"""Checkpoint + periodic verification: the composed-resilience baseline.

The ABFT literature the paper builds on also composes ABFT with periodic
checkpointing (Bosilca et al., "Composing resilience techniques: ABFT,
periodic and incremental checkpointing").  This module implements the
natural such composition for Cholesky:

- every C iterations, snapshot the matrix *and* its checksum strips to
  host memory (one device→host copy of the live state), then verify all
  live tiles offline-style;
- on unrecoverable corruption (or a fail-stop POTF2), roll back to the
  last snapshot and replay from there, instead of restarting from scratch.

Compared with the paper's Enhanced scheme this trades memory traffic and
rollback-replay time for skipping the per-operation verification; the
benchmark shows where each wins — checkpointing's recovery is bounded by
C iterations, but its fault-free overhead (periodic O(n²) copies plus
sweep verifications) exceeds Enhanced's once C is small enough to matter,
and it still cannot *correct* in place, only replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blas.flops import potrf_flops
from repro.core.base import simulated
from repro.core.checksum import issue_encoding
from repro.core.correct import Verifier, VerifyStats
from repro.core.update import ChecksumUpdater
from repro.desim.trace import Timeline
from repro.faults.injector import FaultInjector, Hook, no_faults
from repro.hetero.machine import Machine
from repro.magma.ops import gemm_op, potf2_op, syrk_op, trsm_op
from repro.util.exceptions import (
    RestartExhaustedError,
    SingularBlockError,
    UnrecoverableError,
)
from repro.util.validation import check_block_size, check_square, require


@dataclass
class CheckpointResult:
    """Outcome of a checkpointed factorization."""

    machine: str
    n: int
    block_size: int
    interval: int
    makespan: float | None  # simulated seconds; None under timeline=False
    rollbacks: int
    checkpoints_taken: int
    stats: VerifyStats
    timeline: Timeline | None
    factor: np.ndarray | None = field(default=None, repr=False)

    @property
    def gflops(self) -> float:
        return potrf_flops(self.n) / simulated(self.makespan, "gflops") / 1e9


def checkpoint_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    interval: int = 4,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    max_rollbacks: int = 4,
    timeline: bool = True,
) -> CheckpointResult:
    """Factor under checkpoint + periodic offline verification.

    ``timeline=False`` skips the simulated machine: the result's
    ``makespan`` and ``timeline`` are ``None``.
    """
    require(interval >= 1, "checkpoint interval must be >= 1")
    if numerics == "real":
        require(a is not None, "real mode requires the matrix a")
        n = check_square("a", a)
    else:
        require(n is not None, "shadow mode requires n")
    bs = block_size if block_size is not None else machine.default_block_size
    nb = check_block_size(n, bs)
    inj = injector if injector is not None else no_faults()

    ctx = machine.context(numerics=numerics, timeline=timeline)
    work = a.copy() if numerics == "real" else None
    matrix = ctx.alloc_matrix(n, bs, data=work)
    chk = ctx.alloc_checksums(n, bs)
    inj.bind("matrix", matrix)
    inj.bind("checksum", chk)
    main = ctx.stream("main")
    stats = VerifyStats()
    verifier = Verifier(ctx, matrix, chk, n_streams=16, stats=stats)
    updater = ChecksumUpdater(ctx, matrix, chk, "gpu_stream", main)
    tile_bytes = ctx.tile_bytes(bs)
    state_bytes = n * n * 8 + chk.nbytes

    main.last = issue_encoding(ctx, matrix, chk, verifier.streams)

    # Host-side snapshots (real mode keeps actual copies; shadow keeps taint
    # snapshots).  The snapshot transfer is priced on the d2h link.
    snapshot_data: np.ndarray | None = work.copy() if work is not None else None
    snapshot_chk: np.ndarray | None = chk.array.copy() if chk.array is not None else None
    snapshot_taint = _taint_snapshot(matrix, chk)
    snapshot_iter = 0
    rollbacks = 0
    checkpoints = 0

    def take_checkpoint(j: int) -> None:
        nonlocal snapshot_data, snapshot_chk, snapshot_iter, checkpoints, snapshot_taint
        ctx.transfer_d2h(state_bytes, name=f"ckpt[{j}]", stream=main, iteration=j)
        if work is not None:
            snapshot_data = work.copy()
            snapshot_chk = chk.array.copy()
        snapshot_taint = _taint_snapshot(matrix, chk)
        snapshot_iter = j
        checkpoints += 1

    def restore() -> int:
        nonlocal rollbacks
        ctx.transfer_h2d(state_bytes, name=f"restore[{snapshot_iter}]", stream=main)
        if work is not None:
            work[:] = snapshot_data
            chk.array[:] = snapshot_chk
        _taint_restore(matrix, chk, snapshot_taint)
        rollbacks += 1
        return snapshot_iter

    def one_iteration(j: int) -> None:
        syrk_op(ctx, matrix, j, main)
        inj.fire(Hook.AFTER_SYRK, j)
        updater.update_syrk(j)
        ev = ctx.record_event(main)
        d2h = ctx.transfer_d2h(tile_bytes, name=f"d2h_diag[{j}]", deps=[ev.marker], iteration=j)
        gemm_op(ctx, matrix, j, main)
        inj.fire(Hook.AFTER_GEMM, j)
        updater.update_gemm(j)
        potf2 = potf2_op(ctx, matrix, j, deps=[d2h])
        inj.fire(Hook.AFTER_POTF2, j)
        h2d = ctx.transfer_h2d(tile_bytes, name=f"h2d_diag[{j}]", deps=[potf2], iteration=j)
        updater.update_potf2(j, deps=[h2d])
        ctx.stream_wait(main, h2d, f"wait_diag[{j}]")
        trsm_op(ctx, matrix, j, main)
        inj.fire(Hook.AFTER_TRSM, j)
        updater.update_trsm(j)
        inj.fire(Hook.STORAGE_WINDOW, j)

    j = 0
    while j < nb:
        try:
            one_iteration(j)
            boundary = (j + 1) % interval == 0 or j == nb - 1
            if boundary:
                # Offline-style sweep over the live region; corrects what
                # the two-checksum code can, raises otherwise.
                verifier.verify_batch(
                    verifier.lower_keys(), f"sweep[{j}]"
                )
                take_checkpoint(j + 1)
            j += 1
        except (UnrecoverableError, SingularBlockError):
            if rollbacks >= max_rollbacks:
                raise RestartExhaustedError(
                    f"checkpointed run: {rollbacks} rollbacks exhausted"
                )
            # One-shot faults don't recur on replay.
            inj.disarm()
            j = restore()

    sim = ctx.simulate()
    return CheckpointResult(
        machine=machine.name,
        n=n,
        block_size=bs,
        interval=interval,
        makespan=None if sim is None else sim.makespan,
        rollbacks=rollbacks,
        checkpoints_taken=checkpoints,
        stats=stats,
        timeline=None if sim is None else sim.timeline,
        factor=np.tril(work) if work is not None else None,
    )


def _taint_snapshot(matrix, chk):
    return matrix.snapshot_taint(), chk.snapshot_taint()


def _taint_restore(matrix, chk, snapshot) -> None:
    m_taint, c_taint = snapshot
    matrix.restore_taint(m_taint)
    chk.restore_taint(c_taint)
