"""The plain hybrid Cholesky driver (no fault tolerance).

This reproduces MAGMA's ``dpotrf_gpu`` structure (Algorithm 1 / Figure 1 of
the paper): BLAS-3 on the GPU's main stream, POTF2 on the CPU, and the two
diagonal-tile transfers arranged so that POTF2 and the copies hide under the
iteration's dominant GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blas.flops import potrf_flops
from repro.desim.trace import Timeline
from repro.faults.injector import FaultInjector, Hook
from repro.hetero.context import ExecutionContext
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceMatrix
from repro.magma.ops import gemm_op, potf2_op, syrk_op, trsm_op
from repro.util.validation import check_block_size, check_square, require


@dataclass
class PotrfResult:
    """Outcome of one simulated hybrid factorization."""

    machine: str
    n: int
    block_size: int
    makespan: float
    timeline: Timeline
    matrix: DeviceMatrix

    @property
    def gflops(self) -> float:
        """Sustained double-precision rate over the simulated run."""
        return potrf_flops(self.n) / self.makespan / 1e9

    @property
    def factor(self) -> np.ndarray:
        """The lower-triangular factor L (real mode only)."""
        require(self.matrix.real, "no numeric factor in shadow mode")
        return np.tril(self.matrix.blocked.data)


def factorization_loop(
    ctx: ExecutionContext,
    matrix: DeviceMatrix,
    injector: "FaultInjector | None" = None,
) -> None:
    """Record (and, in real mode, execute) the full Algorithm-1 loop.

    *injector*, when given, fires the standard fault hooks — the plain
    driver has no protection, so this is how the DMR/TMR baselines and
    unprotected-run experiments corrupt a run.
    """
    main = ctx.stream("main")
    tile_bytes = ctx.tile_bytes(matrix.block_size)

    def fire(hook: Hook, j: int) -> None:
        if injector is not None:
            injector.fire(hook, j)

    for j in range(matrix.nb):
        syrk_op(ctx, matrix, j, main)
        fire(Hook.AFTER_SYRK, j)
        # Ship the freshly-updated diagonal tile to the host...
        ev_diag = ctx.record_event(main)
        d2h = ctx.transfer_d2h(
            tile_bytes, name=f"d2h_diag[{j}]", deps=[ev_diag.marker], iteration=j
        )
        # ...start the big panel GEMM on the GPU...
        gemm_op(ctx, matrix, j, main)
        fire(Hook.AFTER_GEMM, j)
        # ...while the CPU factors the tile (hidden under the GEMM)...
        potf2 = potf2_op(ctx, matrix, j, deps=[d2h])
        fire(Hook.AFTER_POTF2, j)
        h2d = ctx.transfer_h2d(
            tile_bytes, name=f"h2d_diag[{j}]", deps=[potf2], iteration=j
        )
        # ...and the panel solve waits for both the GEMM (stream order)
        # and the returned tile (event dependency).
        ctx.stream_wait(main, h2d, f"wait_diag[{j}]")
        trsm_op(ctx, matrix, j, main)
        fire(Hook.AFTER_TRSM, j)
        fire(Hook.STORAGE_WINDOW, j)


def magma_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    numerics: str = "real",
) -> PotrfResult:
    """Factor an SPD matrix on the simulated machine, without fault tolerance.

    Real mode factors *a* in place (lower triangle holds L on return, as
    LAPACK does); shadow mode takes *n* instead and prices the run only.
    """
    if numerics == "real":
        require(a is not None, "real mode requires the matrix a")
        n = check_square("a", a)
    else:
        require(n is not None, "shadow mode requires n")
    bs = block_size if block_size is not None else machine.default_block_size
    check_block_size(n, bs)

    ctx = machine.context(numerics=numerics)
    matrix = ctx.alloc_matrix(n, bs, data=a if numerics == "real" else None)
    factorization_loop(ctx, matrix)
    sim = ctx.simulate()
    return PotrfResult(
        machine=machine.name,
        n=n,
        block_size=bs,
        makespan=sim.makespan,
        timeline=sim.timeline,
        matrix=matrix,
    )
