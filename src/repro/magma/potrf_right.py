"""Right-looking ("outer product") hybrid Cholesky — the design ablation.

Section II-A: "MAGMA chose the inner product version because it has more
BLAS Level-3 operations, hence, can utilize the heterogeneous system more
efficiently."  This module implements the classical right-looking variant
so that claim can be measured: each iteration factors the diagonal tile
*first*, so the CPU POTF2 and both PCIe hops sit squarely on the critical
path instead of hiding under the big GEMM, and the trailing update splits
into one SYRK plus one skinny GEMM per trailing column instead of one
large GEMM.

Same numerics (real mode produces the identical factor), same total flops;
only the schedule differs — which is exactly what the ablation benchmark
measures.
"""

from __future__ import annotations

import numpy as np

from repro.blas import dense
from repro.hetero.context import ExecutionContext
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceMatrix
from repro.magma.potrf import PotrfResult
from repro.util.validation import check_block_size, check_square, require


def right_looking_loop(ctx: ExecutionContext, matrix: DeviceMatrix) -> None:
    """Record (and in real mode execute) the right-looking factorization."""
    main = ctx.stream("main")
    nb, b = matrix.nb, matrix.block_size
    tile_bytes = ctx.tile_bytes(b)
    for j in range(nb):
        # The diagonal tile is final (right-looking invariant): factor it
        # on the host.  Nothing big runs on the GPU meanwhile — this is the
        # exposed critical-path segment the left-looking driver hides.
        ev = ctx.record_event(main)
        d2h = ctx.transfer_d2h(
            tile_bytes, name=f"d2h_diag[{j}]", deps=[ev.marker], iteration=j
        )

        def potf2_numerics(jj=j):
            dense.potf2(matrix.block(jj, jj), block_index=jj)

        potf2 = ctx.launch_cpu(
            f"potf2[{j}]",
            kind="potf2",
            cost=ctx.cost.cpu_potf2(b),
            fn=potf2_numerics,
            deps=[d2h],
            iteration=j,
        )
        h2d = ctx.transfer_h2d(
            tile_bytes, name=f"h2d_diag[{j}]", deps=[potf2], iteration=j
        )
        ctx.stream_wait(main, h2d, f"wait_diag[{j}]")

        rows = nb - j - 1
        if rows == 0:
            continue

        def trsm_numerics(jj=j):
            dense.trsm_right_lt(
                matrix.blocked.panel(jj + 1, nb, jj, jj + 1), matrix.block(jj, jj)
            )

        ctx.launch_gpu(
            f"trsm[{j}]",
            kind="trsm",
            cost=ctx.cost.trsm(rows * b, b),
            stream=main,
            fn=trsm_numerics,
            iteration=j,
        )

        # Trailing update, column by column: a SYRK on each trailing
        # diagonal tile and a skinny GEMM below it — many small kernels
        # where the left-looking driver issues one large GEMM per column.
        for c in range(j + 1, nb):

            def syrk_numerics(jj=j, cc=c):
                dense.syrk_update(matrix.block(cc, cc), matrix.block(cc, jj))

            ctx.launch_gpu(
                f"syrk[{j}->{c}]",
                kind="syrk",
                cost=ctx.cost.syrk(b, b),
                stream=main,
                fn=syrk_numerics,
                iteration=j,
            )
            below = nb - c - 1
            if below:

                def gemm_numerics(jj=j, cc=c):
                    dense.gemm_update(
                        matrix.blocked.panel(cc + 1, nb, cc, cc + 1),
                        matrix.blocked.panel(cc + 1, nb, jj, jj + 1),
                        matrix.block(cc, jj),
                    )

                ctx.launch_gpu(
                    f"gemm[{j}->{c}]",
                    kind="gemm",
                    cost=ctx.cost.gemm(below * b, b, b),
                    stream=main,
                    fn=gemm_numerics,
                    iteration=j,
                )


def magma_potrf_right(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    numerics: str = "real",
) -> PotrfResult:
    """Right-looking hybrid factorization (the un-MAGMA-like baseline)."""
    if numerics == "real":
        require(a is not None, "real mode requires the matrix a")
        n = check_square("a", a)
    else:
        require(n is not None, "shadow mode requires n")
    bs = block_size if block_size is not None else machine.default_block_size
    check_block_size(n, bs)
    ctx = machine.context(numerics=numerics)
    matrix = ctx.alloc_matrix(n, bs, data=a if numerics == "real" else None)
    right_looking_loop(ctx, matrix)
    sim = ctx.simulate()
    return PotrfResult(
        machine=machine.name,
        n=n,
        block_size=bs,
        makespan=sim.makespan,
        timeline=sim.timeline,
        matrix=matrix,
    )
