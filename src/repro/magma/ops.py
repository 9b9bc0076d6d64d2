"""The four blocked operations of MAGMA's Cholesky (Algorithm 1).

Each ``*_op`` function issues one operation of iteration *j* against an
:class:`~repro.hetero.context.ExecutionContext`:

- **real mode**: the NumPy numerics run immediately, in place, on the
  device matrix's tile views;
- **both modes**: corruption taint is propagated from inputs to outputs
  with the conservative data-flow rules of
  :class:`repro.faults.taint.TaintState` (skipped outright while the
  matrix holds no taint: merging a clean source changes nothing);
- **both modes**: a priced task is recorded into the context's task graph
  (GPU stream for SYRK/GEMM/TRSM, the CPU for POTF2).

The matrix is factored *left-looking* exactly as in the paper: at iteration
j, SYRK and GEMM apply all updates from the already-final block row/columns
0..j-1 to block column j, then POTF2 factors the diagonal tile on the CPU
and TRSM finalizes the panel on the GPU.
"""

from __future__ import annotations

from repro.blas import dense
from repro.desim.task import Task
from repro.faults.taint import TaintState
from repro.hetero.context import ExecutionContext
from repro.hetero.memory import DeviceMatrix
from repro.hetero.stream import Stream


def syrk_op(
    ctx: ExecutionContext,
    matrix: DeviceMatrix,
    j: int,
    stream: Stream,
) -> Task | None:
    """Rank-k update of the diagonal tile: ``A[j,j] -= A[j,0:j] · A[j,0:j]^T``.

    No-op (returns None) at j=0, where the diagonal tile has no left panel.
    """
    if j == 0:
        return None
    b = matrix.block_size

    def numerics() -> None:
        dense.syrk_update(matrix.block(j, j), matrix.blocked.block_row(j, 0, j))

    task = ctx.launch_gpu(
        f"syrk[{j}]",
        kind="syrk",
        cost=ctx.cost.syrk(b, j * b),
        stream=stream,
        fn=numerics,
        iteration=j,
        tile_reads=[(j, k) for k in range(j)] + [(j, j)],
        tile_writes=[(j, j)],
    )
    if not matrix.any_taint():
        return task
    out = matrix.taint_of((j, j))
    for k in range(j):
        src = matrix.taint_of((j, k))
        if src.is_clean():
            continue
        out.merge(src.propagated_as_left_factor())
        out.merge(src.propagated_as_right_factor())
    return task


def gemm_op(
    ctx: ExecutionContext,
    matrix: DeviceMatrix,
    j: int,
    stream: Stream,
) -> Task | None:
    """Panel update: ``A[j+1:nb, j] -= A[j+1:nb, 0:j] · A[j, 0:j]^T``.

    Issued as the single large DGEMM MAGMA uses (one kernel, the dominant
    cost of the whole factorization).  Returns None when the trailing panel
    or the left panel is empty.
    """
    nb, b = matrix.nb, matrix.block_size
    rows = nb - j - 1
    if j == 0 or rows == 0:
        return None

    def numerics() -> None:
        dense.gemm_update(
            matrix.blocked.panel(j + 1, nb, j, j + 1),
            matrix.blocked.panel(j + 1, nb, 0, j),
            matrix.blocked.block_row(j, 0, j),
        )

    task = ctx.launch_gpu(
        f"gemm[{j}]",
        kind="gemm",
        cost=ctx.cost.gemm(rows * b, b, j * b),
        stream=stream,
        fn=numerics,
        iteration=j,
        tile_reads=(
            [(i, k) for i in range(j + 1, nb) for k in range(j)]
            + [(j, k) for k in range(j)]
            + [(i, j) for i in range(j + 1, nb)]
        ),
        tile_writes=[(i, j) for i in range(j + 1, nb)],
    )
    if not matrix.any_taint():
        return task
    # Taint: output tile (i, j) collects the left factor's row corruption
    # from every (i, k) and the right factor's column corruption from (j, k).
    right = TaintState()
    for k in range(j):
        src = matrix.taint_of((j, k))
        if not src.is_clean():
            right.merge(src.propagated_as_right_factor())
    for i in range(j + 1, nb):
        out = matrix.taint_of((i, j))
        if not right.is_clean():
            out.merge(right)
        for k in range(j):
            src = matrix.taint_of((i, k))
            if not src.is_clean():
                out.merge(src.propagated_as_left_factor())
    return task


def potf2_op(
    ctx: ExecutionContext,
    matrix: DeviceMatrix,
    j: int,
    deps: list[Task] | None = None,
) -> Task:
    """Unblocked Cholesky of the (transferred) diagonal tile, on the CPU.

    Real mode may raise :class:`repro.util.exceptions.SingularBlockError` —
    the fail-stop outcome when corruption broke positive definiteness.
    """
    b = matrix.block_size

    def numerics() -> None:
        dense.potf2(matrix.block(j, j), block_index=j)

    task = ctx.launch_cpu(
        f"potf2[{j}]",
        kind="potf2",
        cost=ctx.cost.cpu_potf2(b),
        fn=numerics,
        deps=deps,
        iteration=j,
        tile_reads=[(j, j)],
        tile_writes=[(j, j)],
    )
    taint = matrix.taint_of((j, j))
    if not taint.is_clean():
        # Corrupt input to a dense factorization: the factor is garbage
        # everywhere (and on real hardware may fail-stop instead).
        taint.merge(TaintState.from_corrupt_triangular_factor())
    return task


def trsm_op(
    ctx: ExecutionContext,
    matrix: DeviceMatrix,
    j: int,
    stream: Stream,
) -> Task | None:
    """Panel solve: ``A[j+1:nb, j] ← A[j+1:nb, j] · L[j,j]^{-T}`` on the GPU.

    Returns None on the last iteration (empty trailing panel).
    """
    nb, b = matrix.nb, matrix.block_size
    rows = nb - j - 1
    if rows == 0:
        return None

    def numerics() -> None:
        dense.trsm_right_lt(
            matrix.blocked.panel(j + 1, nb, j, j + 1), matrix.block(j, j), matrix.inverses
        )

    task = ctx.launch_gpu(
        f"trsm[{j}]",
        kind="trsm",
        cost=ctx.cost.trsm(rows * b, b),
        stream=stream,
        fn=numerics,
        iteration=j,
        tile_reads=[(j, j)] + [(i, j) for i in range(j + 1, nb)],
        tile_writes=[(i, j) for i in range(j + 1, nb)],
    )
    if not matrix.any_taint():
        return task
    ell_taint = matrix.taint_of((j, j))
    for i in range(j + 1, nb):
        out = matrix.taint_of((i, j))
        if not ell_taint.is_clean():
            out.merge(TaintState.from_corrupt_triangular_factor())
        elif not out.is_clean():
            propagated = out.propagated_through_trsm()
            out.clear()
            out.merge(propagated)
    return task

