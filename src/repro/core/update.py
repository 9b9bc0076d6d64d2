"""Checksum updating: keeping the strips consistent through every operation.

The update rules (Section IV-B) mirror each operation on the 2×B strips.
Writing chk(X) for the strip of tile X and W for the weight matrix:

=========  ==============================================================
SYRK       ``chk(A'_jj) = chk(A_jj) − chk(L_j,0:j) · L_j,0:j^T``
GEMM       ``chk(A'_ij) = chk(A_ij) − chk(L_i,0:j) · L_j,0:j^T``  (i > j)
POTF2      ``chk(L_jj) = chk(A'_jj) · L_jj^{-T}``   (Algorithm 2 ≡ a
           2-row triangular solve, since W·A' = (W·L)·L^T)
TRSM       ``chk(L_ij) = chk(A'_ij) · L_jj^{-T}``   (i > j)
=========  ==============================================================

Updating is off the critical path, so Optimization 2 lets it run in three
placements:

``gpu_main``
    chained into the factorization's main stream — the unoptimized
    baseline of Figures 10/11 ("before");
``gpu_stream``
    a dedicated CUDA stream, overlapping with the BLAS-3 kernels
    (chosen for Bulldozer64's Kepler GPU);
``cpu``
    the otherwise-idle host, at the price of shipping block row j of L
    down each iteration and the strips up at verification time
    (chosen for Tardis).
"""

from __future__ import annotations

import numpy as np

from repro.blas import flops as fl
from repro.blas.dense import trsm_right_lt
from repro.desim.task import Task
from repro.faults.taint import TaintState
from repro.hetero.context import ExecutionContext
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.hetero.stream import Stream
from repro.util.validation import require

PLACEMENTS = ("gpu_main", "gpu_stream", "cpu")


class ChecksumUpdater:
    """Issues checksum-updating work in the configured placement."""

    def __init__(
        self,
        ctx: ExecutionContext,
        matrix: DeviceMatrix,
        chk: DeviceChecksums,
        placement: str,
        main_stream: Stream,
    ) -> None:
        require(placement in PLACEMENTS, f"bad placement {placement!r}")
        self.ctx = ctx
        self.matrix = matrix
        self.chk = chk
        self.placement = placement
        self.main_stream = main_stream
        self._stream = (
            main_stream if placement == "gpu_main" else ctx.stream("chkupd")
        )
        self.last_task: Task | None = None
        self._lrow: list[Task] = []  # this iteration's L-row staging (cpu)
        self._bulk_deps: list[Task] | None = None  # finalizers of row cols 0..j-2
        # Preallocated product workspace for the batched GEMM strip update
        # (largest panel: nb-1 strips of r×B each); real mode only.
        self._gemm_ws = (
            np.empty(((matrix.nb - 1) * chk.rows_per_tile, matrix.block_size))
            if ctx.real and matrix.nb > 1
            else None
        )

    # ------------------------------------------------------------------ issue

    def anchor(self, task: Task | None) -> None:
        """Order all subsequent updating work after *task* (encode barrier)."""
        if task is None:
            return
        if self._stream.last is None:
            self._stream.last = task
        if self.placement == "cpu" and self.ctx.host.last is None:
            self.ctx.host.last = task

    def _issue(
        self,
        name: str,
        kind: str,
        flop_count: int,
        fn,
        deps: list[Task] | None,
        **meta,
    ) -> Task:
        if self.placement == "cpu":
            # Host-side updating reads the *host* copies of L (staged by
            # lrow_d2h / the POTF2 output); advertising device-tile reads
            # here would fabricate hazards against the GPU kernels.
            meta.pop("tile_reads", None)
            task = self.ctx.launch_cpu(
                name,
                kind=kind,
                cost=self.ctx.cost.cpu_chk_update(flop_count),
                fn=fn,
                deps=deps,
                **meta,
            )
        else:
            task = self.ctx.launch_gpu(
                name,
                kind=kind,
                cost=self.ctx.cost.chk_update_gpu(flop_count, kind),
                stream=self._stream,
                fn=fn,
                deps=deps,
                **meta,
            )
        self.last_task = task
        return task

    def begin_iteration(self, j: int, deps: list[Task] | None = None) -> Task | None:
        """Per-iteration staging for the CPU placement.

        Ships block row j of L to the host (the ``n²/2`` "checksum updating
        related transfer" of Section VI); no-op for GPU placements or j=0.
        *deps* are the finalizers of the row's newest column j-1 (the
        previous iteration's TRSM).

        The row goes down in two pieces so the bulk stays off the critical
        path: columns 0..j-2 are final since iteration j-2 and ship as soon
        as that TRSM completes (hiding under iteration j-1's GEMM), while
        only the single tile (j, j-1) must wait for TRSM j-1.  Total volume
        is unchanged (``j`` tiles per iteration → n²/2 overall).
        """
        if self.placement != "cpu" or j == 0:
            return None
        b = self.matrix.block_size
        pieces: list[Task] = []
        if j > 1:
            pieces.append(
                self.ctx.transfer_d2h(
                    (j - 1) * b * b * 8,
                    name=f"lrow_d2h[{j}]",
                    deps=self._bulk_deps,
                    iteration=j,
                    tile_reads=[(j, k) for k in range(j - 1)],
                )
            )
        pieces.append(
            self.ctx.transfer_d2h(
                b * b * 8,
                name=f"lcol_d2h[{j}]",
                deps=deps,
                iteration=j,
                tile_reads=[(j, j - 1)],
            )
        )
        self._bulk_deps = list(deps) if deps else None
        # Tracked separately from last_task: the host strip updates that
        # consume this row depend on it, but verification batches ordered
        # after "all updating so far" need the last *strip write*, which
        # these transfers are not.
        self._lrow = pieces
        return pieces[-1]

    # ------------------------------------------------------------------ rules

    def update_syrk(self, j: int, deps: list[Task] | None = None) -> Task | None:
        """``chk(A'_jj) −= chk(L_j,0:j) · L_j,0:j^T``; no-op at j=0."""
        if j == 0:
            return None
        b = self.matrix.block_size
        if self.placement == "cpu" and self._lrow:
            deps = list(deps or []) + self._lrow

        def numerics() -> None:
            self.chk.strip(j, j)[:] -= self.chk.strip_row(
                j, 0, j
            ) @ self.matrix.blocked.block_row(j, 0, j).T

        task = self._issue(
            f"chkupd_syrk[{j}]",
            "chk_update_syrk",
            fl.gemm_flops(self.chk.rows_per_tile, b, j * b),
            numerics,
            deps,
            iteration=j,
            tile_reads=[(j, k) for k in range(j)],
            chk_reads=[(j, k) for k in range(j)] + [(j, j)],
            chk_writes=[(j, j)],
        )
        self._propagate_from_row(j, out_key=(j, j))
        return task

    def update_gemm(self, j: int, deps: list[Task] | None = None) -> Task | None:
        """Panel strips: ``chk(A'_ij) −= chk(L_i,0:j) · L_j,0:j^T`` ∀ i>j.

        Issued as one aggregated kernel (the strips are updated together,
        Section IV-A); numerics and taint are per tile.
        """
        nb, b = self.matrix.nb, self.matrix.block_size
        rows = nb - j - 1
        if j == 0 or rows == 0:
            return None
        if self.placement == "cpu" and self._lrow:
            deps = list(deps or []) + self._lrow

        def numerics() -> None:
            # All panel strips in one stacked GEMM: block row i's strip is
            # the r-row band of the fused operands, so the product equals
            # the per-strip ``strip_row(i, 0, j) @ lrow_t`` bit for bit.
            lrow_t = self.matrix.blocked.block_row(j, 0, j).T
            src = self.chk.strip_panel(j + 1, nb, 0, j)
            out = self._gemm_ws[: src.shape[0]]
            np.matmul(src, lrow_t, out=out)
            self.chk.strip_panel(j + 1, nb, j, j + 1)[:] -= out

        task = self._issue(
            f"chkupd_gemm[{j}]",
            "chk_update_gemm",
            rows * fl.gemm_flops(self.chk.rows_per_tile, b, j * b),
            numerics,
            deps,
            iteration=j,
            tile_reads=[(j, k) for k in range(j)],
            chk_reads=(
                [(i, k) for i in range(j + 1, nb) for k in range(j)]
                + [(i, j) for i in range(j + 1, nb)]
            ),
            chk_writes=[(i, j) for i in range(j + 1, nb)],
        )
        for i in range(j + 1, nb):
            self._propagate_from_row(j, out_key=(i, j))
        return task

    def update_potf2(self, j: int, deps: list[Task] | None = None) -> Task:
        """Algorithm 2: ``chk(L_jj) = chk(A'_jj) · L_jj^{-T}`` (2-row solve)."""
        b = self.matrix.block_size

        def numerics() -> None:
            trsm_right_lt(self.chk.strip(j, j), self.matrix.block(j, j), self.matrix.inverses)

        task = self._issue(
            f"chkupd_potf2[{j}]",
            "chk_update_potf2",
            fl.trsm_flops(self.chk.rows_per_tile, b),
            numerics,
            deps,
            iteration=j,
            tile_reads=[(j, j)],
            chk_reads=[(j, j)],
            chk_writes=[(j, j)],
        )
        self._propagate_trsm_like((j, j), j)
        return task

    def update_trsm(self, j: int, deps: list[Task] | None = None) -> Task | None:
        """Panel strips through the solve: ``chk(L_ij) = chk(A'_ij)·L_jj^{-T}``."""
        nb, b = self.matrix.nb, self.matrix.block_size
        rows = nb - j - 1
        if rows == 0:
            return None

        def numerics() -> None:
            # One solve over the stacked panel: no step of the blocked
            # solve mixes rows, so the stacked solve computes the same
            # quantities as the per-strip loop (BLAS may pick a different
            # GEMM kernel for the taller operand — ulps below any
            # tolerance — and the call is unconditional, so both
            # verification modes see identical strips).
            trsm_right_lt(
                self.chk.strip_panel(j + 1, nb, j, j + 1),
                self.matrix.block(j, j),
                self.matrix.inverses,
            )

        task = self._issue(
            f"chkupd_trsm[{j}]",
            "chk_update_trsm",
            rows * fl.trsm_flops(self.chk.rows_per_tile, b),
            numerics,
            deps,
            iteration=j,
            tile_reads=[(j, j)],
            chk_reads=[(i, j) for i in range(j + 1, nb)],
            chk_writes=[(i, j) for i in range(j + 1, nb)],
        )
        for i in range(j + 1, nb):
            self._propagate_trsm_like((i, j), j)
        return task

    # ------------------------------------------------------------------ taint

    def _propagate_from_row(self, j: int, out_key: tuple[int, int]) -> None:
        """SYRK/GEMM strip update taint: corrupted L row j data or corrupted
        source strips ``(i, 0..j-1)`` of the output's block row i make the
        output strip untrustworthy.  A clean buffer is not walked."""
        if self.matrix.any_taint():
            for k in range(j):
                if not self.matrix.taint_of((j, k)).is_clean():
                    self.chk.taint_of(out_key).merge(TaintState(full=True))
                    return
        if self.chk.any_taint():
            i = out_key[0]
            for k in range(j):
                if not self.chk.taint_of((i, k)).is_clean():
                    self.chk.taint_of(out_key).merge(TaintState(full=True))
                    return

    def _propagate_trsm_like(self, key: tuple[int, int], j: int) -> None:
        """POTF2/TRSM strip update taint: a corrupted L_jj poisons the solve."""
        if not self.matrix.any_taint():
            return
        if not self.matrix.taint_of((j, j)).is_clean():
            self.chk.taint_of(key).merge(TaintState(full=True))


def updating_flops_total(n: int, block_size: int, n_checksums: int = 2) -> int:
    """Total checksum-updating flops for a full factorization.

    Leading order ``(r/2)·2n³/(3B)`` with r checksum rows per tile — the
    paper's ``N_Upd = 2n³/(3B)`` at r = 2 (Section V-B).
    """
    nb = n // block_size
    b = block_size
    r = n_checksums
    total = 0
    for j in range(nb):
        if j > 0:
            total += fl.gemm_flops(r, b, j * b)  # SYRK strip
            rows = nb - j - 1
            if rows:
                total += rows * fl.gemm_flops(r, b, j * b)  # GEMM strips
        total += fl.trsm_flops(r, b)  # POTF2 strip
        if j + 1 < nb:
            total += (nb - j - 1) * fl.trsm_flops(r, b)  # TRSM strips
    return total
