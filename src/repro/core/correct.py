"""Checksum recalculation, error detection, location and correction.

This is the verification half of the ABFT machinery (Section IV-C):

1. recompute the checksums of each tile to be checked (BLAS-2 GEMV
   kernels — the expensive, critical-path operation that Optimization 1
   accelerates with concurrent kernel execution);
2. compare against the maintained strips (the batched detector,
   :func:`repro.core.batchverify.detect`);
3. decode each flagged tile with the run's
   :class:`~repro.core.multierror.MultiErrorCodec`, the one decoder for
   every checksum count.  For the paper's two checksums its rules are:

   ====================================  ===================================
   δ₁ ≠ 0, δ₂ ≠ 0, δ₂/δ₁ ≈ r ∈ [1, B]    one data error at row r:
                                         reconstruct ``tile[r-1, col]``
                                         from the checksum and the other
                                         elements of its column
   δ₁ ≠ 0, δ₂ ≈ 0                        checksum row 1 itself corrupted
                                         (storage error in the checksum):
                                         refresh it from the data
   δ₁ ≈ 0, δ₂ ≠ 0                        checksum row 2 corrupted: refresh
   anything else                         uncorrectable → restart
   ====================================  ===================================

   A genuine single data error always moves *both* checksums (δ₂ = r·δ₁
   with r ≥ 1), so the classification is unambiguous up to rounding.

Shadow mode answers the same question from taint states instead of
numerics, using :meth:`repro.faults.taint.TaintState.correctable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batchverify import detect
from repro.core.multierror import MultiErrorCodec
from repro.desim.task import Task
from repro.hetero.context import ExecutionContext
from repro.hetero.costmodel import KernelCost
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.util.exceptions import UnrecoverableError
from repro.util.validation import check_positive


@dataclass
class VerifyStats:
    """Counters accumulated over one factorization run."""

    batches: int = 0
    tiles_verified: int = 0
    data_corrections: int = 0
    checksum_corrections: int = 0
    columns_flagged: int = 0
    corrected_sites: list[tuple[tuple[int, int], int, int]] = field(
        default_factory=list
    )  # (tile, row, col)


class Verifier:
    """Issues verification batches and performs detection/correction.

    Parameters
    ----------
    ctx, matrix, chk:
        The run's execution context and device buffers.
    n_streams:
        Number of CUDA streams for the recalculation kernels.  1 disables
        Optimization 1 (every kernel serialized); the paper uses the GPU's
        designed concurrent-kernel count.
    codec:
        The checksum code that detects and decodes (its
        :meth:`~repro.core.multierror.MultiErrorCodec.tolerance` is the
        detection threshold).  Defaults to the strips' checksum count with
        the codec's default tolerances.
    strips_on_host:
        True when checksum updating runs on the CPU (Optimization 2's CPU
        placement): each batch then pays an extra host→device strip
        transfer, the "verification related transfer" of Section VI.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        matrix: DeviceMatrix,
        chk: DeviceChecksums,
        n_streams: int = 1,
        codec: MultiErrorCodec | None = None,
        strips_on_host: bool = False,
        stats: VerifyStats | None = None,
    ) -> None:
        check_positive("n_streams", n_streams)
        self.ctx = ctx
        self.matrix = matrix
        self.chk = chk
        self.strips_on_host = strips_on_host
        self.stats = stats if stats is not None else VerifyStats()
        self.streams = [ctx.stream(f"recalc{i}") for i in range(n_streams)]
        self.n_checksums = chk.rows_per_tile
        self.codec = (
            codec
            if codec is not None
            else MultiErrorCodec(matrix.block_size, n_checksums=self.n_checksums)
        )

    # ------------------------------------------------------------------ batch

    def verify_batch(
        self,
        keys: list[tuple[int, int]],
        label: str,
        after: list[Task] | None = None,
        iteration: int | None = None,
    ) -> Task | None:
        """Verify (and correct) the tiles in *keys* before they are used.

        Issues the recalculation kernels across the verifier's streams,
        returns a barrier task the caller must order the dependent
        operation after (it is the pre-access synchronization point of the
        Enhanced scheme).  *iteration* tags the barrier for the protocol
        analyzer: a verification guards reads of the same iteration.
        Raises :class:`UnrecoverableError` when any tile is corrupted
        beyond the checksum code's reach.
        """
        if not keys:
            return None
        deps = list(after or [])
        if self.strips_on_host:
            # The maintained strips live in host memory; stage them onto the
            # device for the comparison (Section VI 6(c), Enhanced variant).
            strip_bytes = self.n_checksums * self.matrix.block_size * 8 * len(keys)
            deps.append(
                self.ctx.transfer_h2d(
                    strip_bytes, name=f"strips_h2d[{label}]", deps=deps or None
                )
            )
        cost = self.ctx.cost.gemv_recalc(
            self.matrix.block_size, self.matrix.block_size, n_vectors=self.n_checksums
        )
        tag = {} if iteration is None else {"iteration": iteration}
        n_streams = len(self.streams)
        share_costs: dict[int, KernelCost] = {}  # shares differ in size by <= 1
        tails: list[Task] = []
        for i, s in enumerate(self.streams):
            # Round-robin: stream i takes keys i, i + n_streams, ...
            share = keys[i::n_streams]
            if not share:
                continue
            size = len(share)
            if size not in share_costs:
                share_costs[size] = KernelCost(duration=cost.duration * size, util=cost.util)
            tails.append(
                self.ctx.launch_gpu(
                    f"recalc[{label}]@{s.name}",
                    kind="recalc",
                    cost=share_costs[size],
                    stream=s,
                    deps=deps,
                    tiles=size,
                    tile_reads=share,
                    chk_reads=share,
                    **tag,
                )
            )
        barrier = self.ctx.barrier(f"verified[{label}]", tails, tile_verifies=keys, **tag)
        self.stats.batches += 1
        self.stats.tiles_verified += len(keys)
        if self.ctx.real:
            self.check_real(keys)
        elif self.matrix.any_taint() or self.chk.any_taint():
            # Clean buffers verify clean tile by tile: only walk dirty ones.
            for key in keys:
                self._check_tile_shadow(key)
        return barrier

    # ------------------------------------------------------------------ real

    def check_real(self, keys: list[tuple[int, int]]) -> None:
        """Real-mode detection + correction for one batch of keys."""
        check_tiles(self.matrix, self.chk, keys, self.codec, stats=self.stats)

    # ------------------------------------------------------------------ shadow

    def _check_tile_shadow(self, key: tuple[int, int]) -> None:
        data_taint = self.matrix.taint_of(key)
        chk_taint = self.chk.taint_of(key)
        if data_taint.is_clean() and chk_taint.is_clean():
            return
        if data_taint.is_clean():
            # Data verifies clean against recomputation; refresh the strip.
            chk_taint.clear()
            self.stats.checksum_corrections += 1
            return
        if not chk_taint.is_clean():
            raise UnrecoverableError(
                f"tile {key}: both data and checksum corrupted", block=key
            )
        capacity = max(1, self.n_checksums // 2)
        if data_taint.correctable(capacity):
            self.stats.data_corrections += len(data_taint.points) or 1
            data_taint.clear()
            return
        raise UnrecoverableError(
            f"tile {key}: propagated corruption exceeds the "
            f"{self.n_checksums}-checksum code's per-column capacity "
            f"({capacity})",
            block=key,
        )

    # ------------------------------------------------------------------ misc

    def lower_keys(self) -> list[tuple[int, int]]:
        """All lower-triangle tile keys (the offline final sweep)."""
        nb = self.matrix.nb
        return [(i, j) for j in range(nb) for i in range(j, nb)]


def check_tiles(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    keys: list[tuple[int, int]],
    codec: MultiErrorCodec,
    *,
    stats: VerifyStats,
) -> None:
    """Detect over the whole batch, then decode each flagged tile.

    The one verify path of :meth:`Verifier.check_real` and the tile-DAG
    runtime's verify tasks (:mod:`repro.runtime.cholesky`).  Flagged keys
    come back from :func:`~repro.core.batchverify.detect` in batch order,
    so corrections, statistics and the first
    :class:`UnrecoverableError` are those of a per-tile loop.
    """
    for key in detect(matrix, chk, keys, codec):  # noqa: RPL006 - flagged tiles only, usually none
        check_tile_strip(
            key, matrix.tile_view(key), chk.tile_view(key), codec, stats=stats
        )


def check_tile_strip(
    key: tuple[int, int],
    tile: np.ndarray,
    strip: np.ndarray,
    codec: MultiErrorCodec,
    *,
    stats: VerifyStats,
) -> None:
    """Decode one tile against its strip (pure host numerics) and count it.

    The per-tile step behind :func:`check_tiles`; the decoding is
    :meth:`~repro.core.multierror.MultiErrorCodec.verify_and_correct`.
    """
    try:
        corrections = codec.verify_and_correct(tile, strip)
    except UnrecoverableError as exc:
        raise UnrecoverableError(f"tile {key}: {exc}", block=key) from exc
    stats.columns_flagged += len(corrections)
    for corr in corrections:
        stats.data_corrections += len(corr.rows)
        stats.checksum_corrections += len(corr.refreshed)
        stats.corrected_sites.extend((key, row, corr.column) for row in corr.rows)
