"""Row checksums: the variant the paper mentions and (wisely) rejects.

Section IV-A: "two row checksums or two column checksums works the best
for Cholesky ... We choose two column checksums ... (It is similar for two
row checksums)."  *Similar* hides a real asymmetry, which this module makes
measurable.

A row-checksum strip is ``R(A) = A · w`` (B×2, one weighted sum per row).
Updating it through the four operations:

=========  =================================================================
GEMM       ``R(C − A·Bᵀ) = R(C) − A·(Bᵀw)`` — needs ``Bᵀw``, a weighted
           column-sum of the *data* tile B, which row checksums do not
           carry.  One extra GEMV per operand tile per update.
SYRK       same, with B = A.
TRSM       ``R(B·L^{-T}) = B·(L^{-T}w)`` — the transformed weight vector
           ``u = L^{-T}w`` is one small solve, but applying it needs the
           *data* tile B again: a full O(B²) GEMV per tile, i.e. the
           update degenerates into a recomputation.
POTF2      ``R(L)`` likewise requires data access (L·w over the fresh L).
=========  =================================================================

Column checksums commute with all four (they act from the *left* while the
algorithm multiplies from the *right*), so their updates reuse previously
maintained strips at O(strip) cost.  Row checksums lose that property for
TRSM/POTF2 — their "update" touches every data element, doubling as a
recalculation.  :func:`update_flops_comparison` quantifies the gap
(``results/ablation_rowvariant.txt``); nothing here runs row checksums.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blas import flops as fl
from repro.util.formatting import render_table
from repro.util.validation import check_block_size


@dataclass(frozen=True)
class VariantCost:
    """Checksum-maintenance cost for one full factorization.

    ``*_flops`` count arithmetic; ``*_data_bytes`` count *data-tile* bytes
    the maintenance must stream beyond the strips themselves.  The flop
    gap is modest (the GEMM-rule algebra transposes cleanly); the traffic
    gap is the disqualifier — row-checksum TRSM/POTF2 "updates" re-read
    whole tiles, i.e. they cost as much as recalculations, on the same
    bandwidth the recalculations already saturate.
    """

    column_flops: int
    row_flops: int
    column_data_bytes: int
    row_data_bytes: int

    @property
    def ratio(self) -> float:
        return self.row_flops / self.column_flops

    @property
    def traffic_ratio(self) -> float:
        return self.row_data_bytes / max(self.column_data_bytes, 1)


def update_flops_comparison(n: int, block_size: int) -> VariantCost:
    """Maintenance flops, column- vs row-checksum variant.

    Column: the Section VI accounting (strips-only updates).
    Row: GEMM/SYRK updates pay an extra data GEMV (2B² per operand tile)
    for the ``Bᵀw`` terms, and TRSM/POTF2 degenerate to re-encoding
    (2·r·B² per written tile).
    """
    nb = check_block_size(n, block_size)
    b = block_size
    tile_bytes = b * b * 8
    col = row = 0
    col_bytes = row_bytes = 0
    for j in range(nb):
        rows = nb - j - 1
        if j > 0:
            # Column variant: chk(C_i) −= chk(LD_i)·LC^T — the left factor
            # is a maintained *strip*; only the shared LC row is data, and
            # one aggregated kernel streams it once.
            col += fl.gemm_flops(2, b, j * b)  # SYRK strip
            col += rows * fl.gemm_flops(2, b, j * b)  # GEMM strips
            col_bytes += j * tile_bytes
            # Row variant: R(C_i) −= LD_i·(LC^T·w) — the left factor is the
            # *data* panel LD_i, read per output tile: O(n³/B) traffic where
            # columns pay O(n²).  (LC^T·w itself is one pass over LC.)
            row += fl.gemm_flops(b, 2, j * b) * (1 + rows)
            row += fl.gemv_flops(j * b, b) * 2  # LC^T·Wᵀ over the LC data
            row_bytes += (1 + rows) * j * tile_bytes + j * tile_bytes
        # POTF2 + TRSM: column strips update from the strips + L_jj only;
        # row strips must re-read every solved tile.
        col += fl.trsm_flops(2, b)
        col += rows * fl.trsm_flops(2, b) if rows else 0
        col_bytes += tile_bytes  # the strips' solve reads L_jj once
        row += 2 * fl.gemv_flops(b, b)  # re-encode L_jj
        row += rows * 2 * fl.gemv_flops(b, b)  # re-encode the panel tiles
        row_bytes += (1 + rows) * tile_bytes
    return VariantCost(
        column_flops=col,
        row_flops=row,
        column_data_bytes=col_bytes,
        row_data_bytes=row_bytes,
    )


def render_variant_comparison(
    points: tuple[tuple[int, int], ...] = ((5120, 256), (20480, 256), (30720, 512)),
) -> str:
    """Text table of the maintenance-cost gap at representative sizes."""
    rows = []
    for n, b in points:
        c = update_flops_comparison(n, b)
        rows.append(
            (
                n,
                b,
                f"{c.ratio:.2f}x",
                f"{c.column_data_bytes / 1e9:.2f} GB",
                f"{c.row_data_bytes / 1e9:.2f} GB",
                f"{c.traffic_ratio:.2f}x",
            )
        )
    return render_table(
        ["n", "B", "flops row/col", "col data traffic", "row data traffic",
         "traffic row/col"],
        rows,
        title="checksum-variant maintenance cost (why the paper picks columns)",
    )
