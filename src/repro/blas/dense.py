"""Double-precision dense kernels with BLAS in-place output semantics.

Each function mirrors the operation the MAGMA driver (Algorithm 1 in the
paper) issues to cuBLAS or to the host LAPACK:

====================  =======================================================
:func:`syrk_update`   ``C -= A @ A^T``            (cublasDsyrk, lower)
:func:`gemm_update`   ``C -= A @ B^T``            (cublasDgemm, trans-B)
:func:`potf2`         ``A = L · L^T`` in place     (LAPACK dpotf2 on the CPU)
:func:`trsm_right_lt` ``X · L^T = B`` in place     (cublasDtrsm, right/lower/T)
:func:`gemv`          ``v^T A`` row-vector product (cublasDgemv, checksums)
====================  =======================================================

All kernels write into caller-provided output arrays (views into the blocked
matrix) — the guides' "views, not copies" rule, and also what makes fault
injection into live storage meaningful.  POTF2 is one LAPACK call, which
factors a B×B copy that is then written back into the tile.
"""

from __future__ import annotations

import numpy as np

from repro.util.exceptions import SingularBlockError
from repro.util.validation import check_dtype, check_square, require


def syrk_update(c: np.ndarray, a: np.ndarray) -> None:
    """Symmetric rank-k update ``C -= A @ A^T`` (in place, full storage).

    *c* is n×n, *a* is n×k.  The real cublasDsyrk only touches the lower
    triangle; we update the full square because the checksum relation
    ``chk(C') = chk(C) - chk(A)·A^T`` spans all columns.  The factorization
    itself only ever reads the lower triangle.
    """
    n = check_square("c", c)
    check_dtype("c", c)
    check_dtype("a", a)
    require(a.ndim == 2 and a.shape[0] == n, f"a must be {n}×k, got {a.shape}")
    c -= a @ a.T


def gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """General update ``C -= A @ B^T`` (in place).

    *c* is m×n, *a* is m×k, *b* is n×k — the trailing-panel update of
    Algorithm 1 line 4 with A = LD and B = LC.
    """
    check_dtype("c", c)
    check_dtype("a", a)
    check_dtype("b", b)
    m, n = c.shape
    require(a.shape[0] == m, f"a has {a.shape[0]} rows, c has {m}")
    require(b.shape[0] == n, f"b has {b.shape[0]} rows, c has {n} columns")
    require(a.shape[1] == b.shape[1], f"inner dims differ: {a.shape} vs {b.shape}")
    c -= a @ b.T


def potf2(a: np.ndarray, block_index: int = -1) -> None:
    """Lower Cholesky of the tile *a*, in place (the CPU's POTF2 step).

    One ``np.linalg.cholesky`` call factors the tile: NumPy's own LAPACK,
    so pool workers load nothing extra.  It reads only the lower triangle.
    On exit the lower triangle of *a* holds L and the strict upper triangle
    is zeroed (MAGMA leaves garbage there; zeroing makes the column-checksum
    relation of the *stored* block exact, which the ABFT layer relies on).

    Raises :class:`SingularBlockError` if LAPACK rejects the tile — the
    fail-stop outcome a storage error can force, per Section III — and
    leaves *a* as it was.  OpenBLAS lets a NaN or +inf pivot through, so a
    non-finite diagonal in the result counts as a rejection too.  The
    error names the pivot :func:`_failing_pivot` finds.
    """
    check_square("a", a)
    check_dtype("a", a)
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        ell = None
    if ell is None or not np.isfinite(ell.diagonal()).all():
        raise SingularBlockError(block_index, *_failing_pivot(a))
    a[...] = ell


def _failing_pivot(a: np.ndarray) -> tuple[int, float]:
    """Index and value of the pivot the scalar ``dpotf2`` recurrence fails at.

    Runs the recurrence on a copy of the lower triangle of *a* and returns
    the first pivot that is not positive and finite.  Where LAPACK rejected
    a tile the recurrence gets through (a pivot at rounding level), the
    smallest pivot stands for the one LAPACK refused.
    """
    w = np.tril(a)
    pivots = np.empty(w.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf on the way
        for j in range(w.shape[0]):
            pivot = w[j, j]
            if not (pivot > 0.0 and np.isfinite(pivot)):
                return j, float(pivot)
            pivots[j] = pivot
            col = w[j + 1 :, j] / np.sqrt(pivot)
            w[j + 1 :, j + 1 :] -= np.outer(col, col)
    j = int(np.argmin(pivots))
    return j, float(pivots[j])


def trsm_right_lt(b: np.ndarray, ell: np.ndarray) -> None:
    """Solve ``X · L^T = B`` in place: ``B ← B · L^{-T}`` (right, lower, trans).

    *b* is m×n, *ell* is the n×n lower-triangular Cholesky factor.  This is
    the panel solve of Algorithm 1 line 7, and — applied to a 2×B checksum
    strip — also the checksum updates for TRSM and POTF2 (Algorithm 2 in the
    paper reduces to exactly this solve).

    Forward substitution over columns: column j of X depends only on columns
    0..j-1, since (X L^T)[:, j] = Σ_{k<=j} X[:,k] · L[j,k].
    """
    check_dtype("b", b)
    n = check_square("ell", ell)
    require(b.shape[1] == n, f"b has {b.shape[1]} columns, ell is {n}×{n}")
    for j in range(n):
        if j > 0:
            b[:, j] -= b[:, :j] @ ell[j, :j]
        b[:, j] /= ell[j, j]


def gemv(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-vector product ``v^T A`` — the checksum (re)calculation kernel.

    Returns a fresh 1-D array of length ``a.shape[1]``.  On the GPU this is
    the BLAS-2 kernel whose poor solo utilization motivates Optimization 1.
    """
    check_dtype("a", a)
    check_dtype("v", v)
    require(v.ndim == 1 and v.shape[0] == a.shape[0], "v length must match rows of a")
    return v @ a
