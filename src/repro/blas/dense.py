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
factors a B×B copy that is then written back into the tile.  TRSM is
blocked BLAS-3: per 32-column block, one GEMM with the columns already
solved and one GEMM with the inverse of the block's diagonal tile.
"""

from __future__ import annotations

import numpy as np

from repro.util.exceptions import SingularBlockError
from repro.util.validation import check_dtype, check_square, require


#: Column-block width of :func:`trsm_right_lt`.  Of 16, 32, 48 and 64, 32
#: measured fastest on a 192×192 tile (1 BLAS thread).
TRSM_BLOCK = 32
_STRICT_LOWER = np.tri(TRSM_BLOCK, k=-1, dtype=bool)
#: 2**1022: the inverse of a subnormal pivot is at least this large.
_INVERSE_LIMIT = 1.0 / np.finfo(np.float64).tiny

#: Memo of :func:`trsm_right_lt`'s diagonal-block inverses, keyed by each
#: block's bytes; ``None`` marks a block solved by substitution.
Inverses = dict[bytes, np.ndarray | None]


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


def trsm_right_lt(b: np.ndarray, ell: np.ndarray, inverses: Inverses | None = None) -> None:
    """Solve ``X · L^T = B`` in place: ``B ← B · L^{-T}`` (right, lower, trans).

    *b* is m×n, *ell* is the n×n lower-triangular Cholesky factor; only its
    lower triangle is read.  This is the panel solve of Algorithm 1 line 7,
    and — applied to a 2×B checksum strip — also the checksum updates for
    TRSM and POTF2 (Algorithm 2 in the paper reduces to exactly this solve).

    Blocked BLAS-3 over :data:`TRSM_BLOCK`-wide column blocks, the way
    MAGMA's GPU dtrsm works: block ``s:e`` of X depends only on the columns
    to its left, since ``X[:, s:e] · L[s:e, s:e]^T = B[:, s:e] - X[:, :s] ·
    L[s:e, :s]^T``.  So each block is one GEMM with the solved columns, then
    one GEMM with ``L[s:e, s:e]^{-T}``.  No step mixes rows.

    A diagonal block whose inverse LAPACK rejects, or that has an entry
    that is not finite or reaches ``1/tiny`` (as a zero, NaN or subnormal
    pivot or an inf or NaN below the diagonal makes it), is solved by
    column substitution instead.  So the kernel never raises on such a
    factor: the affected columns come out non-finite, and verification
    catches them.

    *inverses* memoizes the diagonal blocks' inverses across the solves
    that share it (one factorization attempt's, which solve against each
    factor tile several times).  An entry is keyed by the block's bytes, so
    a block rewritten between two solves misses and is inverted again:
    every solve gets what inverting afresh would give.  Threads may share
    the dict; two that miss together store the same bits.
    """
    check_dtype("b", b)
    n = check_square("ell", ell)
    require(b.shape[1] == n, f"b has {b.shape[1]} columns, ell is {n}×{n}")
    for s in range(0, n, TRSM_BLOCK):
        e = min(s + TRSM_BLOCK, n)
        if s:
            b[:, s:e] -= b[:, :s] @ ell[s:e, :s].T
        diag = ell[s:e, s:e]
        if inverses is None:
            inv_t = _inverse_transpose(diag)
        else:
            key = diag.tobytes()
            if key not in inverses:
                inverses[key] = _inverse_transpose(diag)
            inv_t = inverses[key]
        if inv_t is None:
            _substitute(b[:, s:e], diag)
        else:
            b[:, s:e] = b[:, s:e] @ inv_t


def _inverse_transpose(diag: np.ndarray) -> np.ndarray | None:
    """``L^{-T}`` for the lower triangle L of *diag*, or None if it is unusable.

    ``np.linalg.inv`` is LU with partial pivoting.  Given the upper
    triangle ``L^T`` it finds nothing to swap or eliminate, so the inverse
    is LAPACK's back substitution against the identity.  Given L itself,
    the row swaps made the forward error several times worse, and a NaN
    pivot, which the pivot search skips, left columns finite and wrong.
    The strict lower triangle is zeroed.  An inverse with an entry that is
    not finite or reaches ``1/tiny`` is refused: a subnormal pivot makes
    such an entry, column substitution overflows to inf there, and applying
    that inverse would keep some of those entries finite.
    """
    lower = _STRICT_LOWER[: diag.shape[0], : diag.shape[0]]
    try:
        inv_t = np.linalg.inv(np.where(lower, 0.0, diag.T))
    except np.linalg.LinAlgError:
        return None
    inv_t[lower] = 0.0
    if not np.abs(inv_t).max() < _INVERSE_LIMIT:  # True on NaN
        return None
    inv_t.flags.writeable = False  # a memoized inverse is shared
    return inv_t


def _substitute(b: np.ndarray, ell: np.ndarray) -> None:
    """Column substitution ``B ← B · L^{-T}``: column j needs columns < j."""
    for j in range(ell.shape[0]):
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
