"""Host-only reference factorizations (ground truth for tests)."""

from __future__ import annotations

import numpy as np

from repro.blas import dense
from repro.blas.blocked import BlockedMatrix
from repro.util.validation import check_square


def host_potrf(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor via LAPACK (non-destructive)."""
    check_square("a", a)
    return np.linalg.cholesky(a)


def host_blocked_potrf(a: np.ndarray, block_size: int) -> np.ndarray:
    """Left-looking blocked Cholesky on the host, in place.

    Runs the *identical* operation sequence as the hybrid driver
    (SYRK → GEMM → POTF2 → TRSM per block column) but without any machine
    simulation, so tests can compare the simulated driver's numerics
    bit-for-bit against an independent implementation of the same
    algorithm, and both against LAPACK.
    """
    m = BlockedMatrix(a, block_size)
    nb = m.nb
    for j in range(nb):
        if j > 0:
            dense.syrk_update(m.block(j, j), m.block_row(j, 0, j))
            if j + 1 < nb:
                dense.gemm_update(
                    m.panel(j + 1, nb, j, j + 1),
                    m.panel(j + 1, nb, 0, j),
                    m.block_row(j, 0, j),
                )
        dense.potf2(m.block(j, j), block_index=j)
        if j + 1 < nb:
            dense.trsm_right_lt(m.panel(j + 1, nb, j, j + 1), m.block(j, j))
    return np.tril(a)


def factorization_residual(a_original: np.ndarray, ell: np.ndarray) -> float:
    """Relative residual ‖L·Lᵀ − A‖_F / ‖A‖_F."""
    residual = ell @ ell.T
    residual -= a_original
    return float(np.linalg.norm(residual) / np.linalg.norm(a_original))
