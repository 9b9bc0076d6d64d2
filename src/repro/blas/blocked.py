"""Tiled view of a dense matrix: the unit the hybrid driver and ABFT work on.

MAGMA's blocked Cholesky treats the matrix as an ``nb × nb`` grid of
``B × B`` tiles.  :class:`BlockedMatrix` wraps one contiguous float64 array
and exposes zero-copy tile views, so kernels mutate the underlying storage
directly (and injected storage faults in that storage are visible to every
later read, which is the whole point of the paper).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.util.validation import check_block_size, check_dtype, check_square


class BlockedMatrix:
    """A square float64 matrix partitioned into square tiles.

    Parameters
    ----------
    data:
        The backing ``n × n`` float64 array.  Held by reference, not copied.
    block_size:
        Tile order B; must divide n exactly.
    """

    def __init__(self, data: np.ndarray, block_size: int) -> None:
        n = check_square("data", data)
        check_dtype("data", data)
        self._data = data
        self.n = n
        self.block_size = block_size
        self.nb = check_block_size(n, block_size)

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int, block_size: int) -> "BlockedMatrix":
        """A new all-zero blocked matrix of order *n*."""
        return cls(np.zeros((n, n), dtype=np.float64), block_size)

    def copy(self) -> "BlockedMatrix":
        """Deep copy (fresh backing storage)."""
        return BlockedMatrix(self._data.copy(), self.block_size)

    # -- access ------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The full backing array (a reference, not a copy)."""
        return self._data

    def block(self, i: int, j: int) -> np.ndarray:
        """Zero-copy view of tile (i, j)."""
        b = self.block_size
        self._check_index(i, j)
        return self._data[i * b : (i + 1) * b, j * b : (j + 1) * b]

    def block_row(self, i: int, j0: int, j1: int) -> np.ndarray:
        """View of tiles (i, j0..j1-1) as one ``B × (j1-j0)·B`` panel."""
        b = self.block_size
        self._check_index(i, max(j0, 0))
        return self._data[i * b : (i + 1) * b, j0 * b : j1 * b]

    def block_col(self, i0: int, i1: int, j: int) -> np.ndarray:
        """View of tiles (i0..i1-1, j) as one ``(i1-i0)·B × B`` panel."""
        b = self.block_size
        self._check_index(max(i0, 0), j)
        return self._data[i0 * b : i1 * b, j * b : (j + 1) * b]

    def panel(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """View of the rectangular tile range [i0, i1) × [j0, j1)."""
        b = self.block_size
        return self._data[i0 * b : i1 * b, j0 * b : j1 * b]

    def lower_blocks(self) -> Iterator[tuple[int, int]]:
        """Tile indices (i, j) of the lower triangle, column-major order."""
        for j in range(self.nb):
            for i in range(j, self.nb):
                yield (i, j)

    # -- whole-matrix helpers ----------------------------------------------

    def lower_triangle(self) -> np.ndarray:
        """Copy of the element-wise lower triangle (strict upper zeroed)."""
        return np.tril(self._data)

    def zero_upper(self) -> None:
        """Zero the strict upper triangle in place, with the ``+0.0`` that
        ``np.tril`` writes: the tiles right of the diagonal, then the strict
        upper part of each diagonal tile."""
        b = self.block_size
        strict_upper = ~np.tri(b, dtype=bool)
        for i in range(self.nb):
            self._data[i * b : (i + 1) * b, (i + 1) * b :] = 0.0
            self.block(i, i)[strict_upper] = 0.0

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.nb and 0 <= j < self.nb):
            # IndexError is the contract __getitem__-style accessors must
            # keep (callers use standard sequence-protocol handling).
            raise IndexError(  # noqa: RPL003
                f"tile ({i}, {j}) out of range for {self.nb}×{self.nb} grid"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockedMatrix(n={self.n}, block_size={self.block_size}, "
            f"nb={self.nb})"
        )
