"""Coordinate-level corruption tracking for shadow-mode runs.

At paper scale (n up to 30720) we cannot afford the real arithmetic, but the
capability experiments (Tables VII/VIII) hinge on *whether corruption was
still correctable when a scheme finally verified the block*.  TaintState
answers that question symbolically.

A block's taint is a set of corrupted coordinates, compressed into three
layers (exact points, whole corrupted rows, whole corrupted columns, or
"everything").  The propagation rules below are the data-flow of the four
kernels; they are *conservative upward* — propagation never under-reports
corruption, so shadow mode never claims a correction the real numerics
could not have made.

Correctability criterion (two weighted column checksums, as in Section
IV-C): a block is correctable iff every block column contains at most one
corrupted element and the block's checksum strip itself is clean; a dirty
checksum strip over clean data is also repairable (by re-encoding).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field


@dataclass(slots=True)
class TaintState:
    """Corruption of one B×B tile (or one 2×B checksum strip).

    A state may be *bound* to an owning buffer (see
    :meth:`repro.hetero.memory.DeviceBuffer.taint_of`); every mutator then
    notifies the owner so it can maintain an incremental dirty-key set
    instead of scanning all states on each ``any_taint`` query.  The
    owner is held weakly: the buffer already holds its states, and a
    strong reference back would make every buffer with a bound state a
    cycle that keeps a real-mode matrix alive until the cyclic collector
    runs.
    """

    points: set[tuple[int, int]] = field(default_factory=set)
    rows: set[int] = field(default_factory=set)
    cols: set[int] = field(default_factory=set)
    full: bool = False
    _owner: object = field(default=None, repr=False, compare=False)
    _key: tuple[int, int] | None = field(default=None, repr=False, compare=False)

    def bind(self, owner: object, key: tuple[int, int]) -> None:
        """Attach to *owner*; subsequent mutations call ``owner.mark_taint``."""
        self._owner = weakref.ref(owner)
        self._key = key

    def _notify(self) -> None:
        owner = None if self._owner is None else self._owner()
        if owner is not None:
            owner.mark_taint(self._key, not self.is_clean())

    # -- basic queries -------------------------------------------------------

    def is_clean(self) -> bool:
        return not (self.points or self.rows or self.cols or self.full)

    def correctable(self, max_per_column: int = 1) -> bool:
        """Can the checksum code fix every corrupted element?

        *max_per_column* is the code's per-column capacity: 1 for the
        paper's two-checksum scheme, ``r//2`` for the r-checksum
        generalization (:mod:`repro.core.multierror`).

        - ``full`` or any fully-corrupted *column* → B ≥ capacity errors in
          that column (B > capacity always in practice).
        - Each fully-corrupted row adds one error to *every* column.
        - Points add per-column errors on rows not already counted as
          full rows.
        """
        if self.full or self.cols:
            return False
        if len(self.rows) > max_per_column:
            return False
        per_col: dict[int, int] = {}
        for pr, c in self.points:
            if pr in self.rows:
                continue  # already counted via the full row
            per_col[c] = per_col.get(c, 0) + 1
            if per_col[c] + len(self.rows) > max_per_column:
                return False
        return True

    def clear(self) -> None:
        """Remove all taint (a successful correction)."""
        self.points.clear()
        self.rows.clear()
        self.cols.clear()
        self.full = False
        self._notify()

    # -- construction ----------------------------------------------------------

    def add_point(self, r: int, c: int) -> None:
        self.points.add((r, c))
        self._notify()

    def merge(self, other: "TaintState") -> None:
        """In-place union with *other*."""
        self.full = self.full or other.full
        if self.full:
            self.points.clear()
            self.rows.clear()
            self.cols.clear()
            self._notify()
            return
        self.points |= other.points
        self.rows |= other.rows
        self.cols |= other.cols
        self._notify()

    # -- kernel propagation ------------------------------------------------------
    #
    # For C -= A @ B^T (GEMM; SYRK is the A == B case):
    #   a corrupted A[r, k] pollutes row r of C (every column);
    #   a corrupted B[c, k] pollutes column c of C (every row).

    def propagated_as_left_factor(self) -> "TaintState":
        """Taint contributed to the GEMM/SYRK output by this block as A."""
        if self.full or self.cols:
            # A whole corrupted column of A touches every row of C.
            return TaintState(full=True)
        out = TaintState()
        out.rows = {r for r, _ in self.points} | set(self.rows)
        return out

    def propagated_as_right_factor(self) -> "TaintState":
        """Taint contributed to the GEMM output by this block as B."""
        if self.full or self.cols:
            return TaintState(full=True)
        out = TaintState()
        out.cols = {r for r, _ in self.points} | set(self.rows)
        return out

    def propagated_through_trsm(self) -> "TaintState":
        """Taint of ``X = B · L^{-T}`` contributed by the B operand.

        The solve spreads an error in B[r, c] across columns c..B-1 of
        row r (an inf or NaN also reaches the earlier columns of its
        32-column block); conservatively: the whole row r.
        """
        if self.full or self.cols:
            return TaintState(full=True)
        out = TaintState()
        out.rows = {r for r, _ in self.points} | set(self.rows)
        return out

    @staticmethod
    def from_corrupt_triangular_factor() -> "TaintState":
        """Output taint when the triangular operand (L) of TRSM, or the
        input of POTF2, is corrupted: the result is garbage everywhere."""
        return TaintState(full=True)
