"""The weighted-checksum code and its one decoder, for any checksum count.

Section IV-A notes that "generally, m+1 column/row checksums could locate
and correct up to m errors per column/row" before settling on m=1.  This
module implements that code for every checksum count r = m+1 and makes its
real limits explicit:

- with r checksums, up to **⌊r/2⌋ errors at unknown rows** per column are
  located and corrected (2t syndromes are needed for t unknown locations —
  the paper's r = 2 case, one error located by δ₂/δ₁, is t = 1);
- up to **r − 1 errors at known rows** (erasures — e.g. rows whose
  snapshot CRC failed) are corrected, the reading under which the paper's
  claim is exact; k erasures and t unknown errors fit while k + 2t ≤ r;
- anything beyond is *detected* and escalates to a restart rather than a
  guess.

**Encoding.**  Weight vectors are Vandermonde rows ``v_t = [1ᵗ, 2ᵗ, …, Bᵗ]``
for t = 0..r−1; for r = 2 these are exactly the paper's v₁ = 1, v₂ = 1..B.
For a column holding errors e_i at (1-based) rows r_i the syndromes are the
power sums ``S_t = Σ e_i · r_iᵗ``.

**Decoding** (:meth:`MultiErrorCodec.verify_and_correct`, the one decoder
of both engines and of salvage).  A checksum element is out of tolerance
unless ``|δ| <= rtol·(W·|tile|) + atol`` (:meth:`MultiErrorCodec.tolerance`,
the one detection threshold), so a NaN element is out, and a tolerance
that is not finite restarts.  Erased rows are zeroed and solved from the
first k stored checksums; the erasure locator ``Γ(x) = Π(x − xᵢ)`` over
them folds their unknown values out of the syndromes, leaving r − k
*modified* syndromes that are power sums of the unknown errors alone
(with k = 0 they are the syndromes).  Per flagged column:

====================================  =====================================
exactly one checksum row out, and no  that strip element is corrupt:
erased rows                           refresh it from the data
any other flagged column              locate the fewest errors, at most
                                      ⌊(r − k)/2⌋, none at an erased row:
                                      one error at row S₁/S₀ (within
                                      :data:`ROW_SLACK` of an integer),
                                      t ≥ 2 at the roots of the Prony
                                      locator polynomial
erased and located elements           reconstructed from the stored
                                      checksums and the column's other
                                      elements
====================================  =====================================

The tile is then confirmed against a tolerance recomputed from the
corrected tile, with no slack that grows with the corruption removed: two
errors of which one hides under the other's rounding leave a residue the
confirm sees.  Anything else raises :class:`UnrecoverableError`.

The update rules of the two-checksum scheme apply to any strip height
(all four operations act by right-multiplication/subtraction), so this
codec slots under the same drivers; ``benchmarks/test_ablation_checksums.py``
measures how overhead grows with the checksum count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.util.exceptions import UnrecoverableError
from repro.util.validation import check_positive, require


@lru_cache(maxsize=64)
def vandermonde_weights(block_size: int, n_checksums: int) -> np.ndarray:
    """The (m+1)×B weight matrix ``V[t, j] = (j+1)^t`` (cached, read-only)."""
    check_positive("block_size", block_size)
    require(n_checksums >= 2, "need at least two checksums to locate errors")
    require(
        n_checksums <= block_size,
        "more checksums than rows makes no sense",
    )
    cols = np.arange(1, block_size + 1, dtype=np.float64)
    v = cols[None, :] ** np.arange(n_checksums, dtype=np.float64)[:, None]
    v.setflags(write=False)
    return v


def encode_strip(tile: np.ndarray, n_checksums: int = 2) -> np.ndarray:
    """The (m+1)×B column-checksum strip of one tile (pure numerics).

    The canonical single-tile encode — ``repro.core.checksum`` re-exports
    it, and :func:`repro.core.batchverify.encode` reproduces it
    bit-for-bit over stacked batches.
    """
    return vandermonde_weights(tile.shape[0], n_checksums) @ tile


#: Tolerated distance of a located row from an integer: the paper's δ₂/δ₁
#: and every root of the Prony locator polynomial.
ROW_SLACK = 0.05


@dataclass(frozen=True)
class ColumnCorrection:
    """One decoded column: the data rows (0-based) it repaired with their
    error magnitudes, and the checksum rows it refreshed from the data."""

    column: int
    rows: tuple[int, ...]
    magnitudes: tuple[float, ...]
    refreshed: tuple[int, ...] = ()


class MultiErrorCodec:
    """Encode / verify / correct with ``n_checksums`` weighted checksums.

    *rtol* and *atol* set the detection threshold (:meth:`tolerance`): the
    runs use ``atol = 1e-12``, salvage a looser floor
    (:data:`repro.recovery.salvage.SALVAGE_ATOL`).
    """

    def __init__(
        self,
        block_size: int,
        n_checksums: int = 2,
        rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> None:
        self.block_size = block_size
        self.n_checksums = n_checksums
        self.rtol = rtol
        self.atol = atol
        self.weights = vandermonde_weights(block_size, n_checksums)

    @property
    def correctable_unknown(self) -> int:
        """Errors per column correctable without location hints: ⌊r/2⌋."""
        return self.n_checksums // 2

    @property
    def correctable_erasures(self) -> int:
        """Errors per column correctable at known rows: m (= checksums − 1).

        This is the reading under which the paper's "m+1 checksums correct
        m errors" is exact.
        """
        return self.n_checksums - 1

    def mixed_capacity(self, k_erasures: int) -> int:
        """Unknown errors correctable per column alongside *k* erased rows.

        Each erased row consumes one checksum; each unknown error needs
        two (locate + magnitude): k + 2t ≤ r.
        """
        require(k_erasures >= 0, "negative erasure count")
        return max(0, (self.n_checksums - k_erasures) // 2)

    # -- encoding ------------------------------------------------------------

    def encode(self, tile: np.ndarray) -> np.ndarray:
        require(tile.shape[0] == self.block_size, "tile height mismatch")
        return self.weights @ tile

    def tolerance(self, magnitudes: np.ndarray) -> np.ndarray:
        """The detection threshold ``rtol·(W·|tile|) + atol`` of each checksum
        element, relative to the same weighted sum of magnitudes that
        produced the checksum.

        *magnitudes* is ``|tile|`` or a stack of them (k×B×B).  The
        batched detector and every verdict of this codec use this one
        rule; it is written as ``t = W @ |X|; t *= rtol; t += atol`` so a
        stacked and a single-tile call give the same bits.
        """
        tol = np.matmul(self.weights, magnitudes)
        tol *= self.rtol
        tol += self.atol
        return tol

    # -- decoding ----------------------------------------------------------------

    def verify_and_correct(
        self, tile: np.ndarray, strip: np.ndarray, erased: Sequence[int] = ()
    ) -> list[ColumnCorrection]:
        """Detect, locate and correct one tile against its strip, in place.

        *erased* lists the rows (0-based) whose values are lost, such as
        rows whose snapshot CRC failed; they are rebuilt in every column.
        Returns one :class:`ColumnCorrection` per flagged column (the
        rules are in the module docstring); raises
        :class:`UnrecoverableError` for more than :attr:`correctable_erasures`
        erased rows, when a column cannot be explained by a corrupt
        checksum element or by at most ⌊(r − k)/2⌋ errors, or when the
        corrected tile fails its confirm.
        """
        require(
            strip.shape == (self.n_checksums, tile.shape[1]),
            "strip shape mismatch",
        )
        erased = list(erased)
        k = len(erased)
        require(len(set(erased)) == k, "duplicate erased rows")
        if k > self.correctable_erasures:
            raise UnrecoverableError(
                f"{k} erased rows exceed the {self.correctable_erasures}-erasure "
                f"capacity of {self.n_checksums} checksums"
            )
        tile[erased] = 0.0
        fresh = self.encode(tile)
        tol = self.tolerance(np.abs(tile))
        if not np.isfinite(tol).all():
            # An overflowed weighted sum (a top-exponent flip) or a NaN makes
            # every comparison against this tolerance vacuous: a corrupt data
            # element would pass as clean or be blamed on a checksum row.
            raise UnrecoverableError("checksum recalculation is not finite")
        syndromes = fresh - strip
        if k:
            # With the erased rows zeroed, −S_t (t < k) is their share of
            # stored checksum t: one k×k solve rebuilds them in every
            # column, and a flagged column is rebuilt again below.
            tile[erased] = np.linalg.solve(self.weights[:k, erased], -syndromes[:k])
            # Γ(x) = Σ gamma[c]·xᶜ vanishes at every erased row, so the folded
            # syndromes Σ_c gamma[c]·S_{u+c} hold the unknown errors alone.
            gamma = np.poly(np.add(erased, 1.0))[::-1]
            fold = np.zeros((self.n_checksums - k, self.n_checksums))
            for u in range(self.n_checksums - k):
                fold[u, u : u + k + 1] = gamma
            syndromes, tol = fold @ syndromes, np.abs(fold) @ tol
        bad = ~(np.abs(syndromes) <= tol)
        corrections: list[ColumnCorrection] = []
        for col in np.flatnonzero(bad.any(axis=0)).tolist():
            out = np.flatnonzero(bad[:, col])
            if out.size == 1 and not k:
                # A data error moves every syndrome; one alone is its own
                # checksum element (a storage error in the strip).  Folded
                # syndromes mix the strip rows, so this needs k = 0.
                row = int(out[0])
                strip[row, col] = fresh[row, col]
                corrections.append(ColumnCorrection(col, (), (), refreshed=(row,)))
                continue
            rows = self._locate(syndromes[:, col], tol[:, col], col, erased)
            corrupt = tile[rows, col]
            self._reconstruct(tile, strip, col, [*erased, *rows])
            corrections.append(
                ColumnCorrection(
                    col, tuple(rows), tuple((corrupt - tile[rows, col]).tolist())
                )
            )
        if (corrections or k) and not (
            np.abs(self.encode(tile) - strip) <= self.tolerance(np.abs(tile))
        ).all():
            raise UnrecoverableError("corruption persists after correction")
        return corrections

    def _locate(
        self, s: np.ndarray, tol: np.ndarray, col: int, erased: Sequence[int]
    ) -> list[int]:
        """Rows (0-based) of the fewest errors, at most ⌊len(s)/2⌋ and none
        of them *erased*, that explain one column's (modified) syndromes *s*.

        The syndromes past the first 2t must agree with a t-error
        candidate to within 1e-8 of their size.  That only chooses t: the
        rounding of a huge error can hide a small one here, and the
        confirm after reconstruction catches it.
        """
        reason = "every checksum is spent on the erased rows"
        for t in range(1, s.shape[0] // 2 + 1):
            if t == 1:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = s[1] / s[0]  # S₀ may be clean when r ≥ 3
                if not math.isfinite(ratio):
                    reason = f"locator {ratio} is not finite"
                    continue
                row = round(ratio)
                if abs(ratio - row) > ROW_SLACK or not 1 <= row <= self.block_size:
                    reason = (
                        f"locator {ratio:.3f} is not a valid row — more than "
                        "one error in this column"
                    )
                    continue
                rows, mags = np.array([row - 1]), s[:1]
            else:
                got = self._try_k_errors(s, t)
                if got is None:
                    reason = f"syndromes not explainable by <= {t} errors"
                    continue
                rows, mags = got
            if not set(erased).isdisjoint(rows.tolist()):
                # Γ vanishes at an erased row: an "error" there is aliasing.
                reason = "an error located at an erased row"
                continue
            powers = np.arange(2 * t, s.shape[0], dtype=np.float64)
            explained = ((rows[None, :] + 1.0) ** powers[:, None]) @ mags
            rest = s[2 * t :]
            if (np.abs(rest - explained) <= np.maximum(tol[2 * t :], 1e-8 * np.abs(rest))).all():
                return [int(r) for r in rows]
            reason = f"syndromes not explainable by <= {t} errors"
        raise UnrecoverableError(f"column {col}: {reason}")

    def _reconstruct(
        self, tile: np.ndarray, strip: np.ndarray, col: int, rows: list[int]
    ) -> None:
        """Solve the erased and located elements from the first
        ``len(rows)`` stored checksums minus the column's other elements.

        No corrupt value enters the sums, so the true values come back
        with no cancellation even when the corruption is astronomically
        larger than the data (a top-exponent bit flip); subtracting the
        error would lose them to rounding.
        """
        keep = np.ones(self.block_size, dtype=bool)
        keep[rows] = False
        w = self.weights[: len(rows)]
        rhs = strip[: len(rows), col] - (w[:, keep] * tile[keep, col]).sum(axis=1)
        tile[rows, col] = np.linalg.solve(w[:, rows], rhs)

    # -- syndrome decoding ----------------------------------------------------------

    def _try_k_errors(
        self, s: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Candidate k-error explanation from 2k syndromes, or None."""
        if 2 * k > s.shape[0]:
            return None
        hankel = np.empty((k, k))
        rhs = np.empty(k)
        for i in range(k):
            hankel[i] = s[i : i + k]
            rhs[i] = -s[i + k]
        try:
            coeffs = np.linalg.solve(hankel, rhs)
            roots = np.roots(np.concatenate(([1.0], coeffs[::-1])))
        except np.linalg.LinAlgError:
            return None  # a singular Hankel system or a non-finite polynomial
        real_scale = max(1.0, float(np.abs(roots.real).max(initial=1.0)))
        if np.abs(roots.imag).max(initial=0.0) > 1e-6 * real_scale:
            return None
        locs = np.round(roots.real).astype(int)
        if len(set(locs.tolist())) != k:
            return None
        if not ((1 <= locs) & (locs <= self.block_size)).all():
            return None
        if np.abs(roots.real - locs).max() > ROW_SLACK:
            return None
        vand = locs[None, :].astype(np.float64) ** np.arange(k)[:, None]
        try:
            mags = np.linalg.solve(vand, s[:k])
        except np.linalg.LinAlgError:
            return None
        return locs - 1, mags


def recalc_flops(block_size: int, n_checksums: int) -> int:
    """Flops to recompute an (m+1)-row strip of one tile: 2(m+1)B²."""
    return 2 * n_checksums * block_size * block_size
