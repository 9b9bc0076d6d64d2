"""The weighted-checksum code and its one decoder, for any checksum count.

Section IV-A notes that "generally, m+1 column/row checksums could locate
and correct up to m errors per column/row" before settling on m=1.  This
module implements that code for every checksum count r = m+1 and makes its
real limits explicit:

- with r checksums, up to **⌊r/2⌋ errors at unknown rows** per column are
  located and corrected (2t syndromes are needed for t unknown locations —
  the paper's r = 2 case, one error located by δ₂/δ₁, is t = 1);
- up to **r − 1 errors at known rows** (erasures — e.g. rows whose
  snapshot CRC failed) are corrected by solving a Vandermonde system
  (:meth:`MultiErrorCodec.correct_erasures`, :meth:`~MultiErrorCodec.correct_mixed`);
- anything beyond is *detected* and escalates to a restart rather than a
  guess.

**Encoding.**  Weight vectors are Vandermonde rows ``v_t = [1ᵗ, 2ᵗ, …, Bᵗ]``
for t = 0..r−1; for r = 2 these are exactly the paper's v₁ = 1, v₂ = 1..B.
For a column holding errors e_i at (1-based) rows r_i the syndromes are the
power sums ``S_t = Σ e_i · r_iᵗ``.

**Decoding** (:meth:`MultiErrorCodec.verify_and_correct`, the one decoder
of both engines and of salvage).  A checksum element is out of tolerance
unless ``|δ| <= rtol·(W·|tile|) + atol`` (:meth:`MultiErrorCodec.tolerance`,
the one detection threshold), so a NaN element is out.  Per flagged column:

====================================  =====================================
exactly one checksum row out          that strip element is corrupt:
                                      refresh it from the data
any other flagged column              locate the fewest errors, at most
                                      ⌊r/2⌋: one error at row δ₂/δ₁ (within
                                      :data:`ROW_SLACK` of an integer),
                                      t ≥ 2 at the roots of the Prony
                                      locator polynomial
each located element                  reconstructed from the stored
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


#: Historical codec-facing name for :func:`encode_strip`.
encode = encode_strip


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
        """Unknown errors correctable per column alongside *k* erasure rows.

        Each known erasure consumes one checksum; each unknown error needs
        two (locate + magnitude): k + 2t ≤ m+1.
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

    # -- unknown-location correction -------------------------------------------

    def verify_and_correct(
        self, tile: np.ndarray, strip: np.ndarray
    ) -> list[ColumnCorrection]:
        """Detect, locate and correct one tile against its strip, in place.

        Returns one :class:`ColumnCorrection` per flagged column (the
        rules are in the module docstring); raises
        :class:`UnrecoverableError` when a column cannot be explained by a
        corrupt checksum element or by at most :attr:`correctable_unknown`
        errors, or when the corrected tile fails its confirm.
        """
        require(
            strip.shape == (self.n_checksums, tile.shape[1]),
            "strip shape mismatch",
        )
        fresh = self.encode(tile)
        tol = self.tolerance(np.abs(tile))
        if not np.isfinite(tol).all():
            # An overflowed weighted sum (a top-exponent flip) or a NaN makes
            # every comparison against this tolerance vacuous: a corrupt data
            # element would pass as clean or be blamed on a checksum row.
            raise UnrecoverableError("checksum recalculation is not finite")
        syndromes = fresh - strip
        bad = ~(np.abs(syndromes) <= tol)
        corrections: list[ColumnCorrection] = []
        for col in np.flatnonzero(bad.any(axis=0)).tolist():
            out = np.flatnonzero(bad[:, col])
            if out.size == 1:
                # A data error moves every syndrome; one alone is its own
                # checksum element (a storage error in the strip).
                row = int(out[0])
                strip[row, col] = fresh[row, col]
                corrections.append(ColumnCorrection(col, (), (), refreshed=(row,)))
                continue
            rows = self._locate(syndromes[:, col], tol[:, col], col)
            corrupt = tile[rows, col]
            self._reconstruct(tile, strip, col, rows)
            corrections.append(
                ColumnCorrection(
                    col, tuple(rows), tuple((corrupt - tile[rows, col]).tolist())
                )
            )
        if corrections and not (
            np.abs(self.encode(tile) - strip) <= self.tolerance(np.abs(tile))
        ).all():
            raise UnrecoverableError("corruption persists after correction")
        return corrections

    def _locate(self, s: np.ndarray, tol: np.ndarray, col: int) -> list[int]:
        """Rows (0-based) of the fewest errors, at most ⌊r/2⌋, that explain
        one column's syndromes *s*.

        The syndromes past the first 2t must agree with a t-error
        candidate to within 1e-8 of their size.  That only chooses t: the
        rounding of a huge error can hide a small one here, and the
        confirm after reconstruction catches it.
        """
        reason = ""
        for t in range(1, self.correctable_unknown + 1):
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
            powers = np.arange(2 * t, self.n_checksums, dtype=np.float64)
            explained = ((rows[None, :] + 1.0) ** powers[:, None]) @ mags
            rest = s[2 * t :]
            if (np.abs(rest - explained) <= np.maximum(tol[2 * t :], 1e-8 * np.abs(rest))).all():
                return [int(r) for r in rows]
            reason = f"syndromes not explainable by <= {t} errors"
        raise UnrecoverableError(f"column {col}: {reason}")

    def _reconstruct(
        self, tile: np.ndarray, strip: np.ndarray, col: int, rows: list[int]
    ) -> None:
        """Solve the located elements from the first ``len(rows)`` stored
        checksums minus the column's other elements.

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

    def _recheck(
        self, tile: np.ndarray, strip: np.ndarray, slack: np.ndarray | None = None
    ) -> None:
        """Post-correction consistency gate.

        *slack* (per column) widens the tolerance by a few ulps of the
        syndrome magnitude the correction just removed: subtracting an
        O(S) error leaves O(ε·S) float residue, which must not read as
        "correction failed" when the data itself is O(1).  A genuine
        miscorrection leaves O(S) residue — far above the slack.
        """
        fresh2 = self.encode(tile)
        tol2 = self.tolerance(np.abs(tile))
        if slack is not None:
            tol2 = tol2 + slack[None, :]
        if (np.abs(fresh2 - strip) > tol2).any():
            raise UnrecoverableError(
                "multi-error correction did not restore consistency"
            )

    @staticmethod
    def _syndrome_slack(syndromes: np.ndarray) -> np.ndarray:
        """Per-column recheck slack: ~64 ulps of the corrected magnitude."""
        return 64.0 * np.finfo(np.float64).eps * np.abs(syndromes).max(axis=0)

    # -- erasure correction ------------------------------------------------------

    def correct_erasures(
        self,
        tile: np.ndarray,
        strip: np.ndarray,
        rows: list[int],
        extra_slack: np.ndarray | None = None,
    ) -> int:
        """Correct errors at *known* rows (0-based), every column, in place.

        Solves the ``len(rows)``-unknown Vandermonde system per column from
        the syndromes; up to :attr:`correctable_erasures` rows.  Returns
        the number of elements changed beyond tolerance.  *extra_slack*
        (per column) widens the post-solve recheck — the mixed decode
        passes the original syndromes' ulp budget through, since its
        unknown-error subtraction happened before this call.
        """
        k = len(rows)
        require(0 < k <= self.correctable_erasures, "too many erasure rows")
        require(len(set(rows)) == k, "duplicate erasure rows")
        locs = np.asarray(rows, dtype=np.float64) + 1.0
        vand = locs[None, :] ** np.arange(self.n_checksums)[:, None]
        syndromes = self.encode(tile) - strip
        # least-squares: m+1 equations, k ≤ m unknowns per column
        mags, *_ = np.linalg.lstsq(vand, syndromes, rcond=None)
        tol = self.tolerance(np.abs(tile))
        changed = int((np.abs(mags) > tol[0][None, :]).sum())
        for i, row in enumerate(rows):
            tile[row, :] -= mags[i]
        # One step of iterative refinement: the first solve's rounding
        # scales with the syndrome magnitude (an astronomically large
        # corruption leaves O(ε·S) residue spread over the reconstructed
        # rows), so re-solve against the now-tiny residual syndromes.
        resid = self.encode(tile) - strip
        polish, *_ = np.linalg.lstsq(vand, resid, rcond=None)
        for i, row in enumerate(rows):
            tile[row, :] -= polish[i]
        slack = self._syndrome_slack(syndromes)
        if extra_slack is not None:
            slack = np.maximum(slack, extra_slack)
        self._recheck(tile, strip, slack)
        return changed

    # -- errors-and-erasures decoding -----------------------------------------------

    def correct_mixed(
        self, tile: np.ndarray, strip: np.ndarray, rows: list[int]
    ) -> tuple[int, list[ColumnCorrection]]:
        """Correct *known*-row erasures plus unknown-row errors, in place.

        The classic errors-and-erasures split of the m+1 checksums: the
        erasure locator ``Γ(x) = Π(x − x_i)`` over the *k* known rows
        annihilates their (arbitrary) contributions from the syndromes,
        leaving ``m+1−k`` *modified* syndromes ``T_u = Σ_c g_c·S_{u+c}``
        that are pure power sums of the unknown errors with pseudo-
        magnitudes ``μ = e·Γ(y)``.  Prony decoding on T locates up to
        ``⌊(m+1−k)/2⌋`` unknown errors; the erased rows are then solved as
        usual.  Total capacity per column: ``k + 2t ≤ m+1``.

        Returns ``(erased elements changed, unknown-error corrections)``;
        raises :class:`UnrecoverableError` when a column's modified
        syndromes are not explainable within capacity.
        """
        k = len(rows)
        require(len(set(rows)) == k, "duplicate erasure rows")
        require(
            strip.shape == (self.n_checksums, tile.shape[1]),
            "strip shape mismatch",
        )
        if k > self.correctable_erasures:
            # A decode outcome, not caller misuse: the loss pattern simply
            # exceeds what m+1 checksums can reconstruct.
            raise UnrecoverableError(
                f"{k} erased rows exceed the {self.correctable_erasures}-erasure "
                f"capacity of {self.n_checksums} checksums"
            )
        if k == 0:
            return 0, self.verify_and_correct(tile, strip)
        # Γ(x) coefficients, ascending: Γ(x) = Σ_c g[c]·x^c.
        locator = np.array([1.0])
        for row in rows:
            locator = np.convolve(locator, [-(row + 1.0), 1.0])
        n_mod = self.n_checksums - k
        t_max = n_mod // 2
        syndromes = self.encode(tile) - strip
        tol = self.tolerance(np.abs(tile))
        t_mod = np.zeros((n_mod, tile.shape[1]))
        tol_mod = np.zeros((n_mod, tile.shape[1]))
        for u in range(n_mod):
            for c, g_c in enumerate(locator):
                t_mod[u] += g_c * syndromes[u + c]
                tol_mod[u] += abs(g_c) * tol[u + c]
        corrections: list[ColumnCorrection] = []
        bad_cols = np.nonzero((np.abs(t_mod) > tol_mod).any(axis=0))[0]
        for col in bad_cols:
            corr = self._decode_mixed_column(
                t_mod[:, col], tol_mod[:, col], locator, rows, int(col), t_max
            )
            for row, mag in zip(corr.rows, corr.magnitudes):
                tile[row, col] -= mag
            corrections.append(corr)
        changed = self.correct_erasures(
            tile, strip, list(rows), extra_slack=self._syndrome_slack(syndromes)
        )
        # Per-column polish: the Prony magnitudes carry O(ε·S) rounding
        # that the whole-row erasure solve cannot absorb — the located
        # rows sit outside its span.  One combined solve over
        # erased ∪ located rows (k + t ≤ m unknowns, m+1 equations)
        # against the residual syndromes removes it.
        if corrections:
            powers = np.arange(self.n_checksums, dtype=np.float64)[:, None]
            resid = self.encode(tile) - strip
            for corr in corrections:
                combined = sorted(set(rows) | set(corr.rows))
                locs = np.asarray(combined, dtype=np.float64) + 1.0
                vand = locs[None, :] ** powers
                delta, *_ = np.linalg.lstsq(vand, resid[:, corr.column], rcond=None)
                for i, row in enumerate(combined):
                    tile[row, corr.column] -= delta[i]
        return changed, corrections

    def _decode_mixed_column(
        self,
        t_mod: np.ndarray,
        tol: np.ndarray,
        locator: np.ndarray,
        erased: list[int],
        col: int,
        t_max: int,
    ) -> ColumnCorrection:
        """Prony decoding on the modified syndromes; smallest count wins."""
        erased_set = set(erased)
        powers = np.arange(t_mod.shape[0], dtype=np.float64)
        for k in range(1, t_max + 1):
            got = self._try_k_errors(t_mod, k)
            if got is None:
                continue
            found_rows, pseudo = got
            if any(int(r) in erased_set for r in found_rows):
                continue  # an "unknown" error at an erased row is aliasing
            explained = np.zeros_like(t_mod)
            for r, e in zip(found_rows, pseudo):
                explained += e * (r + 1.0) ** powers
            slack = np.maximum(tol, 1e-8 * np.abs(t_mod) + self.atol)
            if not (np.abs(t_mod - explained) <= slack).all():
                continue
            gamma = np.polyval(locator[::-1], found_rows + 1.0)
            mags = pseudo / gamma
            return ColumnCorrection(
                column=col,
                rows=tuple(int(r) for r in found_rows),
                magnitudes=tuple(float(e) for e in mags),
            )
        raise UnrecoverableError(
            f"column {col}: modified syndromes not explainable by "
            f"<= {t_max} unknown errors beyond {len(erased)} erasures"
        )

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
