"""Generalized weighted checksums: the paper's "m+1 checksums" extension.

Section IV-A notes that "generally, m+1 column/row checksums could locate
and correct up to m errors per column/row" before settling on m=1.  This
module implements the general code and makes its real information-theoretic
limits explicit:

- with m+1 checksums, up to **m errors at known rows** (erasures — e.g.
  a row flagged corrupt by a neighbouring tile's diagnosis) are corrected
  by solving a Vandermonde system;
- up to **⌊(m+1)/2⌋ errors at unknown rows** are located and corrected by
  Prony/Reed-Solomon-style syndrome decoding (2t syndromes are needed for
  t unknown locations — the paper's m=1 case, one error from two
  checksums, is exactly t=1, 2t=2);
- anything beyond is *detected* (the syndromes are not explainable) and
  escalates to a restart rather than a guess.

**Encoding.**  Weight vectors are Vandermonde rows ``v_t = [1ᵗ, 2ᵗ, …, Bᵗ]``
for t = 0..m; for m=1 this reduces exactly to the paper's v₁ = 1,
v₂ = 1..B.  For a column holding errors e_i at (1-based) rows r_i the
syndromes are the power sums ``S_t = Σ e_i · r_iᵗ``.

**Decoding.**  The unknown-location decoder finds the locator polynomial
whose coefficients solve a Hankel system in the syndromes, takes its roots
as candidate rows, solves for magnitudes, and — because this is floating
point, not GF(2^w) — *verifies* the candidate against every syndrome
before touching the data.

The update rules of the two-checksum scheme apply to any strip height
(all four operations act by right-multiplication/subtraction), so this
codec slots under the same drivers; ``benchmarks/test_ablation_checksums.py``
measures how overhead grows with the checksum count.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ColumnCorrection:
    """One decoded column: error rows (0-based) and magnitudes."""

    column: int
    rows: tuple[int, ...]
    magnitudes: tuple[float, ...]


class MultiErrorCodec:
    """Encode / verify / correct with ``n_checksums`` weighted checksums."""

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
        """Errors per column correctable without location hints: ⌊(m+1)/2⌋."""
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

    def _tolerance(self, tile: np.ndarray) -> np.ndarray:
        return self.rtol * (self.weights @ np.abs(tile)) + self.atol

    # -- unknown-location correction -------------------------------------------

    def verify_and_correct(
        self, tile: np.ndarray, strip: np.ndarray
    ) -> list[ColumnCorrection]:
        """Detect, locate and correct errors per column, in place.

        Corrects up to :attr:`correctable_unknown` errors per column;
        raises :class:`UnrecoverableError` when a column's syndromes cannot
        be explained (detection up to ``n_checksums − 1`` errors).
        """
        require(
            strip.shape == (self.n_checksums, tile.shape[1]),
            "strip shape mismatch",
        )
        fresh = self.encode(tile)
        tol = self._tolerance(tile)
        if not np.isfinite(tol).all():
            # Same rule as the two-checksum path: an overflowed tolerance
            # hides every syndrome, so no decode can be trusted.
            raise UnrecoverableError("checksum recalculation is not finite")
        syndromes = fresh - strip
        if not np.isfinite(syndromes).all():
            # A NaN syndrome passes every comparison against a tolerance,
            # and no locator explains an infinite one: restart.
            raise UnrecoverableError("checksum syndrome is not finite")
        corrections: list[ColumnCorrection] = []
        bad_cols = np.nonzero((np.abs(syndromes) > tol).any(axis=0))[0]
        for col in bad_cols:
            corr = self._decode_column(syndromes[:, col], tol[:, col], int(col))
            self._apply(tile, strip, corr)
            corrections.append(corr)
        if bad_cols.size:
            self._recheck(tile, strip, self._syndrome_slack(syndromes))
        return corrections

    def _apply(
        self, tile: np.ndarray, strip: np.ndarray, corr: ColumnCorrection
    ) -> None:
        """Reconstruct each located element from the S₀ checksum and the
        exact sum of the column's other elements (no cancellation even for
        astronomically large corruption — see ``repro.core.correct``)."""
        col = corr.column
        if len(corr.rows) == 1:
            (row,) = corr.rows
            others = np.delete(tile[:, col], row)
            tile[row, col] = strip[0, col] - others.sum()
        else:
            for row, mag in zip(corr.rows, corr.magnitudes):
                tile[row, col] -= mag

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
        tol2 = self._tolerance(tile)
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
        tol = self._tolerance(tile)
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
        tol = self._tolerance(tile)
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

    def _decode_column(
        self, s: np.ndarray, tol: np.ndarray, col: int
    ) -> ColumnCorrection:
        """Prony decoding; smallest error count wins."""
        for k in range(1, self.correctable_unknown + 1):
            got = self._try_k_errors(s, k)
            if got is None:
                continue
            rows, mags = got
            explained = np.zeros_like(s)
            powers = np.arange(self.n_checksums, dtype=np.float64)
            for r, e in zip(rows, mags):
                explained += e * (r + 1.0) ** powers
            slack = np.maximum(tol, 1e-8 * np.abs(s) + self.atol)
            if (np.abs(s - explained) <= slack).all():
                return ColumnCorrection(
                    column=col,
                    rows=tuple(int(r) for r in rows),
                    magnitudes=tuple(float(e) for e in mags),
                )
        raise UnrecoverableError(
            f"column {col}: syndromes not explainable by "
            f"<= {self.correctable_unknown} errors"
        )

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
        except np.linalg.LinAlgError:
            return None
        poly = np.concatenate(([1.0], coeffs[::-1]))
        roots = np.roots(poly)
        real_scale = max(1.0, float(np.abs(roots.real).max(initial=1.0)))
        if np.abs(roots.imag).max(initial=0.0) > 1e-6 * real_scale:
            return None
        locs = np.round(roots.real).astype(int)
        if len(set(locs.tolist())) != k:
            return None
        if not ((1 <= locs) & (locs <= self.block_size)).all():
            return None
        if np.abs(roots.real - locs).max() > 0.05:
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
