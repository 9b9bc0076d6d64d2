"""Classify salvaged state into erasures and repair it via the checksum code.

A salvage is the freshest decodable snapshot of a failed attempt.  Damage
shows up in two independent ways:

- **CRC-failing rows** — transport/storage loss with *known* location.
  Each bad matrix row maps to one erased row in every lower-triangle tile
  of its block row; the strict upper triangle of the row is restored from
  the job's deterministic input (left-looking Cholesky never writes it).
- **Checksum-detectable errors** — corruption that happened *before* the
  CRC stamp (an injected storage fault inside the vulnerability window
  lands in the snapshot with a valid CRC).  Tile-level verification
  against the maintained strips finds and corrects these.

Both decode through the run's one decoder, one call per tile:
:meth:`~repro.core.multierror.MultiErrorCodec.verify_and_correct` with
the tile's erased rows rebuilds them and locates up to ``⌊(r−k)/2⌋``
unknown errors on top.  A tile with no erased rows decodes exactly as in
the run, so a lone corrupt strip element is refreshed from the data.
Anything beyond capacity raises — the caller escalates to a full
restart; a silently wrong factor is never produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.multierror import MultiErrorCodec
from repro.util.exceptions import SalvageError, UnrecoverableError
from repro.util.validation import require

#: Salvage-time verification tolerances: looser than the in-run verifier's
#: (rtol 1e-9) because the maintained strips have drifted through a full
#: prefix of updates, but far below the service's 1e-8 residual gate —
#: corruption that hides under this tolerance also passes the gate.
SALVAGE_RTOL = 1e-8
SALVAGE_ATOL = 1e-10


@dataclass
class Salvage:
    """Everything recovered from one attempt's snapshot segment.

    ``matrix``/``chk`` are parent-owned copies (the arena lease may end
    as soon as this object exists).  ``bad_*_rows`` are global row
    indices whose CRC failed — known-location erasures.
    """

    iteration: int  #: last fully completed outer iteration
    n: int
    block_size: int
    n_checksums: int
    matrix: np.ndarray
    chk: np.ndarray
    bad_matrix_rows: tuple[int, ...]
    bad_chk_rows: tuple[int, ...]
    epoch: int

    @property
    def resume_iteration(self) -> int:
        """First iteration a resumed run must execute."""
        return self.iteration + 1

    @property
    def nb(self) -> int:
        return self.n // self.block_size

    def erasures(self) -> dict[int, list[int]]:
        """Erased in-tile rows per block row (sorted, deduplicated)."""
        out: dict[int, set[int]] = {}
        for r in self.bad_matrix_rows:
            out.setdefault(r // self.block_size, set()).add(r % self.block_size)
        return {i: sorted(rows) for i, rows in out.items()}

    def chk_bad_block_rows(self) -> set[int]:
        """Block rows whose strip band lost at least one row."""
        return {r // self.n_checksums for r in self.bad_chk_rows}

    def feasibility(self) -> tuple[bool, str]:
        """Can the erasure pattern be decoded forward?  ``(ok, reason)``.

        Capacity is per block row: up to ``m = n_checksums − 1`` erased
        rows, and the block row's own strip band must be intact (a lost
        strip row elsewhere is harmless — strips are re-derivable from
        verified data).
        """
        m = self.n_checksums - 1
        strip_damaged = self.chk_bad_block_rows()
        for i, rows in self.erasures().items():
            if len(rows) > m:
                return (
                    False,
                    f"block row {i}: {len(rows)} erased rows exceed the "
                    f"{m}-erasure capacity of {self.n_checksums} checksums",
                )
            if i in strip_damaged:
                return (
                    False,
                    f"block row {i}: erased data rows and erased strip rows "
                    "together leave nothing to decode from",
                )
        return True, "decodable"


@dataclass
class RepairStats:
    """What one salvage repair did."""

    erased_tiles: int = 0  #: tiles reconstructed from known-row erasures
    erased_elements: int = 0  #: elements the erasure solve changed from zero
    corrected_errors: int = 0  #: unknown-location data errors the decode fixed
    refreshed_checksums: int = 0  #: corrupt strip elements refreshed from the data
    reencoded_tiles: int = 0  #: strips rebuilt after strip-row loss
    #: ``(tile, row, col)`` of each corrected data error, as the schemes record
    corrected_sites: list = field(default_factory=list)


def repair_salvage(
    salvage: Salvage,
    pristine: np.ndarray,
    rtol: float = SALVAGE_RTOL,
    atol: float = SALVAGE_ATOL,
) -> RepairStats:
    """Reconstruct erased rows and verify every tile, in place.

    *pristine* is the job's deterministic input matrix: the strict upper
    triangle of an erased row is restored from it byte-for-byte (the
    left-looking drivers never write above the diagonal), while the
    lower-triangle span is zeroed and solved per tile from the strips.

    Raises :class:`SalvageError` when the loss pattern is undecodable and
    on any tile whose syndromes cannot be explained within capacity —
    escalation to restart, never a guess.
    """
    ok, reason = salvage.feasibility()
    if not ok:
        raise SalvageError(reason)
    n, B, r = salvage.n, salvage.block_size, salvage.n_checksums
    require(pristine.shape == (n, n), "pristine input shape mismatch")
    codec = MultiErrorCodec(B, r, rtol=rtol, atol=atol)
    stats = RepairStats()
    erasures = salvage.erasures()
    matrix, chk = salvage.matrix, salvage.chk

    for i, rows in erasures.items():
        for local in rows:
            g = i * B + local
            matrix[g, (i + 1) * B :] = pristine[g, (i + 1) * B :]
            matrix[g, : (i + 1) * B] = 0.0

    for i in salvage.chk_bad_block_rows():
        # Strip band lost, data intact (feasibility guarantees the
        # disjunction): rebuild the whole band from the data it encodes.
        for c in range(i + 1):
            tile = matrix[i * B : (i + 1) * B, c * B : (c + 1) * B]
            chk[r * i : r * (i + 1), c * B : (c + 1) * B] = codec.encode(tile)
            stats.reencoded_tiles += 1

    reencoded = salvage.chk_bad_block_rows()
    for i in range(salvage.nb):
        rows = erasures.get(i, [])
        for c in range(i + 1):
            if i in reencoded and not rows:
                continue  # strip just rebuilt from this very data
            tile = matrix[i * B : (i + 1) * B, c * B : (c + 1) * B]
            strip = chk[r * i : r * (i + 1), c * B : (c + 1) * B]
            try:
                corrections = codec.verify_and_correct(tile, strip, erased=rows)
            except UnrecoverableError as exc:
                raise SalvageError(
                    f"tile ({i}, {c}): salvage verification beyond capacity: {exc}"
                ) from exc
            if rows:
                stats.erased_tiles += 1
                stats.erased_elements += int(np.count_nonzero(tile[rows]))
            for corr in corrections:
                stats.corrected_errors += len(corr.rows)
                stats.refreshed_checksums += len(corr.refreshed)
                stats.corrected_sites.extend(((i, c), row, corr.column) for row in corr.rows)
    return stats
