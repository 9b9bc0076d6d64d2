"""The checksum detector: one stateless batch check for every verify path.

Checksum recalculation is the verification cost on the paper's critical
path (Section IV-C); Optimization 1 exists to batch it.  The analogous
batching on the host is two pure functions over a
:class:`~repro.hetero.memory.DeviceMatrix` /
:class:`~repro.hetero.memory.DeviceChecksums` pair:

- :func:`detect` returns the keys whose tiles fail the checksum
  comparison, in batch order, and modifies nothing;
- :func:`encode` stores ``W · tile`` into the keys' strips.

Both the core schemes (:meth:`repro.core.correct.Verifier.check_real`)
and the tile-DAG runtime's verify tasks call :func:`detect` and send the
flagged keys (almost always none) through the per-tile decoder
:func:`repro.core.correct.check_tile_strip`.  The functions keep no
state, so DAG worker threads share them freely.

Size rule
---------
Tiles up to :data:`GATHER_MAX_TILE_BYTES` (B ≤ 128) are gathered with
one fancy index on ``tiles4`` (``tiles4[ii, :, jj, :]``, shape k×B×B)
and recalculated by one stacked ``np.matmul``.  Larger tiles are
recalculated in place one at a time: there the gather copy costs more
than the Python call it saves.

Bit identity
------------
:func:`detect` flags exactly the tiles the per-tile decoder would
touch, so corrections, statistics and the first
:class:`~repro.util.exceptions.UnrecoverableError` are those of a
per-tile loop:

- each slice of the stacked ``W @ X`` is one GEMM over a copy of the
  tile, with the same bits as the per-tile ``W @ tile`` (the gather is a
  copy, and copies are exact; pinned by
  ``tests/test_batchverify_properties.py``);
- the tolerance ``rtol · (W @ |tile|) + atol`` is the codec's one
  :meth:`~repro.core.multierror.MultiErrorCodec.tolerance`, called on the
  stack here and on the single tile by the decoder;
- the verdict is element-wise: a checksum element fails unless
  ``|δ| <= tol`` and ``tol`` is finite.  Written this way a NaN δ (a
  NaN checksum element) fails like any other corruption, and an
  overflowed or NaN tolerance flags its tile so the decoder can reject
  it.
"""

from __future__ import annotations

import numpy as np

from repro.core.multierror import MultiErrorCodec
from repro.hetero.memory import DeviceChecksums, DeviceMatrix

Key = tuple[int, int]

#: Largest tile, in bytes, that :func:`detect` and :func:`encode` gather
#: into one stacked matmul (128 KiB: B ≤ 128 in float64).  Measured on 2
#: vCPUs with BLAS at 1 thread, replaying one enhanced factorization's
#: verify batches, gathered ÷ in-place detect time read 0.40–0.48 at
#: B = 64, 0.91–0.98 at B = 128 and 1.35–1.39 at B = 192 (n = 1536, the
#: tile DAG benchmark's shape).
GATHER_MAX_TILE_BYTES = 128 * 1024


def _gathers(matrix: DeviceMatrix) -> bool:
    return matrix.block_size * matrix.block_size * 8 <= GATHER_MAX_TILE_BYTES


def _indices(keys: list[Key]) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    return ii, jj


def _fails(fresh: np.ndarray, tol: np.ndarray, strips: np.ndarray) -> np.ndarray:
    """Element-wise ``not (|fresh − strip| <= tol)`` or a non-finite
    tolerance.  Overwrites *fresh*."""
    fresh -= strips
    np.abs(fresh, out=fresh)
    ok = fresh <= tol
    ok &= np.isfinite(tol)
    return ~ok


def detect(
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    keys: list[Key],
    codec: MultiErrorCodec,
) -> list[Key]:
    """Keys whose tiles fail *codec*'s checksum comparison, in batch order.

    Pure detection: neither the tiles nor the strips are modified.
    """
    weights = codec.weights
    if not _gathers(matrix):
        flagged = []
        for key in keys:  # noqa: RPL006 - B > 128: a gather costs more than the loop saves
            tile = matrix.tile_view(key)
            if _fails(weights @ tile, codec.tolerance(np.abs(tile)), chk.tile_view(key)).any():
                flagged.append(key)
        return flagged
    ii, jj = _indices(keys)
    tiles = matrix.tiles4[ii, :, jj, :]  # a gathered copy, k × B × B
    fresh = np.matmul(weights, tiles)
    tol = codec.tolerance(np.abs(tiles, out=tiles))
    bad = _fails(fresh, tol, chk.tiles4[ii, :, jj, :]).any(axis=(1, 2))
    return [keys[t] for t in np.flatnonzero(bad).tolist()]


def encode(
    matrix: DeviceMatrix, chk: DeviceChecksums, keys: list[Key], weights: np.ndarray
) -> None:
    """Store ``W · tile`` into the strip of every key."""
    if not _gathers(matrix):
        for key in keys:  # noqa: RPL006 - B > 128: a gather costs more than the loop saves
            chk.tile_view(key)[...] = weights @ matrix.tile_view(key)
        return
    ii, jj = _indices(keys)
    chk.tiles4[ii, :, jj, :] = np.matmul(weights, matrix.tiles4[ii, :, jj, :])
