"""Batched checksum recalculation: the vectorized ABFT hot path.

The paper's Optimization 1 exists because per-tile checksum recalculation
is a swarm of small BLAS-2 kernels; on a real GPU the fix is concurrent
kernel execution, and in our real-mode numerics the analogous fix is to
stop looping ``W @ tile`` over tiles in Python and issue one large GEMM
per *structured run* of the verification batch.

:class:`BatchVerifyEngine` consumes the run plan of
:func:`repro.hetero.memory.plan_tile_runs` and normalizes every run into
the fused 2-D operand ``X = [tile₁ | tile₂ | … | tile_k]`` of shape
``(B, k·B)``:

- a **row run**'s tiles are adjacent columns of the backing array, so
  ``X`` is a zero-copy view;
- a **column run** / **rectangle** is gathered with a single strided
  ``copyto`` into a preallocated workspace (one memcpy-class operation,
  not a Python loop);
- a **singleton** uses the tile view directly.

Recalculation of the whole run is then one ``W @ X`` GEMM, the tolerance
one more GEMM over ``|X|``, the comparison element-wise, and the per-tile
flag reduction a reshaped ``any``.

Bit-exactness contract
----------------------
``detect`` must route exactly the tiles the per-tile path would have
touched into the per-tile decoder, with everything else untouched.  That
holds because each batched step is element-wise identical to its
per-tile counterpart on this code's operand shapes:

- each output column of the fused GEMM ``W @ X`` depends only on ``W``
  and that column, so it carries the same bits as the per-tile
  ``W @ tile`` (no split-K reassociation at these sizes — verified
  empirically, pinned by ``tests/test_batchverify_properties.py``);
- the gather is a copy, and copies are exact;
- the tolerance ``rtol · (W @ |tile|) + atol`` is reproduced as
  ``t = W @ |X|; t *= rtol; t += atol`` — multiplication is commutative
  in IEEE-754, so the in-place form is exact;
- the comparison ``|fresh − strip| > tol`` is element-wise, and so is
  the non-finite-tolerance flag both paths apply.

Flagged tiles (almost always none) fall back to the unchanged per-tile
decode in :mod:`repro.core.correct` / :mod:`repro.core.multierror`, so
corrections, statistics and :class:`UnrecoverableError` ordering are
byte-for-byte those of the per-tile path.
"""

from __future__ import annotations

import numpy as np

from repro.core.multierror import vandermonde_weights
from repro.hetero.memory import DeviceBuffer, TileRun, plan_tile_runs


class BatchVerifyEngine:
    """Fused checksum recalculation over a matrix/checksum buffer pair.

    Workspaces are preallocated and grown geometrically, so steady-state
    verification performs no per-batch allocation: each run gathers and
    computes into the same flat buffers, reshaped to the run's geometry.
    """

    def __init__(
        self,
        matrix: DeviceBuffer,
        chk: DeviceBuffer,
        rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> None:
        self.matrix = matrix
        self.chk = chk
        self.rtol = rtol
        self.atol = atol
        self.block_size = matrix.tile_shape[0]
        self.n_checksums = chk.tile_shape[0]
        self.weights = vandermonde_weights(self.block_size, self.n_checksums)
        self._f64: dict[str, np.ndarray] = {}
        self._bool = np.empty(0, dtype=np.bool_)
        self._prealloc()

    def _prealloc(self) -> None:
        """Size and warm the workspaces for this matrix's run geometry.

        The widest run any driver batch can produce is the trailing-panel
        rectangle of the GEMM re-encode, ``(nb - j - 1) · j ≤ nb²/4``
        tiles; columns and rows top out at ``nb``.  Touching the pages
        here keeps first-fault costs out of the measured verify path
        (geometric growth in :meth:`_ws` remains as a fallback for
        caller-supplied batches that exceed the planner's shapes).
        """
        b, r, nb = self.block_size, self.n_checksums, self.matrix.nb
        if b == 0 or nb == 0 or not self.matrix.real:
            # Simulated buffers have paper-scale geometry but no storage;
            # sizing workspaces for them would allocate gigabytes that no
            # detect/encode call will ever touch.
            return
        cap = nb * nb // 4 + nb
        for name in ("gather_x", "abs"):
            self._ws(name, cap * b * b).fill(0.0)
        for name in ("gather_s", "fresh", "tol"):
            self._ws(name, cap * r * b).fill(0.0)
        self._ws_bool(cap * r * b).fill(False)

    # ----------------------------------------------------------- workspaces

    def _ws(self, name: str, n: int) -> np.ndarray:
        buf = self._f64.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(max(n, 2 * (0 if buf is None else buf.size)))
            self._f64[name] = buf
        return buf[:n]

    def _ws_bool(self, n: int) -> np.ndarray:
        if self._bool.size < n:
            self._bool = np.empty(max(n, 2 * self._bool.size), dtype=np.bool_)
        return self._bool[:n]

    # -------------------------------------------------------------- fusing

    def _fused_tiles(self, run: TileRun) -> tuple[np.ndarray, bool]:
        """The run's tiles as one ``(B, k·B)`` operand.

        Returns ``(X, owned)``: *owned* is True when ``X`` is a gathered
        workspace copy the caller may clobber, False when it is a live
        zero-copy view that must be left untouched.
        """
        b, k = self.block_size, len(run)
        if run.kind == "row" or k == 1:
            view = self.matrix.run_view(run)
            return view.reshape(b, k * b), False
        ws = self._ws("gather_x", k * b * b)
        if run.kind == "col":
            # (k, B, B) stack -> (B, k, B): tile t becomes columns [tB, tB+B).
            np.copyto(
                ws.reshape(b, k, b), self.matrix.run_view(run).transpose(1, 0, 2)
            )
        else:
            ki, kj = run.i1 - run.i0, run.j1 - run.j0
            np.copyto(
                ws.reshape(b, ki, kj, b),
                self.matrix.run_view(run).transpose(2, 0, 1, 3),
            )
        return ws.reshape(b, k * b), True

    def _fused_strips(self, run: TileRun) -> tuple[np.ndarray, bool]:
        """The run's strips as one ``(r, k·B)`` operand (same convention)."""
        r, b, k = self.n_checksums, self.block_size, len(run)
        if run.kind == "row" or k == 1:
            return self.chk.run_view(run).reshape(r, k * b), False
        ws = self._ws("gather_s", k * r * b)
        if run.kind == "col":
            np.copyto(
                ws.reshape(r, k, b), self.chk.run_view(run).transpose(1, 0, 2)
            )
        else:
            ki, kj = run.i1 - run.i0, run.j1 - run.j0
            np.copyto(
                ws.reshape(r, ki, kj, b),
                self.chk.run_view(run).transpose(2, 0, 1, 3),
            )
        return ws.reshape(r, k * b), True

    # ------------------------------------------------------------ detection

    def detect(self, keys: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Keys whose tiles fail the checksum comparison, in batch order.

        Pure detection: neither the tiles nor the strips are modified.
        The caller sends the returned keys through the per-tile decoder.
        """
        r, b = self.n_checksums, self.block_size
        flagged: list[tuple[int, int]] = []
        for run in plan_tile_runs(keys):
            k = len(run)
            tiles, owned = self._fused_tiles(run)
            strips, _ = self._fused_strips(run)
            fresh = self._ws("fresh", r * k * b).reshape(r, k * b)
            tol = self._ws("tol", r * k * b).reshape(r, k * b)
            np.matmul(self.weights, tiles, out=fresh)
            if owned:
                work = np.abs(tiles, out=tiles)  # gathered copy: clobber it
            else:
                work = self._ws("abs", tiles.size).reshape(tiles.shape)
                np.abs(tiles, out=work)
            np.matmul(self.weights, work, out=tol)
            tol *= self.rtol
            tol += self.atol
            np.subtract(fresh, strips, out=fresh)
            np.abs(fresh, out=fresh)
            bad = self._ws_bool(r * k * b).reshape(r, k * b)
            finite = np.isfinite(tol, out=bad).all()
            np.greater(fresh, tol, out=bad)
            if not finite:
                # |δ| > inf is never true: a tile whose tolerance overflowed
                # (or went NaN) is flagged so the per-tile decoder rejects it.
                bad |= ~np.isfinite(tol)
            if not bad.any():
                continue
            tile_bad = bad.reshape(r, k, b).any(axis=(0, 2))
            flagged.extend(key for key, hit in zip(run.keys(), tile_bad) if hit)
        return flagged

    # ------------------------------------------------------------- encoding

    def encode(self, keys: list[tuple[int, int]]) -> None:
        """Recompute and store the strips of *keys*: ``chk ← W @ tile``.

        One fused GEMM per run; the result is scattered back through the
        strided strip views (plain copies, so the stored bits equal the
        per-tile encode's).
        """
        r, b = self.n_checksums, self.block_size
        for run in plan_tile_runs(keys):
            k = len(run)
            tiles, _ = self._fused_tiles(run)
            fresh = self._ws("fresh", r * k * b).reshape(r, k * b)
            np.matmul(self.weights, tiles, out=fresh)
            out = self.chk.run_view(run)
            if run.kind == "row" or k == 1:
                out[...] = fresh.reshape(out.shape)
            elif run.kind == "col":
                out[...] = fresh.reshape(r, k, b).transpose(1, 0, 2)
            else:
                ki, kj = run.i1 - run.i0, run.j1 - run.j0
                out[...] = fresh.reshape(r, ki, kj, b).transpose(1, 2, 0, 3)
        return None
