"""Checksum encoding: building the initial checksum matrix.

Each lower-triangle tile (i, j) of the input is encoded into a 2×B strip
``W · A_ij`` stored in the device checksum matrix (Section IV-A).  Encoding
is the one-time O(n²) cost analyzed as ``O_encode = 2n²`` flops in Section
VI; it runs as a batch of GEMV kernels, distributed over the recalculation
streams so Optimization 1 helps here too.
"""

from __future__ import annotations

import numpy as np

from repro.blas.blocked import BlockedMatrix
from repro.core.batchverify import encode
from repro.core.multierror import encode_strip as encode_strip  # re-export
from repro.core.multierror import vandermonde_weights
from repro.desim.task import Task
from repro.hetero.context import ExecutionContext
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.hetero.stream import Stream


def encode_blocked_host(
    blocked: BlockedMatrix, lower_only: bool = True, n_checksums: int = 2
) -> np.ndarray:
    """Encode a host matrix into a fresh (r·nb)×n checksum array.

    Reference implementation used by tests and by ground-truth comparisons;
    the simulated encode below produces the same values tile by tile.
    """
    nb, b, r = blocked.nb, blocked.block_size, n_checksums
    w = vandermonde_weights(b, r)
    out = np.zeros((r * nb, blocked.n), dtype=np.float64)
    for i in range(nb):  # noqa: RPL006 - host reference implementation
        j_hi = (i + 1) if lower_only else nb
        for j in range(j_hi):  # noqa: RPL006 - host reference implementation
            out[r * i : r * (i + 1), j * b : (j + 1) * b] = w @ blocked.block(i, j)
    return out


def issue_encoding(
    ctx: ExecutionContext,
    matrix: DeviceMatrix,
    chk: DeviceChecksums,
    streams: list[Stream],
    after: list[Task] | None = None,
) -> Task:
    """Encode every lower-triangle tile on the device.

    One fused-GEMV kernel per tile, round-robined across *streams*
    (Optimization 1 applies).  Returns a barrier task that completes when
    the whole checksum matrix is ready; the factorization's first kernel
    should depend on it.

    Real-mode numerics go through :func:`repro.core.batchverify.encode`
    (bit-identical to the per-tile encode).
    """
    b = matrix.block_size
    keys = [(i, j) for i in range(matrix.nb) for j in range(i + 1)]
    cost = ctx.cost.gemv_recalc(b, b, n_vectors=chk.rows_per_tile)
    # Coalesce each stream's share into one task: GPS-equivalent to a chain
    # of per-tile kernels on that stream, at a fraction of the event count.
    per_stream: dict[str, list[tuple[int, int]]] = {}
    for idx, key in enumerate(keys):
        s = streams[idx % len(streams)]
        per_stream.setdefault(s.name, []).append(key)
    tails: list[Task] = []
    for s in streams:
        share = per_stream.get(s.name, [])
        if not share:
            continue
        task = ctx.launch_gpu(
            f"encode@{s.name}",
            kind="encode",
            cost=type(cost)(duration=cost.duration * len(share), util=cost.util),
            stream=s,
            deps=list(after or []),
            tiles=len(share),
            iteration=-1,
            tile_reads=share,
            chk_writes=share,
        )
        tails.append(task)
    if ctx.real:
        encode(matrix, chk, keys, vandermonde_weights(b, chk.rows_per_tile))
    # The barrier doubles as a verification event: at encode time every tile
    # is by definition consistent with its freshly built strip.
    return ctx.barrier("encode_done", tails, iteration=-1, tile_verifies=keys)
