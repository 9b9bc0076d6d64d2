"""Checkpoint + periodic verification: the composed-resilience baseline.

The ABFT literature the paper builds on also composes ABFT with periodic
checkpointing (Bosilca et al., "Composing resilience techniques: ABFT,
periodic and incremental checkpointing").  This module implements the
natural such composition for Cholesky:

- every C iterations, verify all live tiles offline-style, then snapshot
  the verified matrix and its checksum strips to host memory (one
  device→host copy of the live state);
- on unrecoverable corruption (or a fail-stop POTF2), roll back to the
  last snapshot and replay from there, instead of restarting from scratch.

It is the ``checkpoint`` row of :data:`repro.core.schemes.VERIFICATION`,
run by the same left-looking loop as the paper's schemes; the rollback is
:func:`~repro.core.base.run_with_recovery`'s restart, resumed from the
newest snapshot (re-encoded, as a forward-recovery resume is).

Compared with the paper's Enhanced scheme this trades memory traffic and
rollback-replay time for skipping the per-operation verification; the
benchmark shows where each wins — checkpointing's recovery is bounded by
C iterations, but its fault-free overhead (periodic O(n²) copies plus
sweep verifications) exceeds Enhanced's once C is small enough to matter,
and it still cannot *correct* in place, only replay.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FtPotrfResult, run_with_recovery
from repro.core.config import AbftConfig
from repro.core.schemes import _factor_left_looking
from repro.faults.injector import FaultInjector
from repro.hetero.machine import Machine
from repro.util.validation import require


def checkpoint_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    interval: int = 4,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    timeline: bool = True,
) -> FtPotrfResult:
    """Factor under checkpoint + periodic offline verification.

    *interval* is C, the iterations between sweeps and snapshots.  The
    baseline keeps the paper's two checksums, updates them on their own
    GPU stream, recalculates on 16 streams and rolls back at most four
    times (``restarts`` counts the rollbacks).  ``timeline=False`` skips
    the simulated machine: the result's ``makespan`` and ``timeline`` are
    ``None``.
    """
    require(interval >= 1, "checkpoint interval must be >= 1")
    config = AbftConfig(
        verify_interval=interval, recalc_streams=16, updating_placement="gpu_stream", max_restarts=4
    )
    return run_with_recovery(
        "checkpoint", _factor_left_looking, machine, a, n, block_size, config, injector, numerics,
        timeline=timeline,
    )
