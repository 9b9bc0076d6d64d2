"""Erasure-coded forward recovery: turn system faults into decodable erasures.

The checksum redundancy the ABFT schemes maintain for *soft* errors also
protects against *system* faults — a crashed pool worker, a truncated or
scribbled-on shared-memory segment.  This package closes that loop:

- :mod:`repro.recovery.snapshot` — a double-buffered, CRC-stamped
  iteration-boundary snapshot the worker publishes into shared memory as
  the factorization progresses (seqlock-style: payload, then row CRCs,
  then the epoch word last);
- :mod:`repro.recovery.salvage` — parent-side classification of what
  survived: CRC-failing rows become *known-location* erasures, repaired
  per tile by the runs' one decoder with those rows erased
  (:meth:`~repro.core.multierror.MultiErrorCodec.verify_and_correct`);
- :mod:`repro.recovery.decision` — the forward-vs-backward cost model
  (reconstruct + resume vs. restart from scratch), following the
  PCG forward/backward-recovery analysis;
- :mod:`repro.recovery.resume` — re-verify the salvaged state and resume
  the scheme driver from the snapshot's iteration boundary
  (``start_iteration``), bit-identical to an uninterrupted run when no
  rows were lost.

The service's retry ladder consults this package whenever an executor
failure carries salvaged state, inserting an "erasure-recover" rung ahead
of backoff-retry and checkpoint fallback.
"""

from repro.recovery.decision import RecoveryDecision, choose_recovery
from repro.recovery.resume import execute_resume
from repro.recovery.salvage import Salvage, repair_salvage
from repro.recovery.snapshot import (
    SnapshotLayout,
    SnapshotWriter,
    read_snapshot,
    zero_epochs,
)

__all__ = [
    "RecoveryDecision",
    "Salvage",
    "SnapshotLayout",
    "SnapshotWriter",
    "choose_recovery",
    "execute_resume",
    "read_snapshot",
    "repair_salvage",
    "zero_epochs",
]
