"""General-purpose redundancy baselines: DMR, TMR and checkpointing.

Section I of the paper motivates ABFT against the generic alternatives:
"Double Modular Redundancy ... works by comparing the results of two
identical computations" (detection only, ≈100% overhead) and "Triple
Modular Redundancy ... three identical computations ... compared and
voted" (correction, ≈200% overhead).  This subpackage implements both on
the simulated machine so the comparison is measured, not asserted:

- :mod:`repro.baselines.modular` — DMR/TMR Cholesky drivers that really
  run the factorization 2-3 times (real mode: actual NumPy replicas, so
  injected faults genuinely disagree/vote), plus the compare/vote step
  priced as the O(n²) device-memory pass it is.
- :mod:`repro.baselines.checkpoint` — ABFT composed with periodic
  checkpointing: a sweep and a snapshot every C iterations, rollback to
  the newest snapshot.
"""

from repro.baselines.checkpoint import checkpoint_potrf
from repro.baselines.modular import ModularResult, dmr_potrf, tmr_potrf

__all__ = [
    "checkpoint_potrf",
    "ModularResult",
    "dmr_potrf",
    "tmr_potrf",
]
