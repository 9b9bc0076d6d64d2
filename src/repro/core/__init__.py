"""The paper's contribution: checksum-based fault tolerance for Cholesky.

Layout:

- :mod:`repro.core.multierror` — the weighted checksum code of Section
  IV-A for any checksum count (Vandermonde weights; r = 2 gives the
  paper's v₁ = 1, v₂ = 1..B) and its one decoder: detection threshold,
  location (row = δ₂/δ₁ at r = 2), reconstruction, erasures.
- :mod:`repro.core.checksum` — encoding a blocked matrix into its per-tile
  column-checksum matrix.
- :mod:`repro.core.batchverify` — the batched checksum detector.
- :mod:`repro.core.correct` — verification batches: recalculation with the
  streamed concurrent-kernel execution of Optimization 1, detection, then
  the codec's decode of each flagged tile.
- :mod:`repro.core.update` — the checksum-updating rules for SYRK, GEMM,
  POTF2 (Algorithm 2) and TRSM, placeable in the GPU main stream, a
  dedicated GPU stream, or on the CPU (Optimization 2).
- :mod:`repro.core.policy` — the every-K verification interval
  (Optimization 3).
- :mod:`repro.core.placement` — the CPU-vs-GPU checksum-updating decision
  model of Section V-B.
- :mod:`repro.core.config` / :mod:`repro.core.base` — scheme configuration
  and the shared runtime (encode phase, recovery/restart loop, statistics).
- :mod:`repro.core.schemes` — one left-looking loop for the three schemes
  (Offline, Online, Enhanced) and the checkpoint baseline, a table row each
  for where it verifies, and the ``SCHEMES`` name → entry-point registry.
"""

from repro.core.base import FtPotrfResult
from repro.core.checksum import encode_blocked_host, encode_strip
from repro.core.config import AbftConfig
from repro.core.correct import Verifier, VerifyStats
from repro.core.multierror import MultiErrorCodec
from repro.core.placement import choose_updating_placement, paper_decision_model
from repro.core.policy import VerificationPolicy
from repro.core.schemes import SCHEMES, enhanced_potrf, offline_potrf, online_potrf
from repro.core.update import ChecksumUpdater

__all__ = [
    "SCHEMES",
    "FtPotrfResult",
    "encode_blocked_host",
    "encode_strip",
    "AbftConfig",
    "Verifier",
    "VerifyStats",
    "enhanced_potrf",
    "MultiErrorCodec",
    "offline_potrf",
    "online_potrf",
    "choose_updating_placement",
    "paper_decision_model",
    "VerificationPolicy",
    "ChecksumUpdater",
]
