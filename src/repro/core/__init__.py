"""The paper's contribution: checksum-based fault tolerance for Cholesky.

Layout:

- :mod:`repro.core.weights` — the two weighted checksum vectors
  (v₁ = 1, v₂ = 1..B) of Section IV-A.
- :mod:`repro.core.checksum` — encoding a blocked matrix into its per-tile
  column-checksum matrix.
- :mod:`repro.core.correct` — checksum recalculation, error detection,
  single-error location (row = δ₂/δ₁) and correction, with the streamed
  concurrent-kernel execution of Optimization 1.
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
  (Offline, Online, Enhanced), a table row each for where it verifies, and
  the ``SCHEMES`` name → entry-point registry.
"""

from repro.core.base import FtPotrfResult
from repro.core.checksum import encode_blocked_host, encode_strip
from repro.core.config import AbftConfig
from repro.core.correct import Verifier, VerifyStats
from repro.core.multierror import MultiErrorCodec
from repro.core.placement import choose_updating_placement, paper_decision_model
from repro.core.policy import VerificationPolicy
from repro.core.rowvariant import RowChecksumCodec
from repro.core.schemes import SCHEMES, enhanced_potrf, offline_potrf, online_potrf
from repro.core.update import ChecksumUpdater
from repro.core.weights import weight_matrix

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
    "RowChecksumCodec",
    "offline_potrf",
    "online_potrf",
    "choose_updating_placement",
    "paper_decision_model",
    "VerificationPolicy",
    "ChecksumUpdater",
    "weight_matrix",
]
