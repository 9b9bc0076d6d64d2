"""Configuration for the fault-tolerant factorization drivers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.placement import choose_updating_placement
from repro.core.policy import DEFAULT_VERIFY_INTERVAL
from repro.core.update import PLACEMENTS
from repro.hetero.spec import MachineSpec
from repro.util.exceptions import ValidationError
from repro.util.validation import check_positive, require


@dataclass(frozen=True)
class AbftConfig:
    """Knobs shared by the three scheme drivers.

    Parameters
    ----------
    verify_interval:
        K of Optimization 3 — deferrable inputs are verified every K
        iterations (Enhanced scheme only; Online/Offline ignore it).
    recalc_streams:
        CUDA streams for checksum (re)calculation kernels.  1 disables
        Optimization 1; ``None`` means "the GPU's designed concurrent-kernel
        count" (the paper's choice: "we just create N CUDA Streams").
    updating_placement:
        One of ``gpu_main`` (unoptimized: updates serialize in the main
        stream), ``gpu_stream``, ``cpu``, or ``auto`` (the Optimization-2
        decision model picks per machine).
    rtol:
        Relative detection threshold of the run's checksum code (see
        :meth:`repro.core.multierror.MultiErrorCodec.tolerance`; its
        absolute floor is the codec's ``atol``).
    n_checksums:
        Weighted checksums per tile.  2 is the paper's scheme (corrects one
        error per tile column); the Vandermonde code of
        :mod:`repro.core.multierror` decodes every count, correcting
        ``n_checksums // 2`` unknown-location errors per column at
        proportionally higher recalculation and storage cost.
    max_restarts:
        How many times an unrecoverable run may be re-executed before
        giving up.  One restart suffices for single-fault experiments.
    dag_workers:
        Worker threads for the ``dag`` scheme's tile-task runtime
        (:mod:`repro.runtime`).  1 executes the graph serially in program
        order — the bit-identity reference; larger values overlap tile
        kernels on host threads (BLAS releases the GIL).  The other
        schemes ignore it.
    """

    verify_interval: int = DEFAULT_VERIFY_INTERVAL
    recalc_streams: int | None = None
    updating_placement: str = "auto"
    rtol: float = 1e-9
    n_checksums: int = 2
    max_restarts: int = 1
    dag_workers: int = 1

    def __post_init__(self) -> None:
        check_positive("verify_interval", self.verify_interval)
        check_positive("dag_workers", self.dag_workers)
        require(self.n_checksums >= 2, "need at least two checksums per tile")
        if self.recalc_streams is not None:
            check_positive("recalc_streams", self.recalc_streams)
        require(
            self.updating_placement in (*PLACEMENTS, "auto"),
            f"bad updating_placement {self.updating_placement!r}",
        )
        check_positive("rtol", self.rtol)
        require(self.max_restarts >= 0, "max_restarts must be >= 0")

    # Resolution against a concrete machine -----------------------------------

    def resolved_streams(self, spec: MachineSpec) -> int:
        """The stream count to actually create."""
        if self.recalc_streams is not None:
            return self.recalc_streams
        # The paper creates N streams where N is the GPU's designed
        # concurrency; 16 is the CUDA-era constant for both generations.
        return 16

    def resolved_placement(self, spec: MachineSpec, n: int, block_size: int) -> str:
        if self.updating_placement != "auto":
            return self.updating_placement
        return choose_updating_placement(spec, n, block_size, self.verify_interval)

    @staticmethod
    def recommended_rtol(condition: float) -> float:
        """Detection threshold for a matrix of the given condition number.

        The maintained checksums and the data follow different rounding
        paths; their drift grows roughly linearly with the condition
        number (measured: ≈20·ε·cond across 10²–10¹²).  The returned
        ``max(1e-9, 100·ε·cond)`` keeps a 5× guard band above the drift —
        at the price that faults smaller than it become undetectable, the
        classical ABFT rounding-threshold trade-off.
        """
        if not condition >= 1.0:
            raise ValidationError("condition number must be >= 1")
        return max(1e-9, 100.0 * float(np.finfo(np.float64).eps) * condition)

    def unoptimized(self) -> "AbftConfig":
        """All three optimizations off (the 'before' of Figures 8-13)."""
        return replace(
            self,
            verify_interval=DEFAULT_VERIFY_INTERVAL,
            recalc_streams=1,
            updating_placement="gpu_main",
        )
