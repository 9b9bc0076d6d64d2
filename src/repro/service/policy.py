"""Fault-handling policy: execution, retry backoff, and checkpoint fallback.

The service's per-job resilience ladder, mirroring how the paper layers
recovery on top of detection:

1. the scheme driver itself corrects what the two-checksum code can and
   restarts (``max_restarts``) on unrecoverable corruption — jobs that land
   here still *complete normally*, with ``corrected_errors``/``restarts``
   counted;
2. if the driver gives up (:class:`~repro.util.exceptions.
   RestartExhaustedError`) or the attempt times out, the service retries
   the job with exponential backoff up to ``max_retries``;
3. the last rung swaps the scheme for the composed-resilience baseline,
   :func:`repro.baselines.checkpoint.checkpoint_potrf`, whose rollback
   recovery is bounded by the checkpoint interval (its rollbacks count as
   the outcome's ``restarts``);
4. only then is the job failed.

Faults stay one-shot events throughout: a job's injector is disarmed
before any retry or fallback, so recovery runs replay fault-free exactly
like the restart protocol of Tables VII/VIII.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.checkpoint import checkpoint_potrf
from repro.blas.spd import random_spd
from repro.core import SCHEMES, AbftConfig, FtPotrfResult
from repro.core.correct import VerifyStats
from repro.desim.trace import Timeline
from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual
from repro.runtime.scheme import dag_potrf
from repro.service.job import Job
from repro.util.rng import derive_rng
from repro.util.validation import check_positive, require

#: The core registry plus the tile-DAG engine.
_SCHEMES = {**SCHEMES, "dag": dag_potrf}

#: Schemes whose serial drivers support iteration-boundary snapshot /
#: resume (``start_iteration``/``progress`` on their ``*_potrf``).  The
#: erasure-recovery layer only attempts forward recovery for these;
#: ``offline`` and ``dag`` escalate to the ordinary restart rungs.
RESUMABLE_SCHEMES = frozenset({"online", "enhanced"})

#: spawn-key namespace for the per-job matrix generator (fault plans use 0)
MATRIX_RNG_KEY = 1


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule plus the fallback switch."""

    max_retries: int = 2
    base_backoff_s: float = 0.02
    backoff_factor: float = 2.0
    max_backoff_s: float = 0.5
    fallback_to_checkpoint: bool = True
    checkpoint_interval: int = 2

    def __post_init__(self) -> None:
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require(self.base_backoff_s >= 0, "base_backoff_s must be >= 0")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        check_positive("checkpoint_interval", self.checkpoint_interval)

    def backoff_s(self, retry_index: int) -> float | None:
        """Delay before retry number *retry_index* (1-based); ``None`` = stop."""
        check_positive("retry_index", retry_index)
        if retry_index > self.max_retries:
            return None
        delay = self.base_backoff_s * self.backoff_factor ** (retry_index - 1)
        return min(delay, self.max_backoff_s)


@dataclass
class AttemptOutcome:
    """What one (successful) execution attempt produced.

    Every field the service's determinism contract covers is here:
    ``factor``, ``corrected_sites`` and ``stats`` must be bit-identical
    whichever execution backend (:mod:`repro.exec`) ran the attempt.  The
    process backend strips ``factor`` before pickling the outcome back —
    the bytes travel through the shared-memory segment instead — and the
    parent reattaches it, so callers never see the difference.

    ``sim_makespan`` and ``timeline`` exist only for attempts that kept
    the simulated machine (shadow jobs, or real ones asked for a
    timeline); ``sim_makespan`` is always ``None`` for ``dag``, whose
    makespan is host wall seconds.
    """

    sim_makespan: float | None
    corrected_errors: int
    restarts: int
    residual: float | None
    timeline: Timeline | None
    fallback_used: bool = False
    extras: dict = field(default_factory=dict)
    corrected_sites: list = field(default_factory=list)
    stats: VerifyStats | None = None
    factor: np.ndarray | None = field(default=None, repr=False)
    #: the dag runtime's executor summary (plain data; pickles across the
    #: process backend), ``None`` for the simulated schemes
    runtime: dict | None = None


def job_matrix(job: Job) -> np.ndarray:
    """The deterministic SPD input of *job* (same array on every attempt)."""
    return random_spd(job.n, rng=derive_rng(job.seed, job.job_id, MATRIX_RNG_KEY))


def _pristine_copy(a: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """Copy of *a* for the residual check, reusing *scratch* when it fits.

    Process-pool workers pass their warmed per-geometry workspace here so
    steady-state traffic on a repeated matrix order allocates nothing.
    """
    if scratch is not None and scratch.shape == a.shape and scratch.dtype == a.dtype:
        np.copyto(scratch, a)
        return scratch
    return a.copy()


def execute_attempt(
    job: Job,
    machine: Machine,
    a: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    progress=None,
    timeline: bool = True,
) -> AttemptOutcome:
    """Run *job* once under its ABFT scheme on *machine* (blocking).

    *a* optionally supplies the pre-materialized input matrix (the process
    backend passes a shared-memory view already filled with
    :func:`job_matrix` bits); when omitted, the matrix is generated here.
    Either way the input is the same pure function of ``(seed, job_id)``,
    so results are backend-independent.  On return, *a* (when given) holds
    the factor L and is the outcome's ``factor`` — that in-place write is
    the output half of the zero-copy transport.

    *progress* (real mode, resumable schemes only) is handed to the
    driver as its iteration-boundary snapshot sink; non-resumable
    schemes ignore it, so passing one is always safe.

    *timeline* asks a real-mode attempt to record and replay the
    simulated machine; shadow attempts always do, since simulated time is
    all they produce.

    Raises the scheme's own exceptions (``RestartExhaustedError`` etc.) on
    unrecoverable outcomes; the async layer turns those into retries.
    """
    kwargs: dict = {
        "config": AbftConfig(verify_interval=job.verify_interval, dag_workers=job.intra_workers)
    }
    if progress is not None and job.scheme in RESUMABLE_SCHEMES and job.numerics == "real":
        kwargs["progress"] = progress
    return _execute(job, machine, _SCHEMES[job.scheme], a, scratch, timeline, **kwargs)


def execute_fallback(
    job: Job,
    machine: Machine,
    policy: RetryPolicy,
    a: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    timeline: bool = True,
) -> AttemptOutcome:
    """Last-rung execution under the checkpoint/rollback baseline (blocking).

    *a*, *scratch* and *timeline* as for :func:`execute_attempt`.
    """
    if job.injector is not None:
        job.injector.disarm()  # the fault already happened; replay clean
    outcome = _execute(
        job, machine, checkpoint_potrf, a, scratch, timeline, interval=policy.checkpoint_interval
    )
    outcome.fallback_used = True
    return outcome


def _execute(job: Job, machine: Machine, potrf, a, scratch, timeline: bool, **kwargs) -> AttemptOutcome:
    """Run *potrf* on *job*: a real job in place on its input, then the
    residual gate against a pristine copy; a shadow job by its order."""
    if job.numerics == "real":
        if a is None:
            a = job_matrix(job)
        pristine = _pristine_copy(a, scratch)
        res = potrf(
            machine, a=a, block_size=job.block_size, injector=job.injector, timeline=timeline, **kwargs
        )
        factor = res.factor
        residual = factorization_residual(pristine, factor)
    else:
        res = potrf(
            machine, n=job.n, block_size=job.block_size, injector=job.injector, numerics="shadow", **kwargs
        )
        residual = None
        factor = None
    return AttemptOutcome(
        # dag's makespan is host wall seconds: the job's exec_s says that already.
        sim_makespan=res.makespan if isinstance(res, FtPotrfResult) else None,
        corrected_errors=res.stats.data_corrections + res.stats.checksum_corrections,
        restarts=res.restarts,
        residual=residual,
        timeline=res.timeline,
        corrected_sites=list(res.stats.corrected_sites),
        stats=res.stats,
        factor=factor,
        runtime=getattr(res, "runtime", None),
    )
