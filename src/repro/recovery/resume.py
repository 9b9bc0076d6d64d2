"""Execute a forward recovery: repair the salvage, resume, re-gate.

This is the blocking body of the service's "erasure-recover" ladder
rung.  It runs parent-side (the crashed worker's replacement is still
starting in the background; a resume is cheap enough not to justify
another round-trip), through the same attempt body as every other rung,
so its :class:`~repro.service.policy.AttemptOutcome` meets the same
residual gate, metrics and journaling downstream.

When the salvage carried no erasures (a clean snapshot from a crashed
worker) the resumed factor is **bit-identical** to an uninterrupted run:
the drivers replay the same deterministic kernels from the same
iteration-boundary bytes.  Erasure-repaired runs agree to the solve's
rounding (~1 ulp per reconstructed element) and are still held to the
service's end-to-end residual tolerance.
"""

from __future__ import annotations

from repro.core import AbftConfig
from repro.hetero.machine import Machine
from repro.recovery.salvage import Salvage, repair_salvage
from repro.service.job import Job
from repro.service.policy import _SCHEMES, RESUMABLE_SCHEMES, AttemptOutcome, _execute, job_matrix
from repro.util.exceptions import SalvageError
from repro.util.validation import require


def execute_resume(job: Job, machine: Machine, salvage: Salvage, timeline: bool = True) -> AttemptOutcome:
    """Repair *salvage* in place, resume *job*'s scheme, gate the result.

    *timeline* as for :func:`~repro.service.policy.execute_attempt`.

    Raises :class:`SalvageError` (undecodable loss pattern, failed
    re-verification) or the scheme's own exceptions; the service answers
    either by falling back to the ordinary retry ladder.
    """
    require(job.numerics == "real", "forward recovery needs real numerics")
    require(
        job.scheme in RESUMABLE_SCHEMES,
        f"scheme {job.scheme!r} does not support mid-run resume",
    )
    if (salvage.n, salvage.block_size) != (job.n, job.block_size):
        raise SalvageError("snapshot geometry does not match the job")
    pristine = job_matrix(job)
    stats = repair_salvage(salvage, pristine)
    if job.injector is not None:
        job.injector.disarm()  # whatever fired is already in the salvage
    # salvage.matrix was repaired in place; the residual is taken against
    # the job's original input.
    outcome = _execute(
        job,
        machine,
        _SCHEMES[job.scheme],
        salvage.matrix,
        None,
        timeline,
        pristine=pristine,
        config=AbftConfig(verify_interval=job.verify_interval),
        start_iteration=salvage.resume_iteration,
    )
    outcome.corrected_errors += stats.corrected_errors + stats.refreshed_checksums
    outcome.corrected_sites += stats.corrected_sites
    outcome.extras = {
        "resumed_from_iteration": salvage.resume_iteration,
        "total_iterations": salvage.nb,
        "erasure_tiles": stats.erased_tiles,
        "erasure_elements": stats.erased_elements,
        "reencoded_tiles": stats.reencoded_tiles,
    }
    return outcome
