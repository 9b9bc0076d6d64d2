"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
Fault-tolerance control flow (restart requests, unrecoverable corruption)
uses dedicated exception types because the schemes in :mod:`repro.core`
genuinely use them for non-local control transfer, mirroring how the paper's
implementation aborts and re-runs a decomposition when ABFT cannot correct.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, range, ...)."""


class SingularBlockError(ReproError, ArithmeticError):
    """A diagonal block was not positive definite during POTF2.

    On the real machine this is the *fail-stop* outcome the paper warns
    about: a storage error that breaks positive definiteness terminates the
    whole factorization inside the vendor POTF2.
    """

    def __init__(self, block_index: int, pivot: int, value: float) -> None:
        super().__init__(
            f"diagonal block {block_index} lost positive definiteness at "
            f"pivot {pivot} (leading value {value!r})"
        )
        self.block_index = block_index
        self.pivot = pivot
        self.value = value


class UnrecoverableError(ReproError, RuntimeError):
    """ABFT verification found corruption it cannot correct.

    Raised when more than one error hits a single block column, when the
    located row index is inconsistent, or when taint analysis (shadow mode)
    reports propagated corruption.  Scheme drivers translate this into a
    restart of the whole decomposition, doubling the simulated run time
    exactly as in Tables VII/VIII of the paper.
    """

    def __init__(self, message: str, *, block: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.block = block


class RestartExhaustedError(ReproError, RuntimeError):
    """The scheme restarted ``max_restarts`` times and still failed."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event engine detected an inconsistent schedule."""


class DeadlockError(SimulationError):
    """No runnable task remains but unfinished tasks exist."""


class DeviceMemoryError(ReproError, MemoryError):
    """A simulated device allocation exceeded the device's capacity."""


class ExecutorError(ReproError, RuntimeError):
    """Base class for execution-backend failures (:mod:`repro.exec`)."""


class WorkerCrashedError(ExecutorError):
    """A pool worker process died (crash/OOM/kill) while owning an attempt.

    The service's retry ladder treats this exactly like a failed attempt:
    the job is requeued with backoff while the pool replaces the worker
    in the background, and nothing is lost but the attempt's wall time.
    Also raised when a worker slot cannot start a replacement.
    """


class WorkerTaskError(ExecutorError):
    """An attempt raised inside a pool worker; re-raised parent-side.

    Carries the worker-side exception's class name so callers (and tests)
    can distinguish scheme-level outcomes (``RestartExhaustedError``) from
    infrastructure failures without unpickling arbitrary objects.
    """

    def __init__(self, exc_type: str, message: str) -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


class ShmTransportError(ExecutorError):
    """A shared-memory segment vanished or could not be attached mid-dispatch.

    Models the /dev/shm file being truncated or removed underneath the
    pool (an external tmpfs sweep, a resource-tracker race).  The executor
    marks the slot's arena stale so the next dispatch re-creates the
    segment; the attempt itself is retryable.
    """


class ShmIntegrityError(ExecutorError):
    """A factor crossed the shared-memory transport corrupted.

    The worker stamps each in-segment factor with a CRC32 of its bytes;
    the parent re-hashes after copying out.  A mismatch means the segment
    was scribbled on between the worker's write and the parent's read —
    the result is discarded and the attempt retried, never returned.
    """


class SalvageError(ReproError, RuntimeError):
    """Mid-attempt state could not be salvaged into a forward recovery.

    Raised by the erasure-recovery layer (:mod:`repro.recovery`) when a
    snapshot is unreadable, its loss pattern exceeds the checksum code's
    erasure capacity, or reconstruction fails re-verification.  The
    service answers it by falling back to the ordinary retry ladder —
    a full restart — never by returning the damaged state.
    """


class JournalError(ReproError, RuntimeError):
    """The durable job journal could not be written or replayed."""
