"""Job and result records for the solve service.

A :class:`Job` is one SPD factorize/solve request as it travels through the
service: admission → queue → scheduler → execution under an ABFT scheme →
:class:`JobResult`.  Jobs carry their own :class:`~repro.faults.injector.
FaultInjector` (one-shot plans, pre-sampled from a per-job generator) so a
retry or fallback replays fault-free, exactly like the paper's restart
protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.blas.flops import potrf_flops
from repro.faults.injector import FaultInjector
from repro.util.exceptions import ValidationError
from repro.util.validation import check_positive, require

SCHEMES = ("offline", "online", "enhanced", "dag")


class Priority(enum.IntEnum):
    """Admission classes, most urgent first (lower value = served first)."""

    INTERACTIVE = 0
    BATCH = 1
    BEST_EFFORT = 2

    @classmethod
    def parse(cls, text: "str | int | Priority") -> "Priority":
        if isinstance(text, cls):
            return text
        if isinstance(text, int):
            return cls(text)
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValidationError(
                f"unknown priority {text!r}; have {[p.name.lower() for p in cls]}"
            ) from None


class JobStatus(str, enum.Enum):
    COMPLETED = "completed"
    FAILED = "failed"
    REJECTED = "rejected"


@dataclass
class Job:
    """One solve/factorize request."""

    job_id: int
    n: int
    scheme: str = "enhanced"
    priority: Priority = Priority.BATCH
    block_size: int | None = None
    numerics: str = "real"
    verify_interval: int = 1
    seed: int = 0
    injector: FaultInjector | None = None
    timeout_s: float | None = None
    #: threads the ``dag`` scheme's tile runtime may use for this job
    #: (the scheduler charges the job that many cores); other schemes
    #: run single-threaded and must leave it at 1
    intra_workers: int = 1
    submit_time: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        check_positive("n", self.n)
        require(self.scheme in SCHEMES, f"unknown scheme {self.scheme!r}; have {SCHEMES}")
        require(self.numerics in ("real", "shadow"), f"bad numerics {self.numerics!r}")
        check_positive("verify_interval", self.verify_interval)
        check_positive("intra_workers", self.intra_workers)
        if self.scheme == "dag":
            require(
                self.numerics == "real",
                "the dag scheme runs real numerics only",
            )
        else:
            require(
                self.intra_workers == 1,
                f"scheme {self.scheme!r} is single-threaded; intra_workers must be 1",
            )
        self.priority = Priority.parse(self.priority)

    @property
    def flops(self) -> int:
        """Useful factorization flops this job represents."""
        return potrf_flops(self.n)

    @property
    def key(self) -> str:
        """The job's identity for journal dedup: ``(seed, job_id)``.

        Everything deterministic about a job — input matrix, fault plans —
        derives from this pair, so it is exactly the granularity at which
        a replayed submission is "the same job".
        """
        return f"{self.seed}:{self.job_id}"

    def to_spec(self) -> dict:
        """The job as a plain-JSON dict the journal can persist.

        The injector is deliberately excluded: injected faults are
        one-shot *events*, not properties of the job, so a journal-replayed
        job runs fault-free — the same restart semantics the retry ladder
        applies when it disarms the injector before a retry.
        """
        return {
            "job_id": int(self.job_id),
            "n": int(self.n),
            "scheme": self.scheme,
            "priority": self.priority.name.lower(),
            "block_size": None if self.block_size is None else int(self.block_size),
            "numerics": self.numerics,
            "verify_interval": int(self.verify_interval),
            "seed": int(self.seed),
            "timeout_s": None if self.timeout_s is None else float(self.timeout_s),
            "intra_workers": int(self.intra_workers),
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Job":
        """Rebuild a job from :meth:`to_spec` output (journal replay)."""
        return cls(
            job_id=int(spec["job_id"]),
            n=int(spec["n"]),
            scheme=spec.get("scheme", "enhanced"),
            priority=Priority.parse(spec.get("priority", "batch")),
            block_size=spec.get("block_size"),
            numerics=spec.get("numerics", "real"),
            verify_interval=int(spec.get("verify_interval", 1)),
            seed=int(spec.get("seed", 0)),
            timeout_s=spec.get("timeout_s"),
            intra_workers=int(spec.get("intra_workers", 1)),
        )


@dataclass
class JobResult:
    """Terminal record of one job (kept by the service, summarized by reports)."""

    job_id: int
    status: JobStatus
    scheme: str
    n: int
    priority: Priority
    worker: str | None = None
    attempts: int = 1
    retries: int = 0
    corrected_errors: int = 0
    #: (tile, row, col) sites ABFT corrected — part of the determinism
    #: contract: identical across execution backends for the same job
    corrected_sites: list = field(default_factory=list)
    restarts: int = 0
    fallback_used: bool = False
    wait_s: float = 0.0
    exec_s: float = 0.0
    latency_s: float = 0.0
    #: simulated seconds, kept only when the attempt kept its timeline
    #: (traced services, shadow jobs) and never for ``dag``
    sim_makespan: float | None = None
    residual: float | None = None
    error: str | None = None
    timeline: object | None = field(default=None, repr=False, compare=False)
    #: the factor itself, kept only when ``ServiceConfig.keep_factors`` is
    #: set (chaos invariants compare factors bit-for-bit across scenarios)
    factor: object | None = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        return self.status is JobStatus.COMPLETED
