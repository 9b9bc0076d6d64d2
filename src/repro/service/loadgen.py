"""Load generation and the latency/throughput report.

Two standard driving modes:

- **open loop** (``rate``): job arrivals are a Poisson process — submit
  times do not depend on completions, so the generator exposes the queue's
  admission control honestly (rejected arrivals are *lost*, recorded, and
  reported — the backpressure demo);
- **closed loop** (``concurrency``): a fixed number of outstanding jobs;
  each completion triggers the next submission, and a rejection waits the
  quoted ``retry_after_s`` before resubmitting — so every job eventually
  completes (the CI smoke contract).

Job mixes are generated deterministically from a root seed with
:func:`repro.util.rng.derive_rng`: job *i*'s size, priority, and fault
plans depend only on ``(seed, i)``, never on submission order.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.faults.campaign import CampaignSpec, sample_injector
from repro.service.core import SolveService
from repro.service.job import Job, JobResult, JobStatus, Priority
from repro.util.formatting import render_table
from repro.util.rng import derive_rng
from repro.util.validation import check_positive, require

#: spawn-key namespace for per-job fault sampling (the matrix uses 1)
FAULT_RNG_KEY = 0
#: spawn-key namespace for the open-loop arrival process
ARRIVAL_RNG_KEY = 2

_PRIORITY_MIX = (
    (Priority.INTERACTIVE, 0.2),
    (Priority.BATCH, 0.6),
    (Priority.BEST_EFFORT, 0.2),
)


@dataclass(frozen=True)
class LoadGenConfig:
    """One synthetic workload."""

    jobs: int = 20
    sizes: tuple[int, ...] = (64, 96, 128)
    block_size: int = 32
    scheme: str = "enhanced"
    numerics: str = "real"
    fault_prob: float = 0.0
    fault_kind: str = "storage"
    seed: int = 0
    #: open loop: mean arrivals per second (None = closed loop)
    rate: float | None = None
    #: closed loop: outstanding jobs (used when rate is None)
    concurrency: int = 4

    def __post_init__(self) -> None:
        check_positive("jobs", self.jobs)
        require(bool(self.sizes), "need at least one job size")
        require(0.0 <= self.fault_prob <= 1.0, "fault_prob must be in [0, 1]")
        require(self.fault_kind in ("storage", "computing"), f"bad kind {self.fault_kind!r}")
        if self.rate is not None:
            check_positive("rate", self.rate)
        check_positive("concurrency", self.concurrency)


def make_job(cfg: LoadGenConfig, index: int) -> Job:
    """Job *index* of the workload — a pure function of ``(cfg.seed, index)``."""
    gen = derive_rng(cfg.seed, index, FAULT_RNG_KEY)
    n = int(cfg.sizes[int(gen.integers(0, len(cfg.sizes)))])
    pick = float(gen.random())
    priority = Priority.BATCH
    acc = 0.0
    for klass, weight in _PRIORITY_MIX:
        acc += weight
        if pick < acc:
            priority = klass
            break
    injector = None
    if float(gen.random()) < cfg.fault_prob:
        nb = max(1, -(-n // cfg.block_size))
        spec = CampaignSpec(nb=nb, kind=cfg.fault_kind)
        injector = sample_injector(spec, cfg.block_size, gen)
    return Job(
        job_id=index,
        n=n,
        scheme=cfg.scheme,
        priority=priority,
        block_size=cfg.block_size,
        numerics=cfg.numerics,
        seed=cfg.seed,
        injector=injector,
    )


def make_jobs(cfg: LoadGenConfig) -> list[Job]:
    return [make_job(cfg, i) for i in range(cfg.jobs)]


@dataclass
class LoadReport:
    """What a load run produced, ready to render or assert on."""

    wall_s: float
    submitted: int
    completed: int
    failed: int
    rejected: int
    corrected_errors: int
    restarts: int
    retries: int
    fallbacks: int
    p50_latency_s: float
    p90_latency_s: float
    p99_latency_s: float
    jobs_per_s: float
    gflops_served: float

    @classmethod
    def from_service(cls, service: SolveService, wall_s: float) -> "LoadReport":
        m = service.metrics
        latency = m["service_latency_seconds"]
        completed = int(m["service_jobs_completed_total"].value())
        return cls(
            wall_s=wall_s,
            submitted=int(m["service_jobs_submitted_total"].value()),
            completed=completed,
            failed=int(m["service_jobs_failed_total"].value()),
            rejected=int(m["service_jobs_rejected_total"].value()),
            corrected_errors=int(m["service_corrected_errors_total"].value()),
            restarts=int(m["service_restarts_total"].value()),
            retries=int(m["service_retries_total"].value()),
            fallbacks=int(m["service_fallbacks_total"].value()),
            p50_latency_s=latency.percentile(0.5),
            p90_latency_s=latency.percentile(0.9),
            p99_latency_s=latency.percentile(0.99),
            jobs_per_s=completed / wall_s if wall_s > 0 else 0.0,
            gflops_served=(
                m["service_useful_flops_total"].value() / wall_s / 1e9 if wall_s > 0 else 0.0
            ),
        )

    def render(self, title: str = "load report") -> str:
        rows = [
            ("wall seconds", f"{self.wall_s:.3f}"),
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("rejected", self.rejected),
            ("corrected errors", self.corrected_errors),
            ("restarts", self.restarts),
            ("retries", self.retries),
            ("fallbacks", self.fallbacks),
            ("latency p50/p90/p99 (s)", f"{self.p50_latency_s:.4f} / "
                                        f"{self.p90_latency_s:.4f} / {self.p99_latency_s:.4f}"),
            ("throughput (jobs/s)", f"{self.jobs_per_s:.2f}"),
            ("useful GFLOP/s served", f"{self.gflops_served:.3f}"),
        ]
        return render_table(["metric", "value"], rows, title=title)


async def run_open_loop(service: SolveService, cfg: LoadGenConfig) -> list[JobResult]:
    """Poisson arrivals at ``cfg.rate``; rejections are recorded, not retried."""
    require(cfg.rate is not None, "open loop needs a rate")
    gen = derive_rng(cfg.seed, ARRIVAL_RNG_KEY)
    for job in make_jobs(cfg):
        service.submit(job)
        await asyncio.sleep(float(gen.exponential(1.0 / cfg.rate)))
    await service.drain()
    return [service.results[i] for i in range(cfg.jobs) if i in service.results]


async def run_closed_loop(service: SolveService, cfg: LoadGenConfig) -> list[JobResult]:
    """Fixed outstanding window; rejected submissions honor retry-after."""
    jobs = make_jobs(cfg)
    next_index = 0
    outstanding = 0

    async def submit_next() -> None:
        nonlocal next_index, outstanding
        job = jobs[next_index]
        next_index += 1
        while True:
            decision = service.submit(job)
            if decision.accepted:
                outstanding += 1
                return
            await asyncio.sleep(decision.retry_after_s or 0.01)

    while next_index < len(jobs) and outstanding < cfg.concurrency:
        await submit_next()
    while outstanding:
        result = await service.completions.get()
        if result.status is not JobStatus.REJECTED:
            outstanding -= 1
        if next_index < len(jobs):
            await submit_next()
    return [service.results[i] for i in range(cfg.jobs) if i in service.results]


async def run_load(service: SolveService, cfg: LoadGenConfig) -> tuple[LoadReport, list[JobResult]]:
    """Drive *service* with *cfg* end to end and report."""
    # Spawn the execution backend before the clock starts so pool startup
    # cost is a fixed setup charge, not part of job 0's measured latency.
    await service.start_executor()
    try:
        service.start()
        t0 = time.monotonic()
        if cfg.rate is not None:
            results = await run_open_loop(service, cfg)
        else:
            results = await run_closed_loop(service, cfg)
    finally:
        await service.stop()
    report = LoadReport.from_service(service, time.monotonic() - t0)
    return report, results
