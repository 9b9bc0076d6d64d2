"""Worker pool and cost-model-driven job packing.

A :class:`Worker` wraps one simulated heterogeneous machine
(:class:`repro.hetero.machine.Machine`) with a concurrency limit — the
number of factorizations it executes at once (think MPS contexts / service
replicas on one node).  The :class:`Scheduler` packs each job onto the
worker with the *earliest predicted completion*:

    eta(worker) = backlog_seconds(worker) / concurrency
                  + CostModel.potrf_seconds(n, B, scheme) on that machine

so a faster GPU absorbs proportionally more traffic, and a backlogged
worker stops winning ties — the same cost-model-first philosophy the paper
applies to the CPU-vs-GPU checksum-updating placement (Section V-B),
lifted one level up to whole factorizations.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.hetero.machine import Machine
from repro.service.job import Job
from repro.util.validation import check_positive, require


class Worker:
    """One machine replica with an admission slot count."""

    def __init__(
        self, name: str, machine: Machine, concurrency: int = 1, preset: str | None = None
    ) -> None:
        check_positive("concurrency", concurrency)
        self.name = name
        self.machine = machine
        #: the machine's preset name — the form a worker identity takes
        #: across a process boundary (execution backends re-resolve it)
        self.preset = preset if preset is not None else machine.name
        self.concurrency = concurrency
        self.semaphore = asyncio.Semaphore(concurrency)
        #: predicted seconds of assigned-but-unfinished work
        self.backlog_s = 0.0
        self.inflight = 0
        self.completed = 0

    @classmethod
    def from_spec(cls, spec: str, index: int = 0) -> "Worker":
        """Parse ``preset`` or ``preset:concurrency`` (CLI ``--workers`` form)."""
        preset, _, conc = spec.partition(":")
        concurrency = int(conc) if conc else 1
        return cls(f"{preset}-{index}", Machine.preset(preset), concurrency, preset=preset)

    def estimate_seconds(self, job: Job) -> float:
        """Predicted solo execution seconds for *job* on this machine."""
        block = job.block_size or self.machine.default_block_size
        cost = self.machine.context(numerics="shadow").cost
        return cost.potrf_seconds(job.n, block, scheme=job.scheme)

    def eta_seconds(self, job: Job) -> float:
        """Predicted completion horizon if *job* were assigned now."""
        return self.backlog_s / self.concurrency + self.estimate_seconds(job)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Worker({self.name!r}, x{self.concurrency}, backlog={self.backlog_s:.3f}s)"


@dataclass
class Assignment:
    """A placement decision the service later settles with :meth:`Scheduler.complete`."""

    worker: Worker
    estimate_s: float


class Scheduler:
    """Earliest-predicted-completion packing over a fixed worker pool."""

    def __init__(self, workers: list[Worker]) -> None:
        require(bool(workers), "scheduler needs at least one worker")
        names = [w.name for w in workers]
        require(len(names) == len(set(names)), f"duplicate worker names in {names}")
        self.workers = list(workers)

    def pick(self, job: Job) -> Assignment:
        """Choose a worker for *job* and book its predicted work."""
        best = min(self.workers, key=lambda w: (w.eta_seconds(job), w.name))
        est = best.estimate_seconds(job)
        best.backlog_s += est
        best.inflight += 1
        return Assignment(worker=best, estimate_s=est)

    def book(self, worker: Worker, job: Job) -> Assignment:
        """Book *job* onto a specific worker (batch members ride with the
        batch head's pick so the whole unit shares one round-trip)."""
        est = worker.estimate_seconds(job)
        worker.backlog_s += est
        worker.inflight += 1
        return Assignment(worker=worker, estimate_s=est)

    def complete(self, assignment: Assignment) -> None:
        """Release the booked work after the job left its worker."""
        worker = assignment.worker
        worker.backlog_s = max(0.0, worker.backlog_s - assignment.estimate_s)
        worker.inflight -= 1
        worker.completed += 1

    @property
    def total_concurrency(self) -> int:
        return sum(w.concurrency for w in self.workers)

    def effective_concurrency(self, executor_capacity: int | None = None) -> int:
        """Pool-wide dispatch slots, capped by the execution backend.

        The scheduler's worker slots say how many factorizations the
        *simulated machines* admit; the execution backend says how many
        the *host* can actually run at once (1 for inline, the pool size
        for process).  Dispatching beyond the smaller bound only parks
        jobs in executor queues where admission control cannot see them,
        so the service sizes its capacity semaphore with this minimum.
        """
        total = self.total_concurrency
        if executor_capacity is None:
            return total
        require(executor_capacity >= 1, "executor capacity must be >= 1")
        return min(total, executor_capacity)
