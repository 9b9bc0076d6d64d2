"""Chaos campaign harness: system-level fault plans against the service.

:mod:`repro.faults.campaign` sweeps *numerical* faults (bitflips in
storage/compute) through one factorization; this module is its
system-level sibling.  Each **scenario** composes a fault plan out of the
infrastructure failure modes the service claims to survive — worker
kill, worker wedge, shm-segment corruption and truncation, slow-worker
latency injection, queue flood, executor-stop races, a full
service-process kill-and-restart — runs a deterministic job load against
a real :class:`~repro.service.core.SolveService`, and asserts the
service-level invariants.

The shared invariants:

- **no lost jobs** — every submitted job reaches a terminal result;
- **no duplicated results** — terminal counters and the result map agree
  exactly (a job is completed/failed/rejected exactly once);
- **metrics consistency** — ``submitted == completed + failed + rejected``;
- **metrics monotonicity** — no counter ever decreases between a mid-run
  and a final snapshot (:func:`repro.service.metrics.counter_regressions`);
- **bit-identical factors** — every completed factor equals the inline
  fault-free reference bit for bit (chaos moves work, never changes it);
- **bounded p99** — tail latency stays under the scenario budget even
  with the fault plan active;
- **pool whole after drain** — a process pool ends with ``capacity`` live
  workers, all idle, once ``stop()`` holds every slot, and leaves no
  worker running after it (a stranded slot or a lost replacement fails
  this).

``python -m repro chaos`` runs the scenarios and emits a
``BENCH_chaos.json`` scorecard (same stamp/history conventions as the
other BENCH documents); any invariant violation exits nonzero.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exec.process import ProcessExecutor
from repro.experiments.stamp import run_stamp
from repro.faults.injector import burst_storage_faults
from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual
from repro.resilience.breaker import BreakerPolicy, BreakerState
from repro.resilience.journal import incomplete_jobs, read_journal
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import Job, JobStatus
from repro.service.metrics import counter_regressions
from repro.service.policy import execute_attempt, job_matrix
from repro.runtime.task import TASK_KINDS
from repro.util.validation import require

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs shared by every scenario (kept small so CI stays fast)."""

    jobs: int = 6
    n: int = 64
    block_size: int = 32
    scheme: str = "enhanced"
    seed: int = 7
    exec_workers: int = 2
    #: tail-latency invariant budget; generous — "bounded" not "fast"
    p99_budget_s: float = 60.0
    #: journals land here; a fresh tempdir when unset
    workdir: str | Path | None = None


@dataclass
class ScenarioResult:
    """One scenario's scorecard row."""

    name: str
    ok: bool
    invariants: dict[str, bool]
    violations: list[str]
    submitted: int
    completed: int
    failed: int
    rejected: int
    retries: int
    p99_s: float
    wall_s: float
    notes: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "invariants": self.invariants,
            "violations": self.violations,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "retries": self.retries,
            "p99_s": self.p99_s,
            "wall_s": self.wall_s,
            "notes": self.notes,
        }


# -- shared machinery ----------------------------------------------------------


def _jobs(cfg: ChaosConfig, count: int | None = None, id_base: int = 0) -> list[Job]:
    """The scenario workload: injector-free jobs, deterministic per (seed, id)."""
    return [
        Job(
            job_id=id_base + i,
            n=cfg.n,
            scheme=cfg.scheme,
            block_size=cfg.block_size,
            seed=cfg.seed,
        )
        for i in range(count if count is not None else cfg.jobs)
    ]


def _reference_factors(jobs: list[Job]) -> dict[int, np.ndarray]:
    """Inline fault-free factors — the bit-identity oracle for every scenario."""
    machine = Machine.preset("tardis")
    return {
        job.job_id: execute_attempt(Job.from_spec(job.to_spec()), machine).factor
        for job in jobs
    }


def _service(cfg: ChaosConfig, **overrides: Any) -> SolveService:
    base: dict[str, Any] = dict(
        workers=(f"tardis:{cfg.exec_workers}",),
        executor="process",
        exec_workers=cfg.exec_workers,
        keep_factors=True,
        job_timeout_s=30.0,
    )
    base.update(overrides)
    return SolveService(ServiceConfig(**base))


def _evaluate(
    name: str,
    cfg: ChaosConfig,
    service: SolveService,
    jobs: list[Job],
    refs: dict[int, np.ndarray],
    mid_counters: dict[str, dict[str, float]],
    wall_s: float,
    extra: dict[str, bool] | None = None,
    notes: dict[str, Any] | None = None,
) -> ScenarioResult:
    """Apply the invariant battery to a finished scenario run."""
    m = service.metrics
    submitted = int(m["service_jobs_submitted_total"].value())
    completed = int(m["service_jobs_completed_total"].value())
    failed = int(m["service_jobs_failed_total"].value())
    rejected = int(m["service_jobs_rejected_total"].value())
    regressions = counter_regressions(mid_counters, m.counters_snapshot())

    factor_ok = True
    for job in jobs:
        result = service.results.get(job.job_id)
        if result is None or result.status is not JobStatus.COMPLETED:
            continue
        ref = refs.get(job.job_id)
        if ref is None:
            continue
        if result.factor is None or not np.array_equal(result.factor, ref):
            factor_ok = False

    # Executor-side consistency: every attempt was dispatched inside exactly
    # one batch unit (the batch-size histogram's mass equals the attempt
    # counter), and the arena never saw more leases than attempts — reuse
    # and miss partition the lease stream, they never double-count.
    attempts = m["executor_attempts_total"].value()
    arena_ops = m["executor_arena_reuse_total"].value() + m["executor_arena_miss_total"].value()
    executor_ok = m["executor_batch_size"].sum == attempts and arena_ops <= attempts
    # Tile-runtime consistency (the dag scheme): each per-kind duration
    # histogram carries exactly one observation per counted task — a
    # summary folded twice, or a dropped fold, breaks the equality.
    # Non-dag scenarios hold it trivially (0 == 0 per kind).
    executor_ok = executor_ok and all(
        m.histogram(f"runtime_task_seconds_{kind}").count
        == m["runtime_task_total"].value(kind=kind)
        for kind in TASK_KINDS
    )
    # Forward-recovery consistency: every salvage deliberation (forward or
    # backward) was provoked by a worker death or a transport fault — the
    # ladder never invents recovery work — and erasure reconstructions only
    # happen inside successful forward resumes.
    recoveries = m["recovery_forward_total"].value() + m["recovery_backward_total"].value()
    faults_seen = (
        m["executor_worker_restarts_total"].value()
        + m["executor_transport_errors_total"].value()
    )
    executor_ok = executor_ok and recoveries <= faults_seen
    executor_ok = executor_ok and (
        m["recovery_erasure_tiles_total"].value() == 0
        or m["recovery_forward_total"].value() >= 1
    )

    invariants = {
        "no_lost_jobs": all(job.job_id in service.results for job in jobs),
        "no_duplicate_results": (completed + failed + rejected) == len(service.results),
        "metrics_consistent": submitted == completed + failed + rejected,
        "executor_metrics_consistent": executor_ok,
        "metrics_monotonic": not regressions,
        "factors_bit_identical": factor_ok,
        "p99_bounded": m["service_latency_seconds"].percentile(0.99) <= cfg.p99_budget_s,
    }
    pools = [
        member
        for member in getattr(service.executor, "chain", [service.executor])
        if isinstance(member, ProcessExecutor)
    ]
    if pools:
        leftover = [p for p in multiprocessing.active_children() if p.name.startswith("repro-exec-")]
        invariants["pool_whole_after_drain"] = not leftover and all(
            pool.drained_pool == (pool.capacity, pool.capacity) for pool in pools
        )
    invariants.update(extra or {})
    violations = [key for key, ok in invariants.items() if not ok]
    violations.extend(f"counter regression: {r}" for r in regressions)
    return ScenarioResult(
        name=name,
        ok=not violations,
        invariants=invariants,
        violations=violations,
        submitted=submitted,
        completed=completed,
        failed=failed,
        rejected=rejected,
        retries=int(m["service_retries_total"].value()),
        p99_s=m["service_latency_seconds"].percentile(0.99),
        wall_s=wall_s,
        notes=notes or {},
    )


async def _drive(service: SolveService, jobs: list[Job]) -> dict[str, dict[str, float]]:
    """Submit everything, snapshot counters mid-run, drain to completion."""
    await service.start_executor()
    try:
        service.start()
        for job in jobs:
            service.submit(job)
        # Snapshot before the drain; the return routes through the finally.
        return service.metrics.counters_snapshot()
    finally:
        await service.stop()


def _all_completed(service: SolveService, jobs: list[Job]) -> bool:
    return all(
        (r := service.results.get(job.job_id)) is not None and r.status is JobStatus.COMPLETED
        for job in jobs
    )


# -- scenarios -----------------------------------------------------------------


def scenario_worker_crash(cfg: ChaosConfig) -> ScenarioResult:
    """A worker is OOM-killed mid-batch; only the unanswered items retry.

    Capacity is pinned to one slot so the first dispatch deterministically
    coalesces jobs ``[0, batch_max)`` into a single wire message.  The
    worker answers item 0, then dies on item 1: the answered survivor must
    keep ``attempts == 1`` while every unanswered batchmate re-enters the
    retry ladder — a crash costs exactly the work it interrupted.
    """
    jobs = _jobs(cfg)
    refs = _reference_factors(jobs)
    batch_max = min(3, cfg.jobs)
    crashed_ids = [jobs[i].job_id for i in range(1, batch_max)]
    survivor_ids = [job.job_id for job in jobs if job.job_id not in crashed_ids]
    service = _service(
        cfg,
        workers=("tardis:1",),
        exec_workers=1,
        batch_max=batch_max,
        batch_linger_s=0.05,
    )
    t0 = time.monotonic()

    async def run() -> dict:
        # Queue everything before the dispatch loop starts so the first
        # unit sees a full queue and coalesces a deterministic batch.
        for job in jobs:
            service.submit(job)
        await service.start_executor()
        try:
            service.executor.inject_crash(count=1, at_item=1)
            service.start()
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    restarts = service.metrics["executor_worker_restarts_total"].value(reason="crash")
    results = service.results
    survivors_untouched = all(
        (r := results.get(job_id)) is not None and r.attempts == 1 and r.retries == 0
        for job_id in survivor_ids
    )
    unanswered_retried = all(
        (r := results.get(job_id)) is not None and r.retries >= 1 for job_id in crashed_ids
    )
    return _evaluate(
        "worker_crash",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={
            "all_completed": _all_completed(service, jobs),
            "crash_survived": restarts >= 1,
            "survivors_unaffected": survivors_untouched,
            "unanswered_batchmates_retried": unanswered_retried,
        },
        notes={
            "worker_restarts": restarts,
            "batch_max": batch_max,
            "crashed_jobs": crashed_ids,
        },
    )


def scenario_worker_wedge(cfg: ChaosConfig) -> ScenarioResult:
    """A worker wedges in native code; the deadline reclaims its slot."""
    jobs = _jobs(cfg, count=min(cfg.jobs, 4))
    refs = _reference_factors(jobs)
    service = _service(cfg, job_timeout_s=1.0)
    t0 = time.monotonic()

    async def run() -> dict:
        await service.start_executor()
        try:
            service.executor.inject_wedge(30.0)
            service.start()
            for job in jobs:
                service.submit(job)
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    reclaimed = service.metrics["executor_worker_restarts_total"].value(reason="wedged")
    return _evaluate(
        "worker_wedge",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={"all_completed": _all_completed(service, jobs), "slot_reclaimed": reclaimed >= 1},
        notes={"wedged_reclaims": reclaimed},
    )


def scenario_slow_worker(cfg: ChaosConfig) -> ScenarioResult:
    """Latency injection: short stalls that must *not* trip timeouts."""
    jobs = _jobs(cfg)
    refs = _reference_factors(jobs)
    service = _service(cfg)
    t0 = time.monotonic()

    async def run() -> dict:
        await service.start_executor()
        try:
            service.executor.inject_wedge(0.25, count=3)
            service.start()
            for job in jobs:
                service.submit(job)
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    return _evaluate(
        "slow_worker",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={
            "all_completed": _all_completed(service, jobs),
            "no_spurious_retries": service.metrics["service_retries_total"].value() == 0,
        },
    )


def scenario_shm_corruption(cfg: ChaosConfig) -> ScenarioResult:
    """Factors are scribbled on in shared memory; CRC catches every one."""
    jobs = _jobs(cfg)
    refs = _reference_factors(jobs)
    service = _service(cfg)
    t0 = time.monotonic()

    async def run() -> dict:
        await service.start_executor()
        try:
            service.executor.inject_shm_corruption(count=2)
            service.start()
            for job in jobs:
                service.submit(job)
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    caught = service.metrics["executor_transport_errors_total"].value(kind="corrupt_factor")
    return _evaluate(
        "shm_corruption",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={"all_completed": _all_completed(service, jobs), "crc_detected": caught >= 2},
        notes={"corruptions_caught": caught},
    )


def scenario_shm_truncation(cfg: ChaosConfig) -> ScenarioResult:
    """A segment vanishes from /dev/shm mid-dispatch; the arena heals."""
    jobs = _jobs(cfg)
    refs = _reference_factors(jobs)
    service = _service(cfg)
    t0 = time.monotonic()

    async def run() -> dict:
        await service.start_executor()
        try:
            # Armed before any dispatch: the hit worker has no warm mapping
            # yet, so its attach deterministically fails.
            service.executor.inject_shm_truncation(count=1)
            service.start()
            for job in jobs:
                service.submit(job)
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    lost = service.metrics["executor_transport_errors_total"].value(kind="missing_segment")
    return _evaluate(
        "shm_truncation",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={"all_completed": _all_completed(service, jobs), "arena_healed": lost >= 1},
        notes={"segments_lost": lost},
    )


def scenario_queue_flood(cfg: ChaosConfig) -> ScenarioResult:
    """Overload: a tiny queue is flooded; rejects carry retry-after hints."""
    jobs = _jobs(cfg, count=max(cfg.jobs, 3) * 3)
    refs = _reference_factors(jobs[: cfg.jobs])
    depth = max(2, cfg.jobs // 2)
    service = _service(cfg, executor="thread", max_queue_depth=depth)
    t0 = time.monotonic()
    hints_ok = True

    async def run() -> dict:
        nonlocal hints_ok
        await service.start_executor()
        try:
            for job in jobs:  # flood before the dispatcher even runs
                decision = service.submit(job)
                if not decision.accepted and not (decision.retry_after_s or 0) > 0:
                    hints_ok = False
            mid = service.metrics.counters_snapshot()
            service.start()
            return mid
        finally:
            await service.stop()

    mid = asyncio.run(run())
    rejected = int(service.metrics["service_jobs_rejected_total"].value())
    return _evaluate(
        "queue_flood",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={
            "overload_rejected": rejected > 0,
            "rejections_have_retry_after": hints_ok,
        },
        notes={"queue_depth_cap": depth, "rejected": rejected},
    )


def scenario_stop_race(cfg: ChaosConfig) -> ScenarioResult:
    """Submissions race a concurrent stop(); nothing hangs or vanishes."""
    jobs = _jobs(cfg)
    split = len(jobs) // 2
    refs = _reference_factors(jobs)
    service = _service(cfg, executor="thread")
    t0 = time.monotonic()

    async def run() -> dict:
        stopper = None
        await service.start_executor()
        try:
            service.start()
            for job in jobs[:split]:
                service.submit(job)
            stopper = asyncio.get_running_loop().create_task(service.stop())
            for job in jobs[split:]:  # race the drain/close
                service.submit(job)
                await asyncio.sleep(0)
            mid = service.metrics.counters_snapshot()
            await stopper
            return mid
        finally:
            # Idempotent backstop for a failure before the stop task
            # spawned (stop() tolerates racing the stopper task).
            await service.stop()
            if stopper is not None:
                await asyncio.gather(stopper, return_exceptions=True)

    mid = asyncio.run(run())
    return _evaluate(
        "stop_race",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={"stopped_cleanly": service.queue.closed},
    )


def scenario_breaker_failover(cfg: ChaosConfig) -> ScenarioResult:
    """Repeated crashes open the process breaker; traffic degrades to the
    thread backend and recovers back once a half-open probe succeeds.

    One pool worker serializes the dispatches, so the two armed crashes
    hit dispatches 1 and 2 and their failures are recorded back to back.
    A success clears the breaker's failure window, so a job finishing on a
    second, healthy worker between the two failures would keep the
    threshold of 2 from ever being reached.
    """
    jobs = _jobs(cfg)
    recovery_jobs = _jobs(cfg, count=2, id_base=100)
    refs = _reference_factors(jobs + recovery_jobs)
    service = _service(
        cfg,
        workers=("tardis:1",),
        exec_workers=1,
        failover=True,
        breaker=BreakerPolicy(failure_threshold=2, window_s=30.0, probe_backoff_s=0.4),
    )
    t0 = time.monotonic()

    async def run() -> dict:
        await service.start_executor()
        try:
            service.executor.primary.inject_crash(count=2)
            service.start()
            for job in jobs:
                service.submit(job)
            await service.drain()
            mid = service.metrics.counters_snapshot()
            await asyncio.sleep(0.6)  # past the probe backoff
            for job in recovery_jobs:
                service.submit(job)
            return mid
        finally:
            await service.stop()

    mid = asyncio.run(run())
    m = service.metrics
    failovers = m["executor_failovers_total"].value(**{"from": "process", "to": "thread"})
    recoveries = m["executor_breaker_recoveries_total"].value(backend="process")
    final_state = m["executor_breaker_state"].value(backend="process")
    return _evaluate(
        "breaker_failover",
        cfg,
        service,
        jobs + recovery_jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={
            "all_completed": _all_completed(service, jobs + recovery_jobs),
            "failover_observed": failovers >= 1,
            "recovery_observed": recoveries >= 1,
            "breaker_closed_again": final_state == BreakerState.CLOSED.value,
        },
        notes={
            "failovers": failovers,
            "recoveries": recoveries,
            "final_breaker_state": final_state,
            "thread_attempts": m["executor_attempts_total"].value(backend="thread", kind="attempt"),
        },
    )


def scenario_kill_restart(cfg: ChaosConfig) -> ScenarioResult:
    """The service process is killed mid-run (crash-like ``abort()``, torn
    journal tail included); a restarted service replays the journal and
    completes every admitted job."""
    workdir = Path(cfg.workdir) if cfg.workdir is not None else Path(tempfile.mkdtemp(prefix="chaos-"))
    journal_path = workdir / "kill_restart.journal.jsonl"
    if journal_path.exists():
        journal_path.unlink()
    jobs = _jobs(cfg, count=max(cfg.jobs, 4))
    refs = _reference_factors(jobs)
    t0 = time.monotonic()

    # Phase 1: admit everything, let a little work start, then die hard.
    first = _service(cfg, executor="thread", journal_path=journal_path)

    async def crash_phase() -> None:
        first.start()
        try:
            for job in jobs:
                first.submit(job)
            await asyncio.sleep(0)
        finally:
            await first.abort()

    asyncio.run(crash_phase())
    phase1_done = {jid for jid, r in first.results.items() if r.status is JobStatus.COMPLETED}
    # A crash can tear the journal's final line mid-append.
    with journal_path.open("a", encoding="utf-8") as fh:
        fh.write('{"event": "attem')

    # Phase 2: a fresh instance recovers and finishes the job backlog.
    second = _service(cfg, executor="thread", journal_path=journal_path)
    # Journal replay is synchronous file I/O — run it before entering the
    # event loop (recover() is documented to work before start()).
    recovered: list[Job] = second.recover()

    async def recover_phase() -> dict:
        second.start()
        try:
            return second.metrics.counters_snapshot()
        finally:
            await second.stop()

    mid = asyncio.run(recover_phase())
    wall = time.monotonic() - t0

    admitted_keys = {
        r["key"] for r in read_journal(journal_path) if r["event"] == "admitted"
    }
    done_ids = phase1_done | {
        jid for jid, r in second.results.items() if r.status is JobStatus.COMPLETED
    }
    replay_complete = {job.key for job in jobs} <= admitted_keys and all(
        job.job_id in done_ids for job in jobs
    )
    leftover = incomplete_jobs(read_journal(journal_path))
    result = _evaluate(
        "kill_restart",
        cfg,
        second,
        recovered,
        refs,
        mid,
        wall,
        extra={
            "journal_replay_complete": replay_complete,
            "journal_drained": not leftover,
            "recovered_some": bool(recovered) or len(phase1_done) == len(jobs),
            "torn_tail_tolerated": True,  # read_journal above would have raised
        },
        notes={
            "admitted": len(admitted_keys),
            "completed_before_crash": len(phase1_done),
            "recovered": len(recovered),
            "incomplete_after_recovery": len(leftover),
        },
    )
    return result


def scenario_dag_worker_stall(cfg: ChaosConfig) -> ScenarioResult:
    """One tile-runtime worker thread wedges inside a ``dag`` job; the
    runtime watchdog replaces it and the factorization completes with
    the factor bytes unchanged.

    The thread backend keeps the runtime in-process, so the module-level
    stall hook reaches the :class:`~repro.runtime.executor.DagExecutor`
    inside the pool worker.  Per-task delays stretch the first job past
    the watchdog timeout — on a fast host the bare nb=2 factorization
    would finish before the stalled worker ever looked stale.
    """
    from repro.runtime.executor import inject_task_delays, inject_worker_stall

    jobs = [
        Job(
            job_id=i,
            n=cfg.n,
            scheme="dag",
            block_size=cfg.block_size,
            seed=cfg.seed,
            intra_workers=2,
        )
        for i in range(cfg.jobs)
    ]
    refs = _reference_factors(jobs)
    service = _service(cfg, executor="thread", intra_workers=2)
    t0 = time.monotonic()

    async def run() -> dict:
        with inject_task_delays(lambda task: 0.01):
            with inject_worker_stall(worker=0, seconds=0.5, timeout_s=0.02) as hook:
                mid = await _drive(service, jobs)
        return {"mid": mid, "fired": hook["fired"].is_set()}

    out = asyncio.run(run())
    m = service.metrics
    stalls = m["runtime_worker_stalls_total"].value()
    task_totals = {kind: int(m["runtime_task_total"].value(kind=kind)) for kind in TASK_KINDS}
    return _evaluate(
        "dag_worker_stall",
        cfg,
        service,
        jobs,
        refs,
        out["mid"],
        time.monotonic() - t0,
        extra={
            "all_completed": _all_completed(service, jobs),
            "stall_injected": out["fired"],
            "stall_detected": stalls >= 1,
            "runtime_tasks_counted": all(
                task_totals[kind] > 0 for kind in ("potf2", "trsm", "syrk", "verify")
            ),
        },
        notes={"runtime_stalls": int(stalls), "task_totals": task_totals},
    )


def scenario_erasure_forward_recovery(cfg: ChaosConfig) -> ScenarioResult:
    """A worker dies mid-attempt with a scribbled snapshot row; the parent
    salvages the surviving tiles, reconstructs the CRC-failing row from the
    checksum strips (a known-location erasure), and resumes from the crashed
    iteration — banked work is kept, a full restart is never paid."""
    workdir = (
        Path(cfg.workdir) if cfg.workdir is not None else Path(tempfile.mkdtemp(prefix="chaos-"))
    )
    journal_path = workdir / "erasure_forward.journal.jsonl"
    if journal_path.exists():
        journal_path.unlink()
    jobs = _jobs(cfg)
    refs = _reference_factors(jobs)
    service = _service(cfg, journal_path=journal_path)
    t0 = time.monotonic()

    async def run() -> dict:
        # Queue first so the armed overlay deterministically hits job 0.
        for job in jobs:
            service.submit(job)
        await service.start_executor()
        try:
            service.executor.inject_midrun_crash(after_iteration=0, count=1, corrupt_rows=(3,))
            service.start()
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    m = service.metrics
    forward = int(m["recovery_forward_total"].value())
    erasure_tiles = int(m["recovery_erasure_tiles_total"].value())
    # An erasure-reconstructed factor is correct to rounding, not bit-identical;
    # hold it to the residual gate and keep bit-identity for everyone else.
    exact_refs: dict[int, np.ndarray] = {}
    repaired = 0
    repaired_ok = True
    for job in jobs:
        result = service.results.get(job.job_id)
        ref = refs[job.job_id]
        if result is None or result.factor is None:
            continue
        if np.array_equal(result.factor, ref):
            exact_refs[job.job_id] = ref
            continue
        repaired += 1
        close = np.allclose(np.tril(result.factor), np.tril(ref), atol=1e-8)
        gate = factorization_residual(job_matrix(job), result.factor) < 1e-9
        repaired_ok = repaired_ok and close and gate
    recovery_records = [
        r for r in read_journal(journal_path) if r["event"] == "recovery" and r.get("forward")
    ]
    # Forward recovery must bank work: every resume starts past iteration 0,
    # so the recomputed span is strictly smaller than a restart from scratch.
    work_banked = bool(recovery_records) and all(
        r.get("resume_iteration", -1) >= 1 for r in recovery_records
    )
    return _evaluate(
        "erasure_forward_recovery",
        cfg,
        service,
        jobs,
        exact_refs,
        mid,
        time.monotonic() - t0,
        extra={
            "all_completed": _all_completed(service, jobs),
            "forward_recovered": forward >= 1,
            "erasure_reconstructed": erasure_tiles >= 1,
            "repaired_factor_within_gate": repaired <= 1 and repaired_ok,
            "resume_banked_work": work_banked,
        },
        notes={
            "forward": forward,
            "erasure_tiles": erasure_tiles,
            "repaired_jobs": repaired,
            "resume_iterations": [r.get("resume_iteration") for r in recovery_records],
        },
    )


def scenario_burst_beyond_capacity(cfg: ChaosConfig) -> ScenarioResult:
    """Losses past code capacity escalate loudly — never a silently wrong factor.

    Two jobs carry same-column storage bursts that defeat the per-column
    code inside the scheme (detection forces a clean in-attempt restart),
    and one worker dies mid-attempt with TWO scribbled rows in one block
    row — more erasures than the snapshot's strips can solve, so salvage
    must decline and the retry ladder escalates backward to a full,
    fault-free retry.  Every job still completes bit-identically:
    beyond-capacity damage costs time, never correctness.
    """
    jobs = _jobs(cfg)
    burst_ids = []
    for offset, sites in enumerate(
        ([((1, 0), (3, 5)), ((1, 0), (9, 5))], [((1, 1), (2, 4)), ((1, 1), (11, 4))])
    ):
        job_id = cfg.jobs + offset
        burst_ids.append(job_id)
        jobs.append(
            Job(
                job_id=job_id,
                n=cfg.n,
                scheme=cfg.scheme,
                block_size=cfg.block_size,
                seed=cfg.seed,
                injector=burst_storage_faults(sites, iteration=0),
            )
        )
    refs = _reference_factors(jobs)  # specs drop injectors: fault-free oracles
    service = _service(cfg)
    t0 = time.monotonic()

    async def run() -> dict:
        # Queue first: the beyond-capacity crash overlay lands on job 0
        # (injector-free), the burst jobs ride in the same load behind it.
        for job in jobs:
            service.submit(job)
        await service.start_executor()
        try:
            service.executor.inject_midrun_crash(
                after_iteration=0, count=1, corrupt_rows=(1, 5)
            )
            service.start()
            return service.metrics.counters_snapshot()
        finally:
            await service.stop()

    mid = asyncio.run(run())
    m = service.metrics
    forward = int(m["recovery_forward_total"].value())
    backward = int(m["recovery_backward_total"].value(reason="declined"))
    burst_restarts = [
        (r := service.results.get(job_id)) is not None and r.restarts >= 1
        for job_id in burst_ids
    ]
    return _evaluate(
        "burst_beyond_capacity",
        cfg,
        service,
        jobs,
        refs,
        mid,
        time.monotonic() - t0,
        extra={
            "all_completed": _all_completed(service, jobs),
            "salvage_escalated_backward": backward >= 1,
            "no_forward_past_capacity": forward == 0,
            "bursts_detected_in_scheme": all(burst_restarts),
        },
        notes={
            "backward_declined": backward,
            "burst_jobs": burst_ids,
            "burst_restarts": burst_restarts,
        },
    )


#: name → scenario, in scorecard order.
SCENARIOS: dict[str, Callable[[ChaosConfig], ScenarioResult]] = {
    "worker_crash": scenario_worker_crash,
    "worker_wedge": scenario_worker_wedge,
    "slow_worker": scenario_slow_worker,
    "shm_corruption": scenario_shm_corruption,
    "shm_truncation": scenario_shm_truncation,
    "queue_flood": scenario_queue_flood,
    "stop_race": scenario_stop_race,
    "breaker_failover": scenario_breaker_failover,
    "kill_restart": scenario_kill_restart,
    "dag_worker_stall": scenario_dag_worker_stall,
    "erasure_forward_recovery": scenario_erasure_forward_recovery,
    "burst_beyond_capacity": scenario_burst_beyond_capacity,
}

#: a quick subset for local runs (CI runs every scenario): one crash-retry
#: path, the breaker degradation path, the kill-and-restart journal
#: recovery proof, and both sides of the erasure-recovery ladder (forward
#: resume, beyond-capacity escalation).
QUICK_SCENARIOS = (
    "worker_crash",
    "breaker_failover",
    "kill_restart",
    "erasure_forward_recovery",
    "burst_beyond_capacity",
)


def run_chaos(
    cfg: ChaosConfig | None = None, scenarios: tuple[str, ...] | None = None
) -> dict[str, Any]:
    """Run the chaos campaign and return the BENCH_chaos document."""
    cfg = cfg if cfg is not None else ChaosConfig()
    names = scenarios if scenarios is not None else tuple(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    require(not unknown, f"unknown chaos scenarios {unknown}; have {sorted(SCENARIOS)}")
    rows: dict[str, Any] = {}
    for name in names:
        rows[name] = SCENARIOS[name](cfg).to_json()
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "python -m repro chaos",
        "stamp": run_stamp(),
        "config": {
            "jobs": cfg.jobs,
            "n": cfg.n,
            "block_size": cfg.block_size,
            "scheme": cfg.scheme,
            "seed": cfg.seed,
            "exec_workers": cfg.exec_workers,
        },
        "scenarios": rows,
        "ok": all(row["ok"] for row in rows.values()),
    }


def write(doc: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def render(doc: dict[str, Any]) -> str:
    """Human summary of one chaos scorecard."""
    cfg = doc["config"]
    lines = [
        f"chaos campaign — {cfg['jobs']} jobs/scenario, n={cfg['n']}, "
        f"B={cfg['block_size']}, backend workers={cfg['exec_workers']}",
        f"  {'scenario':18} {'ok':>4} {'done':>5} {'fail':>5} {'rej':>4} "
        f"{'retry':>5} {'p99 ms':>8} {'wall s':>7}",
    ]
    for name, row in doc["scenarios"].items():
        lines.append(
            f"  {name:18} {'PASS' if row['ok'] else 'FAIL':>4} {row['completed']:>5} "
            f"{row['failed']:>5} {row['rejected']:>4} {row['retries']:>5} "
            f"{row['p99_s'] * 1e3:8.1f} {row['wall_s']:7.2f}"
        )
        for violation in row["violations"]:
            lines.append(f"      violated: {violation}")
    lines.append(f"  overall: {'PASS' if doc['ok'] else 'FAIL'}")
    return "\n".join(lines)
