"""Chaos campaign harness: system-level fault plans against the service.

:mod:`repro.faults.campaign` sweeps *numerical* faults (bitflips in
storage/compute) through one factorization; this module is its
system-level sibling.  Each **scenario** is a row of :data:`SCENARIOS`
that composes a fault plan out of the infrastructure failure modes the
service claims to survive — worker kill, worker wedge, shm-segment
corruption and truncation, slow-worker latency injection, queue flood,
executor-stop races, a full service-process kill-and-restart.  One
harness, :func:`run_scenario`, runs each row's deterministic job load
against a real :class:`~repro.service.core.SolveService` and asserts the
service-level invariants plus the row's own checks.

The shared invariants:

- **no lost jobs** — every submitted job reaches a terminal result;
- **no duplicated results** — terminal counters and the result map agree
  exactly (a job is completed/failed/rejected exactly once);
- **metrics consistency** — ``submitted == completed + failed + rejected``;
- **metrics monotonicity** — no counter ever decreases between a mid-run
  and a final snapshot (:func:`repro.service.metrics.counter_regressions`);
- **bit-identical factors** — every completed factor equals the inline
  fault-free reference bit for bit (chaos moves work, never changes it);
- **bounded p99** — tail latency stays under :data:`P99_BUDGET_S` even
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
from contextlib import AbstractContextManager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Coroutine, Iterable, Mapping

import numpy as np

from repro.exec.process import ProcessExecutor
from repro.experiments.stamp import run_stamp
from repro.faults.injector import burst_storage_faults
from repro.hetero.machine import Machine
from repro.magma.host import factorization_residual
from repro.resilience.breaker import BreakerPolicy, BreakerState
from repro.resilience.journal import incomplete_jobs, read_journal
from repro.runtime.executor import inject_task_delays
from repro.runtime.task import TASK_KINDS
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import Job, JobResult
from repro.service.metrics import counter_regressions
from repro.service.policy import execute_attempt, job_matrix
from repro.util.rng import resolve_rng
from repro.util.validation import require

SCHEMA_VERSION = 1
#: the scheme of every scenario job (the dag row's excepted)
SCHEME = "enhanced"
#: tail-latency invariant budget; generous — "bounded" not "fast"
P99_BUDGET_S = 60.0

Counters = dict[str, dict[str, float]]
Check = Callable[["Run"], bool]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs shared by every scenario (kept small so CI stays fast)."""

    jobs: int = 6
    n: int = 64
    block_size: int = 32
    seed: int = 7
    exec_workers: int = 2
    #: journals land here (a per-scenario temporary directory when unset)
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
        doc = asdict(self)
        del doc["name"]  # the scorecard keys rows by name
        return doc


@dataclass
class Run:
    """One scenario in flight: what a row's arm, drive, checks and notes see."""

    row: Scenario
    cfg: ChaosConfig
    #: the load the invariant battery judges
    jobs: list[Job]
    #: inline fault-free factors by job id
    refs: dict[int, np.ndarray]
    service: SolveService
    #: what a drive hands on to the row's checks and notes
    state: dict[str, Any] = field(default_factory=dict)

    def value(self, metric: str, **labels: str) -> float:
        return self.service.metrics[metric].value(**labels)

    def arm(self) -> AbstractContextManager[Any]:
        """Arm the row's fault plan; stay in its context while the load drains."""
        armed = self.row.arm(self) if self.row.arm is not None else None
        return armed if armed is not None else nullcontext()


@dataclass(frozen=True)
class Scenario:
    """One row of the chaos table: only what sets a scenario apart.

    :func:`run_scenario` supplies the rest — the load's fault-free references,
    the service, the lifecycle, the mid-run snapshot and the invariant battery.
    """

    name: str
    #: the fault plan in one line (``repro chaos --list``, the docs table)
    fault: str
    backend: str = "process"
    #: ``ServiceConfig`` overrides on top of the harness defaults
    service: Callable[[ChaosConfig], dict[str, Any]] | None = None
    #: the job load; ``cfg.jobs`` plain jobs when unset
    jobs: Callable[[ChaosConfig], list[Job]] | None = None
    #: arms the fault plan once the backend is up; may return a context
    #: manager (a hook that must stay set while the armed load drains)
    arm: Callable[[Run], AbstractContextManager[Any] | None] | None = None
    #: queue the load before the backend starts, so the armed fault hits
    #: a deterministic first batch or job
    queue_first: bool = False
    #: give the service a journal in the run's workdir
    journal: bool = False
    #: a lifecycle of its own in place of the harness's: the coroutine the
    #: harness runs, returning the mid-run counter snapshot
    drive: Callable[[Run], Coroutine[Any, Any, Counters]] | None = None
    #: the row's own invariants, by name, on top of the shared battery
    checks: Mapping[str, Check] = field(default_factory=dict)
    #: every job must complete (rows that reject, race or replay opt out)
    all_completed: bool = True
    notes: Mapping[str, Callable[[Run], Any]] = field(default_factory=dict)
    #: the references completed factors must equal bit for bit; every
    #: job's when unset
    oracle: Callable[[Run], dict[int, np.ndarray]] | None = None
    #: part of ``repro chaos --quick``
    quick: bool = False

    def own_checks(self) -> dict[str, Check]:
        """``all_completed`` where it applies, then the row's checks."""
        head: dict[str, Check] = {"all_completed": _all_completed} if self.all_completed else {}
        return head | dict(self.checks)


# -- the harness ---------------------------------------------------------------


def _jobs(cfg: ChaosConfig, count: int | None = None, id_base: int = 0, **fields: Any) -> list[Job]:
    """The scenario workload, deterministic per (seed, id); *fields* override the spec."""
    spec = dict(n=cfg.n, scheme=SCHEME, block_size=cfg.block_size, seed=cfg.seed) | fields
    return [Job(job_id=id_base + i, **spec) for i in range(cfg.jobs if count is None else count)]


def _reference_factors(jobs: list[Job]) -> dict[int, np.ndarray]:
    """Inline fault-free factors — the bit-identity oracle for every scenario."""
    machine = Machine.preset("tardis")
    return {
        job.job_id: execute_attempt(Job.from_spec(job.to_spec()), machine).factor
        for job in jobs
    }


def _results_hold(run: Run, job_ids: Iterable[int], pred: Callable[[JobResult], bool]) -> bool:
    """Every listed job has a result, and *pred* holds for each."""
    return all((r := run.service.results.get(job_id)) is not None and pred(r) for job_id in job_ids)


def _all_completed(run: Run) -> bool:
    return _results_hold(run, (job.job_id for job in run.jobs), lambda r: r.completed)


def run_scenario(row: Scenario, cfg: ChaosConfig) -> ScenarioResult:
    """Run one row of the table against a fresh service and judge it."""
    with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
        root = Path(cfg.workdir if cfg.workdir is not None else tmp)
        overrides: dict[str, Any] = dict(
            workers=(f"tardis:{cfg.exec_workers}",),
            executor=row.backend,
            exec_workers=cfg.exec_workers,
            keep_factors=True,
            job_timeout_s=30.0,
        )
        overrides.update(row.service(cfg) if row.service is not None else {})
        if row.journal:
            journal = root / f"{row.name}.journal.jsonl"
            journal.unlink(missing_ok=True)
            overrides["journal_path"] = journal
        jobs = row.jobs(cfg) if row.jobs is not None else _jobs(cfg)
        run = Run(row, cfg, jobs, _reference_factors(jobs), SolveService(ServiceConfig(**overrides)))
        t0 = time.monotonic()
        mid = asyncio.run((row.drive or _lifecycle)(run))
        return _evaluate(run, mid, time.monotonic() - t0)


async def _lifecycle(run: Run) -> Counters:
    """Queue (before or after start), arm, snapshot mid-run, drain, stop."""
    service = run.service
    early, late = (run.jobs, []) if run.row.queue_first else ([], run.jobs)
    for job in early:
        service.submit(job)
    await service.start_executor()
    try:
        with run.arm():
            service.start()
            for job in late:
                service.submit(job)
            mid = service.metrics.counters_snapshot()
            await service.drain()
        return mid
    finally:
        await service.stop()


def _evaluate(run: Run, mid: Counters, wall_s: float) -> ScenarioResult:
    """Apply the invariant battery and the row's own checks to a finished run."""
    service, jobs = run.service, run.jobs
    m = service.metrics
    submitted = int(m["service_jobs_submitted_total"].value())
    completed = int(m["service_jobs_completed_total"].value())
    failed = int(m["service_jobs_failed_total"].value())
    rejected = int(m["service_jobs_rejected_total"].value())
    regressions = counter_regressions(mid, m.counters_snapshot())

    oracle = run.row.oracle(run) if run.row.oracle is not None else run.refs
    factor_ok = True
    for job in jobs:
        result = service.results.get(job.job_id)
        if result is None or not result.completed or job.job_id not in oracle:
            continue
        if result.factor is None or not np.array_equal(result.factor, oracle[job.job_id]):
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
        "p99_bounded": m["service_latency_seconds"].percentile(0.99) <= P99_BUDGET_S,
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
    invariants.update({name: check(run) for name, check in run.row.own_checks().items()})
    violations = [key for key, ok in invariants.items() if not ok]
    violations.extend(f"counter regression: {r}" for r in regressions)
    return ScenarioResult(
        name=run.row.name,
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
        notes={name: note(run) for name, note in run.row.notes.items()},
    )


# -- drives: the four rows whose lifecycle differs -------------------------------


async def _flood(run: Run) -> Counters:
    """Flood the queue before the dispatcher runs; every rejection needs a hint."""
    service = run.service
    await service.start_executor()
    try:
        decisions = [service.submit(job) for job in run.jobs]
        run.state["hints_ok"] = all(d.accepted or (d.retry_after_s or 0) > 0 for d in decisions)
        mid = service.metrics.counters_snapshot()
        service.start()
        return mid
    finally:
        await service.stop()


async def _stop_race(run: Run) -> Counters:
    """Submit half the load, then race the other half against ``stop()``."""
    service, split = run.service, len(run.jobs) // 2
    stopper = None
    await service.start_executor()
    try:
        service.start()
        for job in run.jobs[:split]:
            service.submit(job)
        stopper = asyncio.get_running_loop().create_task(service.stop())
        for job in run.jobs[split:]:  # race the drain/close
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


async def _failover(run: Run) -> Counters:
    """Drain the armed load, wait out the probe backoff, then send two probes."""
    service = run.service
    await service.start_executor()
    try:
        with run.arm():
            service.start()
            for job in run.jobs[:-2]:
                service.submit(job)
            await service.drain()
        mid = service.metrics.counters_snapshot()
        await asyncio.sleep(0.6)  # past the probe backoff
        for job in run.jobs[-2:]:
            service.submit(job)
        return mid
    finally:
        await service.stop()


def _kill_restart(run: Run) -> Coroutine[Any, Any, Counters]:
    """Kill the service mid-run, then judge a successor on the jobs it
    recovers from the journal (``state["load"]`` keeps the full load).

    Journal replay is synchronous file I/O, so the crash gets an event loop
    of its own and the successor recovers before the harness's loop starts.
    """
    first = run.service

    async def crash() -> None:
        first.start()
        try:
            for job in run.jobs:
                first.submit(job)
            await asyncio.sleep(0)
        finally:
            await first.abort()

    asyncio.run(crash())
    done = {j for j, r in first.results.items() if r.completed}
    run.state.update(load=run.jobs, done_before_crash=done)
    # A crash can tear the journal's final line mid-append.
    with Path(first.config.journal_path).open("a", encoding="utf-8") as fh:
        fh.write('{"event": "attem')
    second = run.service = SolveService(first.config)
    run.jobs = second.recover()

    async def resume() -> Counters:
        second.start()
        try:
            return second.metrics.counters_snapshot()
        finally:
            await second.stop()

    return resume()


# -- the table: row helpers, then the rows ----------------------------------------


def _count(name: str, **labels: str) -> Callable[[Run], int]:
    """A note: the metric's final value, as an integer."""
    return lambda run: int(run.value(name, **labels))


def _at_least(floor: float, name: str, **labels: str) -> Check:
    """A check: the metric ended at *floor* or above."""
    return lambda run: run.value(name, **labels) >= floor


def _journal(run: Run) -> list[dict[str, Any]]:
    return read_journal(run.service.config.journal_path)


def _crashed_ids(run: Run) -> list[int]:
    """Batch items from the crash on (the worker answered item 0 only)."""
    return [job.job_id for job in run.jobs[1 : run.service.config.batch_max]]


def _replay_complete(run: Run) -> bool:
    load = run.state["load"]
    admitted = {r["key"] for r in _journal(run) if r["event"] == "admitted"}
    done = run.state["done_before_crash"] | {j for j, r in run.service.results.items() if r.completed}
    return {job.key for job in load} <= admitted and all(job.job_id in done for job in load)


def _random_task_delays(run: Run) -> AbstractContextManager[None]:
    gen = resolve_rng(run.cfg.seed)
    return inject_task_delays(lambda task: 0.01 * float(gen.random()))


def _task_totals(run: Run) -> dict[str, int]:
    return {kind: int(run.value("runtime_task_total", kind=kind)) for kind in TASK_KINDS}



def _repairs(run: Run) -> dict[int, bool]:
    """Factors that differ from their reference, each mapped to whether it
    passes the residual gate: an erasure-reconstructed factor is correct to
    rounding, not bit-identical."""
    repairs: dict[int, bool] = {}
    for job in run.jobs:
        result = run.service.results.get(job.job_id)
        ref = run.refs[job.job_id]
        if result is None or result.factor is None or np.array_equal(result.factor, ref):
            continue
        close = np.allclose(np.tril(result.factor), np.tril(ref), atol=1e-8)
        gate = factorization_residual(job_matrix(job), result.factor) < 1e-9
        repairs[job.job_id] = bool(close and gate)
    return repairs


def _forward_resumes(run: Run) -> list[dict[str, Any]]:
    return [r for r in _journal(run) if r["event"] == "recovery" and r.get("forward")]


def _resume_banked_work(run: Run) -> bool:
    # Every resume starts past iteration 0, so the recomputed span is
    # strictly smaller than a full restart.
    resumes = _forward_resumes(run)
    return bool(resumes) and all(r.get("resume_iteration", -1) >= 1 for r in resumes)


def _burst_jobs(cfg: ChaosConfig) -> list[Job]:
    """The plain load plus two jobs whose storage bursts hit one tile column."""
    bursts = ([((1, 0), (3, 5)), ((1, 0), (9, 5))], [((1, 1), (2, 4)), ((1, 1), (11, 4))])
    return _jobs(cfg) + [
        _jobs(cfg, count=1, id_base=cfg.jobs + k, injector=burst_storage_faults(sites, iteration=0))[0]
        for k, sites in enumerate(bursts)
    ]


def _burst_restarts(run: Run) -> list[bool]:
    return [
        (r := run.service.results.get(job.job_id)) is not None and r.restarts >= 1
        for job in run.jobs
        if job.injector is not None
    ]


_FAILOVER = {"from": "process", "to": "thread"}
_BREAKER = BreakerPolicy(failure_threshold=2, window_s=30.0, probe_backoff_s=0.4)
#: the task kinds every dag job runs, however small its matrix
_DAG_KINDS = ("potf2", "trsm", "syrk", "verify")

_ROWS = (
    # One pool slot, so the first dispatch coalesces jobs [0, batch_max)
    # into a single wire message.  The worker answers item 0, then dies on
    # item 1: the answered survivor must keep attempts == 1 while every
    # unanswered batchmate re-enters the retry ladder — a crash costs
    # exactly the work it interrupted.
    Scenario(
        name="worker_crash",
        fault="`inject_crash(at_item=1)`: a worker dies mid-batch, after answering item 0",
        service=lambda cfg: dict(
            workers=("tardis:1",), exec_workers=1, batch_max=min(3, cfg.jobs), batch_linger_s=0.05
        ),
        queue_first=True,
        arm=lambda run: run.service.executor.inject_crash(at_item=1),
        checks={
            "crash_survived": _at_least(1, "executor_worker_restarts_total", reason="crash"),
            "survivors_unaffected": lambda run: _results_hold(
                run,
                {job.job_id for job in run.jobs} - set(_crashed_ids(run)),
                lambda r: r.attempts == 1 and r.retries == 0,
            ),
            "unanswered_batchmates_retried": lambda run: _results_hold(
                run, _crashed_ids(run), lambda r: r.retries >= 1
            ),
        },
        notes={
            "worker_restarts": _count("executor_worker_restarts_total", reason="crash"),
            "batch_max": lambda run: run.service.config.batch_max,
            "crashed_jobs": _crashed_ids,
        },
        quick=True,
    ),
    Scenario(
        name="worker_wedge",
        fault="`inject_wedge(30 s)`: a worker hangs past its 1 s job deadline",
        service=lambda cfg: {"job_timeout_s": 1.0},
        jobs=lambda cfg: _jobs(cfg, count=min(cfg.jobs, 4)),
        arm=lambda run: run.service.executor.inject_wedge(30.0),
        checks={"slot_reclaimed": _at_least(1, "executor_worker_restarts_total", reason="wedged")},
        notes={"wedged_reclaims": _count("executor_worker_restarts_total", reason="wedged")},
    ),
    Scenario(
        name="slow_worker",
        fault="`inject_wedge(0.25 s, count=3)`: stalls well inside the job deadline",
        arm=lambda run: run.service.executor.inject_wedge(0.25, count=3),
        checks={"no_spurious_retries": lambda run: run.value("service_retries_total") == 0},
    ),
    Scenario(
        name="shm_corruption",
        fault="`inject_shm_corruption(count=2)`: two factors scribbled in shared memory",
        arm=lambda run: run.service.executor.inject_shm_corruption(count=2),
        checks={"crc_detected": _at_least(2, "executor_transport_errors_total", kind="corrupt_factor")},
        notes={"corruptions_caught": _count("executor_transport_errors_total", kind="corrupt_factor")},
    ),
    # Armed before any dispatch: the hit worker has no warm mapping yet,
    # so its attach deterministically fails.
    Scenario(
        name="shm_truncation",
        fault="`inject_shm_truncation()`: a segment vanishes from /dev/shm mid-dispatch",
        arm=lambda run: run.service.executor.inject_shm_truncation(),
        checks={"arena_healed": _at_least(1, "executor_transport_errors_total", kind="missing_segment")},
        notes={"segments_lost": _count("executor_transport_errors_total", kind="missing_segment")},
    ),
    Scenario(
        name="queue_flood",
        fault="3× the load submitted into a tiny queue before the dispatcher runs",
        backend="thread",
        service=lambda cfg: {"max_queue_depth": max(2, cfg.jobs // 2)},
        jobs=lambda cfg: _jobs(cfg, count=max(cfg.jobs, 3) * 3),
        drive=_flood,
        checks={
            "overload_rejected": _at_least(1, "service_jobs_rejected_total"),
            "rejections_have_retry_after": lambda run: run.state["hints_ok"],
        },
        all_completed=False,
        notes={
            "queue_depth_cap": lambda run: run.service.config.max_queue_depth,
            "rejected": _count("service_jobs_rejected_total"),
        },
    ),
    Scenario(
        name="stop_race",
        fault="half the load submitted while a concurrent `stop()` drains",
        backend="thread",
        drive=_stop_race,
        checks={"stopped_cleanly": lambda run: run.service.queue.closed},
        all_completed=False,
    ),
    # Repeated crashes open the process breaker; traffic degrades to the
    # thread backend and recovers once a half-open probe succeeds.  One
    # pool worker serializes the dispatches, so the two armed crashes hit
    # dispatches 1 and 2 and their failures are recorded back to back.  A
    # success clears the breaker's failure window, so a job finishing on a
    # second, healthy worker between the two failures would keep the
    # threshold of 2 from ever being reached.
    Scenario(
        name="breaker_failover",
        fault="`inject_crash(count=2)`: the breaker opens, then a half-open probe closes it",
        service=lambda cfg: dict(workers=("tardis:1",), exec_workers=1, failover=True, breaker=_BREAKER),
        jobs=lambda cfg: _jobs(cfg) + _jobs(cfg, count=2, id_base=100),
        arm=lambda run: run.service.executor.primary.inject_crash(count=2),
        drive=_failover,
        checks={
            "failover_observed": _at_least(1, "executor_failovers_total", **_FAILOVER),
            "recovery_observed": _at_least(1, "executor_breaker_recoveries_total", backend="process"),
            "breaker_closed_again": lambda run: run.value("executor_breaker_state", backend="process")
            == BreakerState.CLOSED.value,
        },
        notes={
            "failovers": _count("executor_failovers_total", **_FAILOVER),
            "recoveries": _count("executor_breaker_recoveries_total", backend="process"),
            "final_breaker_state": _count("executor_breaker_state", backend="process"),
            "thread_attempts": _count("executor_attempts_total", backend="thread", kind="attempt"),
        },
        quick=True,
    ),
    # The service process is killed mid-run (crash-like abort(), torn
    # journal tail included); a restarted service replays the journal and
    # completes every admitted job.
    Scenario(
        name="kill_restart",
        fault="`abort()` mid-run and a torn journal tail, then a successor's `recover()`",
        backend="thread",
        jobs=lambda cfg: _jobs(cfg, count=max(cfg.jobs, 4)),
        journal=True,
        drive=_kill_restart,
        checks={
            "journal_replay_complete": _replay_complete,
            "journal_drained": lambda run: not incomplete_jobs(_journal(run)),
            "recovered_some": lambda run: bool(run.jobs)
            or len(run.state["done_before_crash"]) == len(run.state["load"]),
            # The checks above read the journal, so a torn tail that broke
            # the reader would have raised before this one runs.
            "torn_tail_tolerated": lambda run: True,
        },
        all_completed=False,
        notes={
            "admitted": lambda run: len({r["key"] for r in _journal(run) if r["event"] == "admitted"}),
            "completed_before_crash": lambda run: len(run.state["done_before_crash"]),
            "recovered": lambda run: len(run.jobs),
            "incomplete_after_recovery": lambda run: len(incomplete_jobs(_journal(run))),
        },
        quick=True,
    ),
    # The thread backend keeps the tile runtime in-process, so the
    # module-level delay hook reaches the DagExecutor inside each job.
    # Service dag jobs run the serial schedule: the pauses stretch every
    # task of jobs running side by side, and the factor bytes and the
    # per-kind runtime metrics must not notice.  Reordered tasks under
    # random delays are pinned by tests/test_runtime_properties.py.
    Scenario(
        name="dag_slow_tasks",
        fault="`inject_task_delays`: a random 0–10 ms pause before every dag task",
        backend="thread",
        jobs=lambda cfg: _jobs(cfg, scheme="dag"),
        arm=_random_task_delays,
        checks={"runtime_tasks_counted": lambda run: min(_task_totals(run)[k] for k in _DAG_KINDS) > 0},
        notes={"task_totals": _task_totals},
    ),
    # A worker dies mid-attempt with a scribbled snapshot row; the parent
    # salvages the surviving tiles, reconstructs the CRC-failing row from
    # the checksum strips (a known-location erasure), and resumes from the
    # crashed iteration — banked work is kept, a full restart is never
    # paid.  Queued first so the armed overlay hits job 0.
    Scenario(
        name="erasure_forward_recovery",
        fault="`inject_midrun_crash(corrupt_rows=(3,))`: death after iteration 0, one row erased",
        queue_first=True,
        journal=True,
        arm=lambda run: run.service.executor.inject_midrun_crash(corrupt_rows=(3,)),
        oracle=lambda run: {jid: ref for jid, ref in run.refs.items() if jid not in _repairs(run)},
        checks={
            "forward_recovered": _at_least(1, "recovery_forward_total"),
            "erasure_reconstructed": _at_least(1, "recovery_erasure_tiles_total"),
            "repaired_factor_within_gate": lambda run: len(repairs := _repairs(run)) <= 1
            and all(repairs.values()),
            "resume_banked_work": _resume_banked_work,
        },
        notes={
            "forward": _count("recovery_forward_total"),
            "erasure_tiles": _count("recovery_erasure_tiles_total"),
            "repaired_jobs": lambda run: len(_repairs(run)),
            "resume_iterations": lambda run: [r.get("resume_iteration") for r in _forward_resumes(run)],
        },
        quick=True,
    ),
    # Losses past code capacity escalate loudly — never a silently wrong
    # factor.  Two jobs carry same-column storage bursts that defeat the
    # per-column code inside the scheme (detection forces a clean
    # in-attempt restart), and one worker dies mid-attempt with TWO
    # scribbled rows in one block row — more erasures than the snapshot's
    # strips can solve, so salvage must decline and the retry ladder
    # escalates backward to a full, fault-free retry.  Queued first: the
    # crash lands on job 0 (injector-free), the burst jobs ride behind it.
    Scenario(
        name="burst_beyond_capacity",
        fault="`inject_midrun_crash(corrupt_rows=(1, 5))` and two storage bursts, past capacity",
        jobs=_burst_jobs,
        queue_first=True,
        arm=lambda run: run.service.executor.inject_midrun_crash(corrupt_rows=(1, 5)),
        checks={
            "salvage_escalated_backward": _at_least(1, "recovery_backward_total", reason="declined"),
            "no_forward_past_capacity": lambda run: run.value("recovery_forward_total") == 0,
            "bursts_detected_in_scheme": lambda run: all(_burst_restarts(run)),
        },
        notes={
            "backward_declined": _count("recovery_backward_total", reason="declined"),
            "burst_jobs": lambda run: [job.job_id for job in run.jobs if job.injector is not None],
            "burst_restarts": _burst_restarts,
        },
        quick=True,
    ),
)

#: name → row, in scorecard order.
SCENARIOS: dict[str, Scenario] = {row.name: row for row in _ROWS}

#: a quick subset for local runs (CI runs every scenario): one crash-retry
#: path, the breaker degradation path, the kill-and-restart journal
#: recovery proof, and both sides of the erasure-recovery ladder (forward
#: resume, beyond-capacity escalation).
QUICK_SCENARIOS = tuple(name for name, row in SCENARIOS.items() if row.quick)


def markdown_table() -> str:
    """The markdown scenario table embedded in ``docs/fault_model.md``.

    Generated so the docs cannot drift from :data:`SCENARIOS` — a doc-sync
    test regenerates this and diffs it against the committed file.
    """
    lines = ["| scenario | backend | fault armed | own checks | quick |", "|---|---|---|---|---|"]
    for row in SCENARIOS.values():
        checks = ", ".join(f"`{name}`" for name in row.own_checks())
        quick = "yes" if row.quick else "no"
        lines.append(f"| `{row.name}` | {row.backend} | {row.fault} | {checks} | {quick} |")
    return "\n".join(lines)


def run_chaos(
    cfg: ChaosConfig | None = None, scenarios: tuple[str, ...] | None = None
) -> dict[str, Any]:
    """Run the chaos campaign and return the BENCH_chaos document."""
    cfg = cfg if cfg is not None else ChaosConfig()
    names = scenarios if scenarios is not None else tuple(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    require(not unknown, f"unknown chaos scenarios {unknown}; have {sorted(SCENARIOS)}")
    rows = {name: run_scenario(SCENARIOS[name], cfg).to_json() for name in names}
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "python -m repro chaos",
        "stamp": run_stamp(),
        "config": {"scheme": SCHEME, **{k: v for k, v in asdict(cfg).items() if k != "workdir"}},
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
    width = max([len("scenario"), *map(len, doc["scenarios"])])
    lines = [
        f"chaos campaign — {cfg['jobs']} jobs/scenario, n={cfg['n']}, "
        f"B={cfg['block_size']}, backend workers={cfg['exec_workers']}",
        f"  {'scenario':{width}} {'ok':>4} {'done':>5} {'fail':>5} {'rej':>4} "
        f"{'retry':>5} {'p99 ms':>8} {'wall s':>7}",
    ]
    for name, row in doc["scenarios"].items():
        lines.append(
            f"  {name:{width}} {'PASS' if row['ok'] else 'FAIL':>4} {row['completed']:>5} "
            f"{row['failed']:>5} {row['rejected']:>4} {row['retries']:>5} "
            f"{row['p99_s'] * 1e3:8.1f} {row['wall_s']:7.2f}"
        )
        for violation in row["violations"]:
            lines.append(f"      violated: {violation}")
    lines.append(f"  overall: {'PASS' if doc['ok'] else 'FAIL'}")
    return "\n".join(lines)
