"""The asyncio solve service: admission → queue → scheduler → ABFT execution.

One :class:`SolveService` owns a :class:`~repro.service.queue.JobQueue`, a
:class:`~repro.service.scheduler.Scheduler` over simulated heterogeneous
workers, a :class:`~repro.service.metrics.MetricsRegistry`, and the
fault-handling ladder of :mod:`repro.service.policy`.  Factorizations are
blocking (NumPy + the discrete-event simulator), so each attempt is handed
to a pluggable execution backend (:mod:`repro.exec` — inline, thread pool,
or multicore process pool) under an ``asyncio.wait_for`` timeout;
everything else — admission, packing, backoff, metrics — happens on the
event loop.

Determinism: a job's randomness (input matrix, fault plans) is derived
from ``(job.seed, job.job_id)`` alone (:func:`repro.util.rng.derive_rng`),
never from shared generators, so results are identical whether jobs run
serially or interleaved across the pool.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

from typing import TYPE_CHECKING

from repro.analysis.trace_io import dump_trace
from repro.desim.trace import META_JOB, Span, Timeline
from repro.service.batching import BatchCoalescer
from repro.service.job import Job, JobResult, JobStatus, Priority
from repro.service.metrics import MetricsRegistry
from repro.service.policy import AttemptOutcome, RetryPolicy
from repro.service.queue import AdmissionDecision, JobQueue
from repro.service.scheduler import Scheduler, Worker
from repro.util.exceptions import ReproError
from repro.util.validation import check_positive, require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.breaker import BreakerPolicy
    from repro.resilience.journal import JobJournal


@dataclass(frozen=True)
class ServiceConfig:
    """Wiring for one service instance."""

    workers: tuple[str, ...] = ("tardis:2",)
    max_queue_depth: int = 64
    class_limits: dict[Priority, int] | None = None
    job_timeout_s: float = 120.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: real-mode jobs whose end-to-end residual exceeds this are *failed*,
    #: never silently returned — the service-level "no incorrect results"
    #: contract on top of ABFT's own detection
    residual_tolerance: float = 1e-8
    #: when set, every completed job's timeline is dumped here as
    #: ``job-<id>.json`` (trace schema v2, spans tagged with the job id);
    #: unset, real-mode attempts skip the simulated machine altogether
    trace_dir: str | Path | None = None
    #: execution backend for blocking attempts: ``inline`` | ``thread`` |
    #: ``process`` (see :mod:`repro.exec`); ``thread`` is the historical
    #: single-process behaviour
    executor: str = "thread"
    #: backend concurrency (thread-pool width / process-pool size);
    #: ``None`` sizes it to the scheduler's total worker concurrency
    exec_workers: int | None = None
    #: most queued jobs one dispatch unit may coalesce into a single
    #: executor round-trip (1 = batching off); batches never mix
    #: priority classes and never reorder the queue (see
    #: :mod:`repro.service.batching`)
    batch_max: int = 1
    #: longest a partially filled batch waits for compatible stragglers
    #: before dispatching (seconds) — the coalescing latency budget
    batch_linger_s: float = 0.0
    #: when set, every job lifecycle transition is journaled here
    #: (append-only JSONL WAL) and a restarted service can ``recover()``
    #: admitted-but-unfinished jobs from it
    journal_path: str | Path | None = None
    #: wrap the executor in a circuit-breaker failover chain
    #: (``process → thread → inline`` below the configured backend) so a
    #: repeatedly failing backend degrades instead of eating retries
    failover: bool = False
    #: breaker tuning for the failover chain (defaults apply when ``None``)
    breaker: "BreakerPolicy | None" = None
    #: keep each completed job's factor on its :class:`JobResult` — the
    #: chaos harness compares factors bit-for-bit across scenarios
    keep_factors: bool = False

    def __post_init__(self) -> None:
        require(bool(self.workers), "need at least one worker spec")
        check_positive("max_queue_depth", self.max_queue_depth)
        check_positive("job_timeout_s", self.job_timeout_s)
        check_positive("residual_tolerance", self.residual_tolerance)
        from repro.exec.base import BACKENDS

        require(
            self.executor in BACKENDS,
            f"unknown executor {self.executor!r}; have {BACKENDS}",
        )
        if self.exec_workers is not None:
            check_positive("exec_workers", self.exec_workers)
        require(self.batch_max >= 1, "batch_max must be >= 1")
        require(self.batch_linger_s >= 0.0, "batch_linger_s must be >= 0")


def tag_timeline(timeline: Timeline, job_id: int) -> Timeline:
    """A copy of *timeline* with every span's meta carrying the job id."""
    spans = [
        Span(
            tid=s.tid,
            name=s.name,
            kind=s.kind,
            resource=s.resource,
            start=s.start,
            finish=s.finish,
            meta={**s.meta, META_JOB: int(job_id)},
            deps=s.deps,
        )
        for s in timeline
    ]
    return Timeline(spans)


class SolveService:
    """Accepts solve jobs and runs them fault-tolerantly across the pool."""

    def __init__(self, config: ServiceConfig, metrics: MetricsRegistry | None = None) -> None:
        from repro.exec import make_executor

        self.config = config
        self.queue = JobQueue(
            max_depth=config.max_queue_depth, class_limits=config.class_limits
        )
        self.scheduler = Scheduler(
            [Worker.from_spec(spec, i) for i, spec in enumerate(config.workers)]
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        exec_workers = (
            config.exec_workers
            if config.exec_workers is not None
            else self.scheduler.total_concurrency
        )
        if config.failover:
            from repro.resilience.breaker import failover_chain

            self.executor = failover_chain(
                config.executor,
                workers=exec_workers,
                metrics=self.metrics,
                policy=config.breaker,
            )
        else:
            self.executor = make_executor(
                config.executor, workers=exec_workers, metrics=self.metrics
            )
        self.journal: JobJournal | None = None
        if config.journal_path is not None:
            from repro.resilience.journal import JobJournal

            self.journal = JobJournal(config.journal_path)
        #: pool-wide slot count; the dispatcher holds a slot per dequeued job
        #: so the queue visibly backs up (and depth-based admission control
        #: engages) once every worker is saturated — capped by the execution
        #: backend's real host-side parallelism
        self._capacity = asyncio.Semaphore(
            self.scheduler.effective_concurrency(self.executor.capacity)
        )
        self._coalescer = BatchCoalescer(config.batch_max, config.batch_linger_s)
        self.results: dict[int, JobResult] = {}
        #: real-mode attempts record a timeline only when it will be dumped
        self._timeline = config.trace_dir is not None
        self.completions: asyncio.Queue[JobResult] = asyncio.Queue()
        self._inflight: set[asyncio.Task] = set()
        self._dispatcher: asyncio.Task | None = None
        m = self.metrics
        self._submitted = m.counter("service_jobs_submitted_total", "jobs offered to admission")
        self._rejected = m.counter("service_jobs_rejected_total", "jobs rejected by admission")
        self._completed = m.counter("service_jobs_completed_total", "jobs completed")
        self._failed = m.counter("service_jobs_failed_total", "jobs failed after the full ladder")
        self._corrections = m.counter("service_corrected_errors_total", "ABFT corrections")
        self._restarts = m.counter("service_restarts_total", "scheme-level restarts/rollbacks")
        self._retries = m.counter("service_retries_total", "service-level retries")
        self._fallbacks = m.counter("service_fallbacks_total", "checkpoint-baseline fallbacks")
        self._recovery_forward = m.counter(
            "recovery_forward_total", "attempts recovered forward from salvaged snapshots"
        )
        self._recovery_backward = m.counter(
            "recovery_backward_total", "salvage deliberations that escalated to restart"
        )
        self._recovery_erasure_tiles = m.counter(
            "recovery_erasure_tiles_total", "tiles reconstructed from known-row erasures"
        )
        self._timeouts = m.counter("service_timeouts_total", "attempts cancelled by timeout")
        self._incorrect = m.counter(
            "service_incorrect_results_total", "completed factorizations failing the residual gate"
        )
        self._flops = m.counter("service_useful_flops_total", "useful flops of completed jobs")
        self._runtime_tasks = m.counter(
            "runtime_task_total", "tile-DAG runtime tasks executed, by kind"
        )
        self._runtime_ready_depth = m.gauge(
            "runtime_ready_queue_depth", "high-water ready-task count in the tile runtime"
        )
        self._runtime_lookahead = m.gauge(
            "runtime_lookahead_depth", "high-water iteration lookahead the runtime reached"
        )
        self._journal_records = m.counter(
            "service_journal_records_total", "job lifecycle records appended to the journal"
        )
        self._recovered = m.counter(
            "service_jobs_recovered_total", "jobs resubmitted from journal replay"
        )
        self._depth = m.gauge("service_queue_depth", "queued jobs by class")
        self._inflight_g = m.gauge("service_inflight_jobs", "jobs currently executing")
        self._wait_h = m.histogram("service_wait_seconds", "admission-to-execution wait")
        self._exec_h = m.histogram("service_exec_seconds", "execution wall seconds")
        self._latency_h = m.histogram("service_latency_seconds", "submit-to-done latency")
        self._makespan_h = m.histogram(
            "service_sim_makespan_seconds",
            "simulated device makespan per job (traced or shadow jobs; never dag)",
        )

    # -- journal -----------------------------------------------------------------

    def _journal_record(self, event: str, job: Job, **fields: object) -> None:
        if self.journal is None or self.journal.closed:
            return
        self.journal.record(event, job.key, **fields)
        self._journal_records.inc(event=event)

    def recover(self) -> list[Job]:
        """Replay the journal: resubmit every admitted-but-unfinished job.

        Call on a fresh service instance pointed at a crashed
        predecessor's ``journal_path``, before (or after) ``start()``.
        At-least-once, idempotent per recovery: jobs are deduped by
        :attr:`~repro.service.job.Job.key` and force-admitted past the
        depth caps — the predecessor already accepted them once.
        Recovered jobs replay fault-free (the journal persists no
        injector), matching the ladder's own one-shot fault semantics.
        """
        from repro.resilience.journal import incomplete_jobs, read_journal

        require(self.journal is not None, "recovery needs a configured journal_path")
        jobs = incomplete_jobs(read_journal(self.journal.path))
        recovered: list[Job] = []
        for job in jobs:
            self._journal_record("recovered", job)
            if self.submit(job, force=True).accepted:
                self._recovered.inc()
                recovered.append(job)
        return recovered

    # -- producer API ------------------------------------------------------------

    def submit(self, job: Job, force: bool = False) -> AdmissionDecision:
        """Offer *job* to admission control; never blocks.

        ``force`` (journal recovery only) bypasses the depth and class
        caps — the job was already admitted once by a prior incarnation.
        """
        self._submitted.inc(priority=job.priority.name.lower())
        decision = self.queue.submit(job, force=force)
        if decision.accepted:
            job.submit_time = time.monotonic()
            self._depth.set(self.queue.depth_of(job.priority), priority=job.priority.name.lower())
            self._journal_record("admitted", job, spec=job.to_spec())
        else:
            self._rejected.inc(priority=job.priority.name.lower())
            self._journal_record("rejected", job, reason=decision.reason)
            self.results[job.job_id] = JobResult(
                job_id=job.job_id,
                status=JobStatus.REJECTED,
                scheme=job.scheme,
                n=job.n,
                priority=job.priority,
                error=decision.reason,
            )
        return decision

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher on the running event loop."""
        require(self._dispatcher is None, "service already started")
        self._dispatcher = asyncio.get_running_loop().create_task(self._dispatch())

    async def start_executor(self) -> None:
        """Bring the execution backend up eagerly (worker spawn, warm state).

        Optional — the first dispatched attempt also starts it — but
        load generators call this before timing so pool spawn cost is
        not billed to the first job's latency.
        """
        await self.executor.start()

    async def drain(self, poll_s: float = 0.005) -> None:
        """Wait until the queue is empty and nothing is executing."""
        while self.queue.depth or self._inflight:
            await asyncio.sleep(poll_s)

    async def stop(self) -> None:
        """Drain accepted work, then shut the dispatcher and backend down."""
        await self.drain()
        await self.queue.close()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        if self._inflight:
            await asyncio.gather(*self._inflight)
        await self.executor.stop()
        if self.journal is not None:
            self.journal.close()

    async def abort(self) -> None:
        """Crash-like shutdown: stop *now*, abandoning queued and in-flight work.

        The chaos harness's stand-in for a service-process kill: nothing
        drains, so admitted jobs stay unfinished in the journal and a
        successor instance can :meth:`recover` them.  Cancellations are
        collected with ``return_exceptions=True`` — the cancelled tasks'
        ``CancelledError`` is their expected terminal state here, not a
        failure to hide (rule RPL008 forbids swallowing it in handlers).
        """
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
            self._dispatcher = None
        inflight = list(self._inflight)
        for task in inflight:
            task.cancel()
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        await self.queue.close()
        await self.executor.stop()
        if self.journal is not None:
            self.journal.close()

    # -- internals ---------------------------------------------------------------

    async def _dispatch(self) -> None:
        while True:
            # Ownership transfer: the slot is handed to the _run_unit task,
            # whose finally releases it (or the None branch below does).
            await self._capacity.acquire()  # noqa: RPL101
            job = await self.queue.get()
            if job is None:
                self._capacity.release()
                return
            # One dispatch unit (a singleton or a coalesced batch) per
            # capacity slot; coalescing happens *inside* the task so the
            # popped jobs are always visible to drain() via _inflight.
            task = asyncio.get_running_loop().create_task(self._run_unit(job))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _coalesce(self, first: Job) -> list[Job]:
        """Grow a batch from the queue head without reordering it.

        Only ever takes the exact job ``queue.get()`` would serve next,
        and only while it shares *first*'s priority class
        (:meth:`~repro.service.queue.JobQueue.get_compatible_nowait`);
        lingers up to the configured budget for stragglers, a latency
        bound the batching property tests pin.
        """
        batch = [first]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.batch_linger_s
        while len(batch) < self._coalescer.batch_max:
            candidate = self.queue.get_compatible_nowait(first.priority)
            if candidate is not None:
                batch.append(candidate)
                continue
            remaining = deadline - loop.time()
            if remaining <= 0.0 or self.queue.closed:
                break
            await asyncio.sleep(min(remaining, 0.001))
        return batch

    async def _run_unit(self, first: Job) -> None:
        """Run one dispatch unit: coalesce, place, execute, settle."""
        batch = [first]
        if self._coalescer.enabled:
            batch = await self._coalesce(first)
        self._depth.set(
            self.queue.depth_of(first.priority), priority=first.priority.name.lower()
        )
        try:
            head = self.scheduler.pick(first)
            assignments = [head] + [
                self.scheduler.book(head.worker, job) for job in batch[1:]
            ]
            worker = head.worker
            for job in batch:
                self._journal_record("dispatched", job, worker=worker.name)
            async with worker.semaphore:
                self._inflight_g.inc(len(batch))
                try:
                    if len(batch) == 1:
                        results = [await self.handle_job(first, worker)]
                    else:
                        results = await self._run_batch(batch, worker)
                finally:
                    self._inflight_g.dec(len(batch))
            for assignment in assignments:
                self.scheduler.complete(assignment)
            for job, result in zip(batch, results):
                self._record(job, result)
        finally:
            self._capacity.release()

    async def _run_batch(self, jobs: list[Job], worker: Worker) -> list[JobResult]:
        """First attempts ride one executor round-trip; failures peel off.

        Each job whose batched first attempt failed re-enters
        :meth:`handle_job` with that failure pre-recorded, so the retry
        ladder, backoff, fallback, and journal semantics are *identical*
        to a singleton dispatch from attempt 2 on — and the batch's
        successful jobs are entirely unaffected.
        """
        from repro.exec.base import AttemptRequest

        started = time.monotonic()
        timeouts = [
            job.timeout_s if job.timeout_s is not None else self.config.job_timeout_s
            for job in jobs
        ]
        requests = [
            AttemptRequest(
                job=job,
                preset=worker.preset,
                machine=worker.machine,
                timeout_s=timeout,
                timeline=self._timeline,
            )
            for job, timeout in zip(jobs, timeouts)
        ]
        for job in jobs:
            self._journal_record("attempt", job, number=1, kind="attempt")
        budget = sum(timeouts)
        try:
            # The executor deadlines itself at budget + grace and returns
            # per-item exception values; this outer wait_for only guards
            # against a backend that stops responding entirely.
            outcomes = await asyncio.wait_for(
                self.executor.execute_batch(requests), budget + 5.0
            )
        except asyncio.TimeoutError:
            self._timeouts.inc(len(jobs))
            outcomes = [
                TimeoutError(f"batched attempt timed out after {budget:g}s") for _ in jobs
            ]
        except ReproError as exc:
            outcomes = [type(exc)(str(exc)) for _ in jobs]
        results: list[JobResult | None] = [None] * len(jobs)
        laggards: list[int] = []
        for index, (job, outcome) in enumerate(zip(jobs, outcomes)):
            if isinstance(outcome, BaseException) or outcome is None:
                laggards.append(index)
                continue
            result = self._finish_job(
                job, worker, outcome, attempts=1, retries=0, started=started
            )
            if result.completed and self.config.trace_dir is not None:
                await asyncio.to_thread(self._dump_job_trace, job, result)
            results[index] = result
        if laggards:
            # handle_job dumps its own traces, records its own retry
            # metrics, and runs concurrently per laggard — each job backs
            # off on its own clock, exactly as a singleton retry would.
            peeled = await asyncio.gather(
                *(
                    self.handle_job(
                        jobs[index],
                        worker,
                        first_error=f"attempt 1: {outcomes[index]}",
                        started_at=started,
                        first_salvage=getattr(outcomes[index], "salvage", None),
                    )
                    for index in laggards
                )
            )
            for index, result in zip(laggards, peeled):
                results[index] = result
        return results  # type: ignore[return-value]

    async def handle_job(
        self,
        job: Job,
        worker: Worker,
        first_error: str | None = None,
        started_at: float | None = None,
        first_salvage=None,
    ) -> JobResult:
        """Run one admitted job to a terminal state (the timeout-guarded handler).

        ``first_error``/``started_at`` let a failed *batched* first attempt
        (already executed and journaled by :meth:`_run_batch`) enter the
        ladder as if rung 1 just failed here — the backoff, injector
        disarm, fallback, and journal records from attempt 2 on are
        byte-identical to a singleton dispatch; ``first_salvage`` carries
        that attempt's salvaged snapshot, if any, into the
        erasure-recover rung.
        """
        # Deferred: repro.exec.base imports service modules, so a module-level
        # import here would be circular when repro.exec loads first.
        from repro.exec.base import AttemptRequest

        started = started_at if started_at is not None else time.monotonic()
        wait_s = max(0.0, started - job.submit_time)
        timeout = job.timeout_s if job.timeout_s is not None else self.config.job_timeout_s
        attempts = 0
        retries = 0
        outcome = None
        error: str | None = None
        pending_error = first_error
        salvage = first_salvage
        if pending_error is not None:
            attempts = 1
            error = pending_error
        while outcome is None:
            if pending_error is not None:
                # Attempt 1 already ran (batched) and failed; consume the
                # failure and fall through to the backoff ladder below
                # without re-journaling or re-executing it.
                pending_error = None
            else:
                salvage = None
                attempts += 1
                self._journal_record("attempt", job, number=attempts, kind="attempt")
                try:
                    request = AttemptRequest(
                        job=job,
                        preset=worker.preset,
                        machine=worker.machine,
                        timeout_s=timeout,
                        timeline=self._timeline,
                    )
                    outcome = await asyncio.wait_for(self.executor.execute(request), timeout)
                    break
                except asyncio.TimeoutError:
                    error = f"attempt {attempts} timed out after {timeout:g}s"
                    self._timeouts.inc()
                except ReproError as exc:
                    # Scheme-level failures AND executor infrastructure failures
                    # (a crashed pool worker) land here: the attempt is requeued
                    # through the same backoff ladder either way.  A crashed
                    # worker's salvaged snapshot rides on the exception.
                    error = f"attempt {attempts}: {exc}"
                    salvage = getattr(exc, "salvage", None)
            if salvage is not None:
                # Erasure-recover rung: try to decode the failure forward
                # before paying for a from-scratch restart.
                outcome = await self._try_forward_recovery(job, worker, salvage, timeout)
                salvage = None
                if outcome is not None:
                    break
            delay = self.config.retry.backoff_s(retries + 1)
            if delay is None:
                break
            retries += 1
            self._retries.inc()
            if job.injector is not None:
                job.injector.disarm()  # the fault was a one-shot event
            await asyncio.sleep(delay)
        if outcome is None and self.config.retry.fallback_to_checkpoint:
            self._fallbacks.inc()
            self._journal_record("attempt", job, number=attempts + 1, kind="fallback")
            try:
                request = AttemptRequest(
                    job=job,
                    preset=worker.preset,
                    machine=worker.machine,
                    kind="fallback",
                    retry=self.config.retry,
                    timeout_s=timeout,
                    timeline=self._timeline,
                )
                outcome = await asyncio.wait_for(self.executor.execute(request), timeout)
            except asyncio.TimeoutError:
                error = f"fallback timed out after {timeout:g}s"
                self._timeouts.inc()
            except ReproError as exc:
                error = f"fallback: {exc}"

        finished = time.monotonic()
        exec_s = finished - started
        if outcome is None:
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.FAILED,
                scheme=job.scheme,
                n=job.n,
                priority=job.priority,
                worker=worker.name,
                attempts=attempts,
                retries=retries,
                wait_s=wait_s,
                exec_s=exec_s,
                latency_s=wait_s + exec_s,
                error=error or "exhausted retry ladder",
            )
        result = self._finish_job(
            job, worker, outcome, attempts=attempts, retries=retries, started=started
        )
        if result.completed and self.config.trace_dir is not None:
            # Trace files can reach megabytes; keep the write off the loop.
            await asyncio.to_thread(self._dump_job_trace, job, result)
        return result

    async def _try_forward_recovery(
        self, job: Job, worker: Worker, salvage, timeout: float
    ) -> AttemptOutcome | None:
        """One erasure-recover deliberation: repair + resume, or decline.

        Sits between a failed attempt and its backoff/restart: the
        forward-vs-backward cost model (:func:`repro.recovery.decision.
        choose_recovery`) decides whether the salvaged snapshot is worth
        decoding; the blocking repair + resume then runs off the event
        loop under the job's own attempt timeout.  Any decline, decode
        failure, or timeout returns ``None`` — the ordinary restart rungs
        take over, so forward recovery can only ever *save* work, never
        lose correctness.
        """
        from repro.recovery import choose_recovery, execute_resume

        decision = choose_recovery(job, worker.machine, salvage)
        self._journal_record(
            "recovery",
            job,
            forward=decision.forward,
            reason=decision.reason,
            resume_iteration=salvage.resume_iteration,
            erased_rows=len(salvage.bad_matrix_rows) + len(salvage.bad_chk_rows),
        )
        if not decision.forward:
            self._recovery_backward.inc(reason="declined")
            return None
        try:
            outcome = await asyncio.wait_for(
                asyncio.to_thread(execute_resume, job, worker.machine, salvage, self._timeline), timeout
            )
        except asyncio.TimeoutError:
            self._timeouts.inc()
            self._recovery_backward.inc(reason="timeout")
            return None
        except ReproError:
            # Undecodable after all (SalvageError) or the resumed run
            # itself failed; restart from scratch — never guess forward.
            self._recovery_backward.inc(reason="failed")
            return None
        self._recovery_forward.inc()
        self._recovery_erasure_tiles.inc(outcome.extras.get("erasure_tiles", 0))
        return outcome

    def _finish_job(
        self,
        job: Job,
        worker: Worker,
        outcome: AttemptOutcome,
        *,
        attempts: int,
        retries: int,
        started: float,
    ) -> JobResult:
        """Gate and package one successful attempt outcome.

        The shared success tail of :meth:`handle_job` and
        :meth:`_run_batch` — the residual gate (the service-level "no
        incorrect results" contract) applies identically either way.
        """
        finished = time.monotonic()
        wait_s = max(0.0, started - job.submit_time)
        exec_s = finished - started
        self._note_runtime(outcome.runtime)
        status = JobStatus.COMPLETED
        error: str | None = None
        # Negated so a NaN residual (a factor holding inf) fails the gate too.
        if outcome.residual is not None and not outcome.residual <= self.config.residual_tolerance:
            status = JobStatus.FAILED
            error = f"residual {outcome.residual:.3e} exceeds {self.config.residual_tolerance:g}"
            self._incorrect.inc()
        return JobResult(
            job_id=job.job_id,
            status=status,
            scheme=job.scheme,
            n=job.n,
            priority=job.priority,
            worker=worker.name,
            attempts=attempts,
            retries=retries,
            corrected_errors=outcome.corrected_errors,
            corrected_sites=list(outcome.corrected_sites),
            restarts=outcome.restarts,
            fallback_used=outcome.fallback_used,
            wait_s=wait_s,
            exec_s=exec_s,
            latency_s=wait_s + exec_s,
            sim_makespan=outcome.sim_makespan,
            residual=outcome.residual,
            error=error,
            timeline=outcome.timeline,
            factor=outcome.factor if self.config.keep_factors else None,
        )

    def _note_runtime(self, runtime: dict | None) -> None:
        """Fold one dag-runtime executor summary into the service metrics.

        The summary is plain data so it survives the process backend's
        pickle boundary; counters and per-kind duration histograms are
        kept mutually consistent (one observation per counted task), which
        the chaos battery's ``executor_metrics_consistent`` invariant
        checks.
        """
        if not runtime:
            return
        for kind, count in runtime.get("task_total", {}).items():
            self._runtime_tasks.inc(count, kind=kind)
        for kind, durations in runtime.get("task_seconds", {}).items():
            hist = self.metrics.histogram(
                f"runtime_task_seconds_{kind}", f"dag runtime {kind} task durations"
            )
            for duration in durations:
                hist.observe(duration)
        self._runtime_ready_depth.set(
            max(self._runtime_ready_depth.value(), float(runtime.get("max_ready_depth", 0)))
        )
        self._runtime_lookahead.set(
            max(self._runtime_lookahead.value(), float(runtime.get("max_lookahead_depth", 0)))
        )

    def _dump_job_trace(self, job: Job, result: JobResult) -> None:
        trace_dir = Path(self.config.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        # Checkpoint-fallback runs follow the offline protocol contract
        # (periodic sweeps; unguarded-read windows are informational), so
        # analyze-trace checks them under the "offline" ruleset.
        scheme = "offline" if result.fallback_used else job.scheme
        dump_trace(
            tag_timeline(result.timeline, job.job_id),
            scheme,
            trace_dir / f"job-{job.job_id}.json",
            job=job.job_id,
        )

    def _record(self, job: Job, result: JobResult) -> None:
        self.results[job.job_id] = result
        self._journal_record(
            result.status.value,
            job,
            attempts=result.attempts,
            retries=result.retries,
            fallback=result.fallback_used,
        )
        self.queue.note_service_time(result.exec_s)
        if result.completed:
            self._completed.inc(worker=result.worker or "?")
            self._corrections.inc(result.corrected_errors)
            self._restarts.inc(result.restarts)
            self._flops.inc(job.flops)
        else:
            self._failed.inc()
        self._wait_h.observe(result.wait_s)
        self._exec_h.observe(result.exec_s)
        self._latency_h.observe(result.latency_s)
        if result.sim_makespan is not None:
            self._makespan_h.observe(result.sim_makespan)
        self.completions.put_nowait(result)
