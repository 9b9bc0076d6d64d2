"""Execution backends: determinism parity and crash-requeue semantics.

The :mod:`repro.exec` contract (see ``exec/base.py``) is the service-level
version of the batched-verify bit-parity harness: an attempt's ``factor``,
``corrected_sites`` and ``stats`` must be identical whichever backend —
inline, thread pool, or process pool with shared-memory transport —
executed it.  The process pool additionally promises that a worker death
mid-attempt surfaces as :class:`~repro.util.exceptions.WorkerCrashedError`
(a retryable :class:`~repro.util.exceptions.ReproError`), never as a hung
or failed service.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exec import AttemptRequest, InlineExecutor, ProcessExecutor, ThreadExecutor, make_executor
from repro.exec.process import _WorkerHandle
from repro.faults.injector import single_storage_fault
from repro.hetero.machine import Machine
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import Job, JobStatus
from repro.service.policy import RetryPolicy
from repro.util.exceptions import ReproError, ValidationError, WorkerCrashedError, WorkerTaskError

#: Same fault site the hotpath bench pins: one storage error the enhanced
#: scheme detects and corrects, so parity also covers the correction path.
_FAULT_BLOCK, _FAULT_ITERATION = (3, 1), 1


def _job(job_id: int = 0, inject: bool = False, scheme: str = "enhanced") -> Job:
    injector = (
        single_storage_fault(block=_FAULT_BLOCK, iteration=_FAULT_ITERATION)
        if inject
        else None
    )
    return Job(job_id=job_id, n=128, block_size=32, scheme=scheme, seed=11, injector=injector)


def _request(job: Job, kind: str = "attempt", timeout_s: float | None = None) -> AttemptRequest:
    retry = RetryPolicy() if kind == "fallback" else None
    return AttemptRequest(
        job=job,
        preset="tardis",
        machine=Machine.preset("tardis"),
        kind=kind,
        retry=retry,
        timeout_s=timeout_s,
    )


@pytest.fixture(scope="module")
def process_pool():
    executor = ProcessExecutor(workers=1)
    executor.start_sync()
    yield executor
    executor.stop_sync()


class TestBackendParity:
    @pytest.mark.parametrize("inject", [False, True], ids=["fault_free", "corrected_fault"])
    def test_attempt_outcomes_bit_identical(self, process_pool, inject):
        reference = InlineExecutor().run_sync(_request(_job(inject=inject)))
        if inject:
            assert reference.corrected_sites  # the harness must exercise corrections
        for executor in (ThreadExecutor(workers=1), process_pool):
            outcome = executor.run_sync(_request(_job(inject=inject)))
            assert np.array_equal(outcome.factor, reference.factor)
            assert outcome.corrected_sites == reference.corrected_sites
            assert outcome.stats == reference.stats
            assert outcome.corrected_errors == reference.corrected_errors
            assert outcome.residual == reference.residual
            assert outcome.sim_makespan == reference.sim_makespan

    def test_fallback_outcomes_bit_identical(self, process_pool):
        reference = InlineExecutor().run_sync(_request(_job(), kind="fallback"))
        assert reference.fallback_used
        for executor in (ThreadExecutor(workers=1), process_pool):
            outcome = executor.run_sync(_request(_job(), kind="fallback"))
            assert outcome.fallback_used
            assert np.array_equal(outcome.factor, reference.factor)
            assert outcome.stats == reference.stats
            assert outcome.residual == reference.residual

    def test_shadow_jobs_skip_the_shm_transport(self, process_pool):
        job = Job(job_id=5, n=256, block_size=64, scheme="enhanced", numerics="shadow", seed=3)
        outcome = process_pool.run_sync(_request(job))
        assert outcome.factor is None
        assert outcome.residual is None
        assert outcome.sim_makespan > 0

    def test_injector_state_propagates_back_to_parent(self, process_pool):
        # Inline mutates the caller's injector directly; the process pool
        # must leave the parent-side injector in the identical state even
        # though the worker ran against a pickled snapshot.
        ref_job = _job(inject=True)
        InlineExecutor().run_sync(_request(ref_job))
        job = _job(inject=True)
        process_pool.run_sync(_request(job))
        assert not job.injector.armed
        assert [p.fired for p in job.injector.plans] == [p.fired for p in ref_job.injector.plans]
        assert [(f.iteration, f.old_value) for f in job.injector.fired] == [
            (f.iteration, f.old_value) for f in ref_job.injector.fired
        ]
        # Records reference the parent's own plan objects, not copies.
        assert all(f.plan in job.injector.plans for f in job.injector.fired)

    def test_retry_after_worker_fired_fault_runs_clean(self, process_pool):
        # "A restarted run must not re-inject": once the fault fired in a
        # worker, redispatching the same job must replay fault-free.
        job = _job(inject=True)
        first = process_pool.run_sync(_request(job))
        assert first.corrected_sites
        second = process_pool.run_sync(_request(job))
        assert not second.corrected_sites
        reference = InlineExecutor().run_sync(_request(_job()))
        assert np.array_equal(second.factor, reference.factor)

    def test_scheme_errors_cross_the_boundary_typed(self, process_pool):
        # An impossible geometry fails validation inside the worker; the
        # parent must see a ReproError (retryable), not a dead pool.
        bad = Job(job_id=9, n=48, block_size=32, scheme="enhanced", seed=0)
        with pytest.raises(WorkerTaskError) as err:
            process_pool.run_sync(_request(bad))
        assert isinstance(err.value, ReproError)
        assert "evenly divide" in str(err.value)
        # The worker survived and keeps serving.
        ok = process_pool.run_sync(_request(_job()))
        assert ok.factor is not None


class TestWorkerCrash:
    def test_injected_crash_raises_and_respawns(self):
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        try:
            executor.inject_crash()
            with pytest.raises(WorkerCrashedError):
                executor.run_sync(_request(_job()))
            assert executor.metrics["executor_worker_restarts_total"].value(reason="crash") == 1
            # The respawned worker completes the retried attempt correctly.
            reference = InlineExecutor().run_sync(_request(_job()))
            outcome = executor.run_sync(_request(_job()))
            assert np.array_equal(outcome.factor, reference.factor)
        finally:
            executor.stop_sync()

    def test_externally_killed_worker_is_detected(self):
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        try:
            executor._handles[0].process.terminate()  # simulate an OOM kill
            with pytest.raises(WorkerCrashedError, match="died mid-batch"):
                executor.run_sync(_request(_job()))
            outcome = executor.run_sync(_request(_job()))
            assert outcome.factor is not None
        finally:
            executor.stop_sync()

    def test_wedged_worker_misses_deadline_and_is_respawned(self):
        # A worker that is alive but silent past the attempt deadline must
        # be killed so the pool slot is reclaimed — asyncio.wait_for alone
        # cannot stop the blocked run_sync thread.
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        try:
            executor.inject_wedge(60.0)
            with pytest.raises(WorkerCrashedError, match="deadline"):
                executor.run_sync(_request(_job(), timeout_s=0.2))
            assert executor.metrics["executor_worker_restarts_total"].value(reason="wedged") == 1
            # The respawned worker serves the requeued attempt correctly.
            outcome = executor.run_sync(_request(_job()))
            assert outcome.factor is not None
        finally:
            executor.stop_sync()

    def test_service_requeues_crashed_attempt_through_retry_ladder(self):
        async def drive():
            service = SolveService(
                ServiceConfig(
                    workers=("tardis:1",),
                    executor="process",
                    exec_workers=1,
                    retry=RetryPolicy(max_retries=2),
                )
            )
            await service.start_executor()
            service.executor.inject_crash()
            service.start()
            service.submit(_job(job_id=42, inject=True))
            await service.stop()
            return service

        service = asyncio.run(drive())
        result = service.results[42]
        assert result.status is JobStatus.COMPLETED
        assert result.attempts == 2 and result.retries == 1
        assert not result.fallback_used
        assert result.residual is not None and result.residual < 1e-10
        assert service.metrics["executor_worker_restarts_total"].value(reason="crash") == 1
        assert service.metrics["service_retries_total"].value() == 1


@pytest.fixture
def broken_spawn(monkeypatch) -> threading.Event:
    """While the returned event is set, every worker start raises ``OSError``."""
    broken = threading.Event()
    real_spawn = _WorkerHandle.spawn

    def spawn(self, **kwargs):
        if broken.is_set():
            raise OSError("no more processes")
        real_spawn(self, **kwargs)

    monkeypatch.setattr(_WorkerHandle, "spawn", spawn)
    return broken


class TestWorkerReplacement:
    """A lost worker is replaced off the dispatch path; its slot waits for it."""

    def test_request_after_a_crash_runs_on_the_healthy_worker(self, hold_spawns):
        executor = ProcessExecutor(workers=2)
        executor.start_sync()
        gate, started = hold_spawns()
        try:
            executor.inject_crash()
            with pytest.raises(WorkerCrashedError, match="died mid-batch"):
                executor.run_sync(_request(_job()))
            # Counted at detection, before the replacement is ready.
            assert executor.metrics["executor_worker_restarts_total"].value(reason="crash") == 1
            assert sum(h.process is None for h in executor._handles) == 1
            reference = InlineExecutor().run_sync(_request(_job()))
            outcome = executor.run_sync(_request(_job()))
            assert not gate.is_set() and not started  # the replacement is still held
            assert np.array_equal(outcome.factor, reference.factor)
        finally:
            gate.set()
            executor.stop_sync()
        assert len(started) == 1
        assert executor.drained_pool == (2, 2)

    def test_wedged_worker_is_killed_at_once_and_replaced_in_the_background(self, hold_spawns):
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        gate, started = hold_spawns()
        try:
            wedged = executor._handles[0].process
            executor.inject_wedge(60.0)
            with pytest.raises(WorkerCrashedError, match="deadline"):
                executor.run_sync(_request(_job(), timeout_s=0.2))
            assert not wedged.is_alive()
            assert executor.metrics["executor_worker_restarts_total"].value(reason="wedged") == 1
            # The slot rejoins the pool only once the replacement is ready.
            out: list = []
            thread = threading.Thread(target=lambda: out.append(executor.run_sync(_request(_job()))))
            thread.start()
            thread.join(0.5)
            assert thread.is_alive() and not out
            gate.set()
            thread.join(60.0)
            assert len(out) == 1 and out[0].factor is not None
            assert len(started) == 1 and started[0].is_alive()
        finally:
            gate.set()
            executor.stop_sync()
        assert executor.drained_pool == (1, 1)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="per-thread nice values are Linux-only")
    def test_replacement_imports_at_idle_priority_then_serves_at_normal(self):
        def nice_values(process) -> set[int]:
            """Nice value of each live thread of *process* (field 19 of its stat)."""
            out = set()
            for stat in Path(f"/proc/{process.pid}/task").glob("*/stat"):
                try:
                    out.add(int(stat.read_text().rsplit(")", 1)[1].split()[16]))
                except (OSError, IndexError):
                    pass  # the thread exited between listing and reading
            return out

        normal = os.getpriority(os.PRIO_PROCESS, 0)
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        handle = executor._handles[0]
        try:
            executor.inject_crash()
            with pytest.raises(WorkerCrashedError):
                executor.run_sync(_request(_job()))
            seen: set[int] = set()
            deadline = time.monotonic() + 60.0
            while not executor._idle and time.monotonic() < deadline:
                process = handle.process
                if process is not None and process.pid is not None:
                    seen |= nice_values(process)
                time.sleep(0.002)
            assert 19 in seen  # the imports ran on a thread at idle priority
            assert executor.run_sync(_request(_job())).factor is not None
            assert nice_values(handle.process) == {normal}  # it serves at normal priority
        finally:
            executor.stop_sync()

    def test_failed_replacement_is_retried_inline_at_the_next_checkout(self, broken_spawn):
        executor = ProcessExecutor(workers=1)
        executor.start_sync()
        broken_spawn.set()
        try:
            executor.inject_crash()
            with pytest.raises(WorkerCrashedError, match="died mid-batch"):
                executor.run_sync(_request(_job()))
            # The background start failed, but the slot came back: this
            # checkout retries the start and reports an infra error.
            with pytest.raises(WorkerCrashedError, match="could not be restarted"):
                executor.run_sync(_request(_job()))
            broken_spawn.clear()
            assert executor.run_sync(_request(_job())).factor is not None
        finally:
            executor.stop_sync()
        assert executor.drained_pool == (1, 1)

    def test_worker_that_cannot_start_fails_its_job_with_a_result(self, broken_spawn):
        async def drive():
            service = SolveService(
                ServiceConfig(workers=("tardis:1",), executor="process", exec_workers=1)
            )
            await service.start_executor()
            service.executor.inject_crash()
            broken_spawn.set()
            service.start()
            service.submit(_job(job_id=7))
            await service.drain()
            broken_spawn.clear()
            service.submit(_job(job_id=8))
            await service.stop()
            return service

        service = asyncio.run(drive())
        failed = service.results[7]
        assert failed.status is JobStatus.FAILED
        assert "could not be restarted" in failed.error
        assert service.results[8].status is JobStatus.COMPLETED

    def test_ready_handshake_fails_fast_when_the_child_exits(self):
        class ExitingContext:
            """Spawns children that exit before they report ready."""

            def __init__(self) -> None:
                self.ctx = multiprocessing.get_context("spawn")

            def Queue(self):
                return self.ctx.Queue()

            def Process(self, **kwargs):
                return self.ctx.Process(target=os._exit, args=(3,), daemon=True)

        handle = _WorkerHandle(0, ExitingContext(), "rx-handshake")
        try:
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashedError, match="exitcode 3"):
                handle.spawn()
            assert time.monotonic() - t0 < 1.0  # not the 120 s ready timeout
            assert handle.process is None and handle.outbox is None
        finally:
            handle.close()


class TestBackendNames:
    @pytest.mark.parametrize("name", ["auto", "bogus"])
    def test_service_config_names_the_three_backends(self, name):
        with pytest.raises(ValidationError, match="'inline', 'thread', 'process'"):
            ServiceConfig(executor=name)

    def test_make_executor_rejects_unknown_names(self):
        with pytest.raises(ValidationError):
            make_executor("auto")


class TestPoolLifecycle:
    def test_concurrent_first_dispatch_starts_exactly_one_pool(self):
        # run_sync's lazy start races when attempts arrive via
        # asyncio.to_thread before start_executor(); only one pool (one
        # process, one arena per slot) may come up.
        executor = ProcessExecutor(workers=1)
        outcomes: list = []
        errors: list = []

        def run() -> None:
            try:
                outcomes.append(executor.run_sync(_request(_job())))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(outcomes) == 3
            assert len(executor._handles) == 1
        finally:
            executor.stop_sync()

    def test_worker_segment_cache_drops_retired_names_only(self):
        from repro.exec.worker import WorkerState
        from repro.hetero.memory import SharedArena

        # High-water of one 4 KiB segment forces the arena to trim the
        # colder freed segment; the worker drops exactly the retired
        # mappings (the batch protocol's "retired" list) and keeps the
        # warm one attached.
        arena = SharedArena("repro-test-evict", high_water_bytes=4096)
        state = WorkerState()
        try:
            _, d1 = arena.lease((8, 8))
            _, d2 = arena.lease((8, 8))
            assert state.view(d1).shape == (8, 8)
            assert state.view(d2).shape == (8, 8)
            assert len(state.segments) == 2  # cached per segment name
            arena.end_lease(d1)
            arena.end_lease(d2)  # over high-water: d1 (LRU) is trimmed
            retired = arena.drain_retired()
            assert retired == [d1.name]
            state.close_segments(retired)
            assert set(state.segments) == {d2.name}
        finally:
            state.close()
            arena.release()


class TestWorkerImports:
    def test_worker_import_chain_loads_no_scipy(self):
        # scipy.linalg adds about 22 MiB of RSS to every pool worker on
        # import and 26 MiB once dtrsm has run, so the host kernels stay on
        # NumPy's own LAPACK: POTF2 is one np.linalg.cholesky call and TRSM
        # inverts its diagonal blocks with np.linalg.inv.  A fresh
        # interpreter imports the worker and runs one attempt per engine
        # through its execution path, so a lazy import inside a kernel
        # shows up too.
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "from repro.exec.worker import WorkerState, run_task\n"
            "from repro.service.job import Job\n"
            "state = WorkerState()\n"
            "for scheme in ('enhanced', 'dag'):\n"
            "    job = Job(job_id=1, n=128, scheme=scheme, block_size=32)\n"
            "    payload = {'job': job, 'preset': 'tardis', 'kind': 'attempt', 'retry': None}\n"
            "    assert run_task(payload, state).residual < 1e-12\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
