"""The retry ladder, rung by rung: attempt → retries → fallback → failure,
plus the residual gate — with the metrics *and* journal records asserted at
every rung.

A scripted executor controls exactly which dispatches die (as crashed-pool
infrastructure failures), so each test pins one ladder depth.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.exec.base import Executor
from repro.magma.host import factorization_residual
from repro.resilience.journal import read_journal
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import JobStatus
from repro.service.policy import RetryPolicy
from repro.util.exceptions import WorkerCrashedError

#: ladder shape under test: 1 + max_retries attempts, then the fallback
RETRY = RetryPolicy(max_retries=2, base_backoff_s=0.001)


class ScriptedExecutor(Executor):
    """Fails the first ``len(script)`` dispatches, then delegates inline."""

    name = "scripted"

    def __init__(self, script=()):
        self.script = list(script)
        super().__init__(capacity=1)

    def run_sync(self, request):
        from repro.exec.inline import InlineExecutor

        if self.script:
            action = self.script.pop(0)
            if action == "crash":
                raise WorkerCrashedError("scripted pool-worker death")
        return InlineExecutor(metrics=self.metrics).run_sync(request)


class ResidualExecutor(ScriptedExecutor):
    """Runs inline, then reports *residual* in place of the measured one."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__()

    def run_sync(self, request):
        outcome = super().run_sync(request)
        outcome.residual = self.residual
        return outcome


def _run_one(tmp_path, script, residual_tolerance=1e-8, executor=None):
    config = ServiceConfig(
        workers=("tardis:1",),
        retry=RETRY,
        journal_path=tmp_path / "journal.jsonl",
        residual_tolerance=residual_tolerance,
        keep_factors=True,
    )
    service = SolveService(config)
    service.executor = executor or ScriptedExecutor(script)
    service.executor.bind_metrics(service.metrics)

    async def drive():
        from repro.service.job import Job

        service.start()
        service.submit(Job(job_id=0, n=64, block_size=32, seed=11))
        await service.stop()

    asyncio.run(drive())
    return service, read_journal(tmp_path / "journal.jsonl")


def _events(records, event, **match):
    out = []
    for r in records:
        if r["event"] != event:
            continue
        if all(r.get(k) == v for k, v in match.items()):
            out.append(r)
    return out


class TestLadderRungs:
    def test_first_attempt_success(self, tmp_path):
        service, records = _run_one(tmp_path, script=[])
        result = service.results[0]
        assert result.status is JobStatus.COMPLETED
        assert (result.attempts, result.retries, result.fallback_used) == (1, 0, False)
        m = service.metrics
        assert m["service_retries_total"].value() == 0
        assert m["service_fallbacks_total"].value() == 0
        assert [r["event"] for r in records] == [
            "admitted", "dispatched", "attempt", "completed",
        ]
        assert _events(records, "attempt", kind="attempt", number=1)

    def test_one_crash_one_retry(self, tmp_path):
        service, records = _run_one(tmp_path, script=["crash"])
        result = service.results[0]
        assert result.status is JobStatus.COMPLETED
        assert (result.attempts, result.retries, result.fallback_used) == (2, 1, False)
        assert service.metrics["service_retries_total"].value() == 1
        assert len(_events(records, "attempt", kind="attempt")) == 2
        assert not _events(records, "attempt", kind="fallback")

    def test_exhausted_attempts_reach_the_fallback(self, tmp_path):
        service, records = _run_one(tmp_path, script=["crash"] * 3)
        result = service.results[0]
        assert result.status is JobStatus.COMPLETED
        assert result.attempts == 3
        assert result.retries == RETRY.max_retries
        assert result.fallback_used
        m = service.metrics
        assert m["service_retries_total"].value() == 2
        assert m["service_fallbacks_total"].value() == 1
        assert len(_events(records, "attempt", kind="attempt")) == 3
        assert len(_events(records, "attempt", kind="fallback")) == 1
        assert _events(records, "completed")

    def test_full_exhaustion_fails_the_job(self, tmp_path):
        service, records = _run_one(tmp_path, script=["crash"] * 4)
        result = service.results[0]
        assert result.status is JobStatus.FAILED
        assert "fallback" in (result.error or "")
        m = service.metrics
        assert m["service_jobs_failed_total"].value() == 1
        assert m["service_jobs_completed_total"].value() == 0
        assert m["service_fallbacks_total"].value() == 1
        failed = _events(records, "failed")
        assert len(failed) == 1
        assert failed[0]["attempts"] == 3
        assert failed[0]["fallback"] is False  # the fallback itself crashed

    def test_residual_gate_fails_a_numerically_bad_result(self, tmp_path):
        # Force the gate: even a clean factor's round-off exceeds 1e-30.
        service, records = _run_one(tmp_path, script=[], residual_tolerance=1e-30)
        result = service.results[0]
        assert result.status is JobStatus.FAILED
        assert "residual" in (result.error or "")
        m = service.metrics
        assert m["service_incorrect_results_total"].value() == 1
        assert m["service_jobs_failed_total"].value() == 1
        assert _events(records, "failed")

    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_residual_gate_fails_a_non_finite_residual(self, tmp_path, residual):
        # One inf in a factor already makes its residual NaN, and NaN > tol
        # is False: the gate must not read it as a pass.
        ell = np.eye(4)
        ell[2, 1] = math.inf
        with np.errstate(invalid="ignore"):
            assert math.isnan(factorization_residual(np.eye(4), ell))
        service, records = _run_one(tmp_path, script=[], executor=ResidualExecutor(residual))
        result = service.results[0]
        assert result.status is JobStatus.FAILED
        assert "residual" in (result.error or "")
        assert service.metrics["service_incorrect_results_total"].value() == 1
        assert _events(records, "failed")

    def test_journal_counts_every_record(self, tmp_path):
        service, records = _run_one(tmp_path, script=["crash"])
        per_event = {}
        for r in records:
            per_event[r["event"]] = per_event.get(r["event"], 0) + 1
        m = service.metrics["service_journal_records_total"]
        for event, count in per_event.items():
            assert m.value(event=event) == count


class TestLadderMetricsMonotonicity:
    def test_counters_never_regress_across_a_rung(self, tmp_path):
        from repro.service.metrics import counter_regressions

        service, _ = _run_one(tmp_path, script=["crash"] * 3)
        snap = service.metrics.counters_snapshot()
        assert counter_regressions(snap, snap) == []
        # A decreased or vanished series is reported.
        import copy

        broken = copy.deepcopy(snap)
        broken["service_retries_total"] = {"total": 999.0}
        assert counter_regressions(broken, snap)


def test_infra_failures_do_not_lose_the_one_shot_fault(tmp_path):
    """A job carrying an injector keeps one-shot semantics across crashes."""
    from repro.faults.injector import single_storage_fault
    from repro.service.job import Job

    config = ServiceConfig(workers=("tardis:1",), retry=RETRY, keep_factors=True)
    service = SolveService(config)
    service.executor = ScriptedExecutor(["crash"])
    service.executor.bind_metrics(service.metrics)

    async def drive():
        service.start()
        service.submit(
            Job(
                job_id=0,
                n=128,
                block_size=32,
                seed=11,
                injector=single_storage_fault(block=(3, 1), iteration=1),
            )
        )
        await service.stop()

    asyncio.run(drive())
    result = service.results[0]
    assert result.status is JobStatus.COMPLETED
    assert result.retries == 1
