"""End-to-end service runs: the acceptance scenario and the retry ladder.

The headline assertion mirrors the PR's acceptance criterion: under an
injected-fault loadgen run with a fixed seed, the enhanced-scheme service
completes 100% of jobs with zero incorrect results, the metrics JSON
records corrections/retries/latency percentiles, and every dumped per-job
timeline passes the PR-1 protocol verifier cleanly.
"""

import asyncio
import json

import pytest

from repro.analysis import check_protocol, find_hazards, load_trace_doc
from repro.desim.trace import META_JOB, Timeline
from repro.service import (
    Job,
    JobStatus,
    LoadGenConfig,
    LoadReport,
    RetryPolicy,
    ServiceConfig,
    SolveService,
    run_load,
)
from repro.util.exceptions import UnrecoverableError


def run_service_load(cfg: LoadGenConfig, service_cfg: ServiceConfig):
    service = SolveService(service_cfg)
    report, results = asyncio.run(run_load(service, cfg))
    return service, report, results


class TestFaultyLoadgenAcceptance:
    @pytest.fixture(scope="class", params=["thread", "process"])
    def faulty_run(self, request, tmp_path_factory):
        # The process backend carries the traced timelines across the pool's
        # pickle boundary; two pool processes keep the run small.
        trace_dir = tmp_path_factory.mktemp("traces")
        cfg = LoadGenConfig(jobs=10, fault_prob=0.7, seed=11, concurrency=4)
        service_cfg = ServiceConfig(
            workers=("tardis:2", "bulldozer64:2"),
            trace_dir=trace_dir,
            executor=request.param,
            exec_workers=2 if request.param == "process" else None,
        )
        service, report, results = run_service_load(cfg, service_cfg)
        return service, report, results, trace_dir

    def test_all_jobs_complete_with_zero_incorrect_results(self, faulty_run):
        service, report, results, _ = faulty_run
        assert report.completed == 10 and report.failed == 0 and report.rejected == 0
        assert all(r.status is JobStatus.COMPLETED for r in results)
        assert service.metrics["service_incorrect_results_total"].value() == 0
        for r in results:
            assert r.residual is not None and r.residual < 1e-10

    def test_faults_were_actually_injected_and_handled(self, faulty_run):
        service, report, results, _ = faulty_run
        # fixed seed: the mix contains injected faults, and the scheme either
        # corrected them in place or restarted — never returned bad data
        assert report.corrected_errors + report.restarts > 0

    def test_metrics_json_records_the_acceptance_fields(self, faulty_run):
        service, _, _, _ = faulty_run
        doc = json.loads(service.metrics.to_json())
        assert doc["counters"]["service_corrected_errors_total"] >= 0
        assert "service_retries_total" in doc["counters"]
        latency = doc["histograms"]["service_latency_seconds"]
        assert {"count", "sum", "p50", "p90", "p99"} <= set(latency)
        assert latency["count"] == 10

    def test_every_dumped_per_job_trace_verifies_clean(self, faulty_run):
        _, _, results, trace_dir = faulty_run
        dumps = sorted(trace_dir.glob("job-*.json"))
        assert len(dumps) == 10
        for path in dumps:
            timeline, scheme, job_id = load_trace_doc(path)
            assert scheme == "enhanced"
            assert job_id == int(path.stem.split("-")[1])
            assert all(s.meta.get(META_JOB) == job_id for s in timeline)
            findings = check_protocol(timeline, scheme) + find_hazards(timeline)
            errors = [f for f in findings if f.severity == "error"]
            assert errors == [], f"{path.name}: {[f.message for f in errors]}"

    def test_worker_pool_was_actually_shared(self, faulty_run):
        _, _, results, _ = faulty_run
        assert len({r.worker for r in results}) > 1


#: (scheme, numerics) of the timeline-switch mix: every simulated scheme in
#: real mode, the host-clock dag engine, and shadow jobs.
_MIX = [
    ("enhanced", "real"),
    ("online", "real"),
    ("offline", "real"),
    ("dag", "real"),
    ("enhanced", "shadow"),
    ("offline", "shadow"),
]


def _serve_mix(executor: str, trace_dir=None) -> SolveService:
    """Run the mix to completion on *executor*; return the stopped service."""
    jobs = [
        Job(job_id=i, n=128 if numerics == "real" else 512, scheme=scheme,
            numerics=numerics, block_size=32, seed=4)
        for i, (scheme, numerics) in enumerate(_MIX)
    ]
    service = SolveService(
        ServiceConfig(workers=("tardis:2",), executor=executor, exec_workers=2, trace_dir=trace_dir)
    )

    async def main():
        service.start()
        for job in jobs:
            assert service.submit(job).accepted
        await service.stop()

    asyncio.run(main())
    assert all(r.status is JobStatus.COMPLETED for r in service.results.values())
    assert len(service.results) == len(_MIX)
    return service


def _by_kind(service: SolveService):
    """``(simulated real, dag, shadow)`` results of the mix."""
    results = [service.results[i] for i in range(len(_MIX))]
    kinds = list(zip(_MIX, results))
    return (
        [r for (scheme, numerics), r in kinds if numerics == "real" and scheme != "dag"],
        [r for (scheme, _), r in kinds if scheme == "dag"],
        [r for (_, numerics), r in kinds if numerics == "shadow"],
    )


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestTimelineOnlyWhenTraced:
    """Real attempts record the simulated machine only for a traced service."""

    def test_untraced_real_jobs_keep_no_timeline(self, executor):
        service = _serve_mix(executor)
        simulated, dag, shadow = _by_kind(service)
        for r in simulated + dag:
            assert r.timeline is None and r.sim_makespan is None
        for r in shadow:
            assert isinstance(r.timeline, Timeline) and r.sim_makespan > 0
        makespans = service.metrics["service_sim_makespan_seconds"]
        assert makespans.count == len(shadow)
        assert makespans.sum == pytest.approx(sum(r.sim_makespan for r in shadow))

    def test_traced_jobs_are_dumped_and_verify(self, executor, tmp_path):
        service = _serve_mix(executor, trace_dir=tmp_path)
        simulated, dag, shadow = _by_kind(service)
        for r in simulated + shadow:
            assert isinstance(r.timeline, Timeline) and r.sim_makespan > 0
        # dag has no simulated machine: its timeline holds host spans.
        assert all(isinstance(r.timeline, Timeline) and r.sim_makespan is None for r in dag)
        makespans = service.metrics["service_sim_makespan_seconds"]
        assert makespans.count == len(simulated) + len(shadow)
        dumps = sorted(tmp_path.glob("job-*.json"))
        assert len(dumps) == len(_MIX)
        for path in dumps:
            timeline, scheme, _ = load_trace_doc(path)
            assert timeline.spans
            findings = check_protocol(timeline, scheme) + find_hazards(timeline)
            errors = [f for f in findings if f.severity == "error"]
            assert errors == [], f"{path.name}: {[f.message for f in errors]}"


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestFallbackTraces:
    """A job whose every attempt fails falls back to the checkpoint baseline,
    and its dumped trace re-verifies under the offline rules."""

    def test_fallback_dump_verifies(self, executor, tmp_path, monkeypatch):
        from repro.service import policy as service_policy

        retry = RetryPolicy(max_retries=1, base_backoff_s=0.001)
        service = SolveService(
            ServiceConfig(
                workers=("tardis:1",), executor=executor, exec_workers=1, retry=retry, trace_dir=tmp_path
            )
        )

        def always_fails(job, machine, **kwargs):
            raise UnrecoverableError("injected persistent failure")

        async def main():
            if executor == "process":
                # Pool workers import their own policy module: crash them instead.
                await service.start_executor()
                service.executor.inject_crash(count=1 + retry.max_retries)
            else:
                monkeypatch.setattr(service_policy, "execute_attempt", always_fails)
            service.start()
            assert service.submit(Job(job_id=0, n=256, block_size=32, seed=0)).accepted
            await service.stop()

        asyncio.run(main())
        result = service.results[0]
        assert result.status is JobStatus.COMPLETED and result.fallback_used
        assert result.attempts == 1 + retry.max_retries
        assert result.residual is not None and result.residual < 1e-10
        timeline, scheme, job_id = load_trace_doc(tmp_path / "job-0.json")
        assert (scheme, job_id) == ("offline", 0)
        assert [s.name for s in timeline if s.name.startswith("ckpt[")] == ["ckpt[2]", "ckpt[4]", "ckpt[6]"]
        findings = check_protocol(timeline, scheme) + find_hazards(timeline)
        errors = [f for f in findings if f.severity == "error"]
        assert errors == [], [f.message for f in errors[:3]]


class TestOpenLoopBackpressure:
    def test_open_loop_rejects_overflow_with_retry_after(self):
        cfg = LoadGenConfig(jobs=12, sizes=(96,), seed=3, rate=4000.0)
        service_cfg = ServiceConfig(workers=("tardis:1",), max_queue_depth=2)
        service, report, results = run_service_load(cfg, service_cfg)
        assert report.rejected > 0
        rejected = [r for r in results if r.status is JobStatus.REJECTED]
        assert rejected and all(r.error for r in rejected)
        assert report.completed + report.failed + report.rejected == 12
        assert report.failed == 0


class TestRetryLadder:
    def test_transient_failures_retry_with_backoff(self, monkeypatch):
        calls = {"n": 0}
        from repro.service import policy as service_policy

        real_execute = service_policy.execute_attempt

        def flaky(job, machine, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise UnrecoverableError("injected transient failure")
            return real_execute(job, machine, **kwargs)

        monkeypatch.setattr(service_policy, "execute_attempt", flaky)
        service = SolveService(
            ServiceConfig(workers=("tardis:1",), retry=RetryPolicy(max_retries=3))
        )
        cfg = LoadGenConfig(jobs=1, sizes=(64,), seed=0, concurrency=1)
        _, results = asyncio.run(run_load(service, cfg))
        [result] = results
        assert result.status is JobStatus.COMPLETED
        assert result.attempts == 3 and result.retries == 2
        assert not result.fallback_used
        assert service.metrics["service_retries_total"].value() == 2

    def test_exhausted_retries_fall_back_to_checkpoint(self, monkeypatch):
        from repro.service import policy as service_policy

        def always_fails(job, machine, **kwargs):
            raise UnrecoverableError("injected persistent failure")

        monkeypatch.setattr(service_policy, "execute_attempt", always_fails)
        service = SolveService(
            ServiceConfig(workers=("tardis:1",), retry=RetryPolicy(max_retries=1))
        )
        cfg = LoadGenConfig(jobs=1, sizes=(64,), seed=0, concurrency=1)
        _, results = asyncio.run(run_load(service, cfg))
        [result] = results
        assert result.status is JobStatus.COMPLETED
        assert result.fallback_used
        assert result.residual is not None and result.residual < 1e-10
        assert service.metrics["service_fallbacks_total"].value() == 1

    def test_fallback_disabled_fails_the_job(self, monkeypatch):
        from repro.service import policy as service_policy

        def always_fails(job, machine, **kwargs):
            raise UnrecoverableError("injected persistent failure")

        monkeypatch.setattr(service_policy, "execute_attempt", always_fails)
        service = SolveService(
            ServiceConfig(
                workers=("tardis:1",),
                retry=RetryPolicy(max_retries=1, fallback_to_checkpoint=False),
            )
        )
        cfg = LoadGenConfig(jobs=1, sizes=(64,), seed=0, concurrency=1)
        report, results = asyncio.run(run_load(service, cfg))
        [result] = results
        assert result.status is JobStatus.FAILED
        assert "persistent failure" in (result.error or "")
        assert report.failed == 1

    def test_exponential_backoff_schedule(self):
        policy = RetryPolicy(max_retries=3, base_backoff_s=0.1, backoff_factor=2.0,
                             max_backoff_s=0.3)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.3)  # capped
        assert policy.backoff_s(4) is None


class TestShadowModeJobs:
    def test_shadow_jobs_complete_without_residuals(self):
        cfg = LoadGenConfig(jobs=3, sizes=(1024,), block_size=128, numerics="shadow",
                            seed=5, concurrency=2)
        service, report, results = run_service_load(
            cfg, ServiceConfig(workers=("tardis:2",))
        )
        assert report.completed == 3
        assert all(r.residual is None for r in results)
        assert all(r.sim_makespan > 0 for r in results)


class TestLoadReport:
    def test_report_render_and_throughput(self):
        cfg = LoadGenConfig(jobs=4, sizes=(64,), seed=2, concurrency=2)
        service, report, _ = run_service_load(cfg, ServiceConfig(workers=("tardis:2",)))
        text = report.render()
        assert "throughput (jobs/s)" in text and "latency p50/p90/p99" in text
        assert report.jobs_per_s > 0 and report.gflops_served > 0
        assert isinstance(LoadReport.from_service(service, 1.0), LoadReport)
