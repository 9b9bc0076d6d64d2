"""Tile-DAG runtime tests: edge derivation, lookahead, bit-identity,
deterministic fault anchoring, the worker pool, and the service wiring.

The runtime's contract is the strongest one in the repo: for a given
matrix and fault plan, the factor bytes, verifier statistics and
corrected-site list are identical for *every* worker count — the
schedule may only move wall-clock time around.  These
tests pin that contract on small deterministic cases; the adversarial
schedules live in ``test_runtime_properties.py``.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.analysis import check_protocol, find_hazards, load_trace_doc
from repro.blas.blocked import BlockedMatrix
from repro.blas.spd import random_spd
from repro.core import AbftConfig, FtPotrfResult, enhanced_potrf
from repro.core.multierror import MultiErrorCodec
from repro.desim.trace import META_TILE_VERIFIES, META_TILE_WRITES, Timeline
from repro.faults.injector import (
    FaultInjector,
    FaultPlan,
    Hook,
    no_faults,
    single_computing_fault,
    single_storage_fault,
)
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.runtime import (
    TaskGraph,
    build_cholesky_graph,
    dag_potrf,
    inject_task_delays,
    plan_anchor,
)
from repro.runtime.cholesky import encode_strips
from repro.runtime.executor import LOOKAHEAD
from repro.service import Job, JobStatus, LoadGenConfig, ServiceConfig, SolveService, run_load
from repro.service.scheduler import Scheduler, Worker
from repro.util.exceptions import RestartExhaustedError, ValidationError
from repro.util.rng import resolve_rng

N = 192
BS = 32
NB = N // BS


@pytest.fixture
def a0() -> np.ndarray:
    return random_spd(N, rng=3)


def factor_with(tardis, a0, workers, injector=None):
    a = a0.copy()
    res = dag_potrf(
        tardis,
        a=a,
        block_size=BS,
        config=AbftConfig(dag_workers=workers),
        injector=injector,
    )
    return res


# -- dependency derivation -----------------------------------------------------


class TestTaskGraph:
    def test_raw_waw_war_edges(self):
        g = TaskGraph()
        nop = lambda: None  # noqa: E731
        w0 = g.add("potf2", 0, (0, 0), reads=[], writes=[("A", 0, 0)], fn=nop)
        r1 = g.add("trsm", 0, (1, 0), reads=[("A", 0, 0)], writes=[("A", 1, 0)], fn=nop)
        w2 = g.add("verify", 0, (0, 0), reads=[], writes=[("A", 0, 0)], fn=nop)
        preds = g.dependencies()
        assert preds[r1.index] == {w0.index}  # RAW
        # WAW against the first writer plus WAR against the reader since.
        assert preds[w2.index] == {w0.index, r1.index}
        g.check_program_order()

    def test_independent_tiles_share_no_edge(self):
        g = TaskGraph()
        nop = lambda: None  # noqa: E731
        g.add("syrk", 0, (1, 1), reads=[("A", 1, 0)], writes=[("A", 1, 1)], fn=nop)
        g.add("syrk", 0, (2, 2), reads=[("A", 2, 0)], writes=[("A", 2, 2)], fn=nop)
        assert g.dependencies()[1] == set()


class TestCholeskyGraphShape:
    @pytest.fixture
    def graph(self, a0):
        matrix = DeviceMatrix("A", N, BS, BlockedMatrix(a0.copy(), BS))
        chk = DeviceChecksums.zeros("chk", N, BS, real=True)
        codec = MultiErrorCodec(BS, 2, atol=1e-11)
        encode_strips(matrix, chk, codec.weights)
        g, slots = build_cholesky_graph(matrix, chk, codec, no_faults())
        return g

    def test_task_census(self, graph):
        kinds: dict[str, int] = {}
        for t in graph.tasks:
            kinds[t.kind] = kinds.get(t.kind, 0) + 1
        nb = NB
        assert kinds["potf2"] == nb
        assert kinds["trsm"] == nb * (nb - 1) // 2
        assert kinds["syrk"] == nb * (nb - 1) // 2
        assert kinds["gemm"] == sum(
            (nb - j - 1) * (nb - j - 2) // 2 for j in range(nb)
        )
        # 2 diag verifies always, 2 panel verifies while a panel exists,
        # plus the final sweep.
        assert kinds["verify"] == 4 * (nb - 1) + 2 + 1
        assert "storage_window" not in kinds  # no anchored plans

    def test_program_order_is_topological(self, graph):
        graph.check_program_order()

    def test_next_panel_independent_of_far_gemms(self, graph):
        """The lookahead claim: POTF2 of iteration 1 does not wait for
        iteration 0's GEMMs that touch other tiles."""
        by_key = {t.key: t for t in graph.tasks}
        potf2_1 = by_key[("potf2", 1, (1, 1))]
        far_gemm = by_key[("gemm", 0, (3, 2))]
        preds = graph.dependencies()

        def ancestors(idx):
            seen, stack = set(), [idx]
            while stack:
                for p in preds[stack.pop()]:
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            return seen

        assert far_gemm.index not in ancestors(potf2_1.index)


# -- lookahead throttle --------------------------------------------------------


class TestLookahead:
    def test_serial_depth_is_zero(self, tardis, a0):
        res = factor_with(tardis, a0, workers=1)
        assert res.runtime["max_lookahead_depth"] == 0

    def test_depth_never_exceeds_lookahead(self, tardis, a0):
        res = factor_with(tardis, a0, workers=4)
        assert res.runtime["max_lookahead_depth"] <= LOOKAHEAD

    def test_bad_dag_workers_rejected(self):
        with pytest.raises(ValidationError):
            AbftConfig(dag_workers=0)


# -- bit-identity --------------------------------------------------------------


class TestBitIdentity:
    def test_fault_free_matches_numpy(self, tardis, a0):
        res = factor_with(tardis, a0, workers=3)
        np.testing.assert_allclose(res.factor, np.linalg.cholesky(a0), atol=1e-10)
        assert res.restarts == 0

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_threaded_equals_serial_bitwise(self, tardis, a0, workers):
        inj = lambda: single_storage_fault(block=(3, 1), iteration=1)  # noqa: E731
        serial = factor_with(tardis, a0, workers=1, injector=inj())
        threaded = factor_with(tardis, a0, workers=workers, injector=inj())
        assert np.array_equal(serial.factor, threaded.factor)
        assert serial.stats == threaded.stats
        assert serial.stats.corrected_sites == threaded.stats.corrected_sites
        assert serial.restarts == threaded.restarts == 0

    def test_computing_fault_corrected_identically(self, tardis, a0):
        inj = lambda: single_computing_fault(block=(3, 1), iteration=1)  # noqa: E731
        serial = factor_with(tardis, a0, workers=1, injector=inj())
        threaded = factor_with(tardis, a0, workers=4, injector=inj())
        assert serial.stats.data_corrections >= 1
        assert np.array_equal(serial.factor, threaded.factor)
        assert serial.stats == threaded.stats

    def test_matches_enhanced_scheme_numerically(self, tardis, a0):
        inj = single_storage_fault(block=(3, 1), iteration=1)
        res = factor_with(tardis, a0, workers=2, injector=inj)
        b = a0.copy()
        ref = enhanced_potrf(
            tardis, a=b, block_size=BS, injector=single_storage_fault(block=(3, 1), iteration=1)
        )
        np.testing.assert_allclose(res.factor, ref.factor, atol=1e-10)
        resid = np.linalg.norm(res.factor @ res.factor.T - a0) / np.linalg.norm(a0)
        assert resid < 1e-12


# -- fault anchoring and restarts ----------------------------------------------


class TestFaultAnchoring:
    def test_storage_anchor_is_the_window_task(self):
        plan = single_storage_fault(block=(3, 1), iteration=1).plans[0]
        assert plan_anchor(plan, NB) == ("storage_window", 1, (1, 1))

    def test_computing_victim_rides_its_own_gemm(self):
        plan = FaultPlan(
            hook=Hook.AFTER_GEMM, iteration=1, kind="computing", block=(3, 2), coord=(0, 0)
        )
        assert plan_anchor(plan, 4) == ("gemm", 1, (3, 2))

    def test_computing_miss_rides_last_gemm(self):
        plan = FaultPlan(
            hook=Hook.AFTER_GEMM, iteration=1, kind="computing", block=(3, 1), coord=(0, 0)
        )
        assert plan_anchor(plan, 4) == ("gemm", 1, (3, 2))

    def test_any_iteration_resolves_to_first_with_kind(self):
        plan = FaultPlan(
            hook=Hook.AFTER_TRSM, iteration=-1, kind="computing", block=(2, 0), coord=(0, 0)
        )
        assert plan_anchor(plan, 4) == ("trsm", 0, (2, 0))

    def test_out_of_range_iteration_never_fires(self):
        plan = FaultPlan(
            hook=Hook.AFTER_GEMM, iteration=99, kind="computing", block=(3, 2), coord=(0, 0)
        )
        assert plan_anchor(plan, 4) is None

    def test_before_factorization_is_pre_graph(self):
        plan = FaultPlan(
            hook=Hook.BEFORE_FACTORIZATION, iteration=-1, kind="storage",
            block=(0, 0), coord=(0, 0),
        )
        assert plan_anchor(plan, 4) is None


def _two_faults() -> FaultInjector:
    """A storage flip and a computing fault, both within one column's
    capacity: corrected in place."""
    return FaultInjector(
        [
            FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage", block=(3, 1), coord=(2, 7)),
            FaultPlan(hook=Hook.AFTER_GEMM, iteration=1, kind="computing", block=(4, 2), coord=(1, 5)),
        ]
    )


class TestFaultVictims:
    def test_victims_are_ordered_exactly_as_writes(self, a0):
        matrix = DeviceMatrix("A", N, BS, BlockedMatrix(a0.copy(), BS))
        chk = DeviceChecksums.zeros("chk", N, BS, real=True)
        codec = MultiErrorCodec(BS, 2, atol=1e-11)
        encode_strips(matrix, chk, codec.weights)
        graph, _ = build_cholesky_graph(matrix, chk, codec, _two_faults())
        struck = [t for t in graph.tasks if t.victims]
        assert [t.kind for t in struck] == ["gemm", "storage_window"]
        folded = TaskGraph()
        for t in graph.tasks:
            folded.add(t.kind, t.iteration, t.tile, reads=t.reads, writes=t.writes | t.victims, fn=t.fn)
        assert graph.dependencies() == folded.dependencies()

    def test_spans_report_accesses_only(self, tardis, a0):
        res = factor_with(tardis, a0, workers=2, injector=_two_faults())
        assert res.restarts == 0 and res.stats.data_corrections > 0
        window = [s for s in res.timeline if s.kind == "storage_window"]
        assert len(window) == 1 and not window[0].meta.get(META_TILE_WRITES)
        for span in res.timeline:
            if span.kind == "verify":
                assert span.meta[META_TILE_VERIFIES] and META_TILE_WRITES not in span.meta
        findings = check_protocol(res.timeline, "dag") + find_hazards(res.timeline)
        assert [f for f in findings if f.severity == "error"] == []
        assert {f.rule for f in findings} == {"vuln-window"}


class TestRestartProtocol:
    @staticmethod
    def _unrecoverable():
        # Two strikes in one column of one tile exceed the 2-checksum
        # code's per-column capacity: correction fails, attempt restarts.
        return FaultInjector(
            [
                FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage",
                          block=(3, 1), coord=(2, 7)),
                FaultPlan(hook=Hook.STORAGE_WINDOW, iteration=1, kind="storage",
                          block=(3, 1), coord=(4, 7)),
            ]
        )

    def test_restart_recovers_identically(self, tardis, a0):
        serial = factor_with(tardis, a0, workers=1, injector=self._unrecoverable())
        threaded = factor_with(tardis, a0, workers=3, injector=self._unrecoverable())
        assert serial.restarts == threaded.restarts == 1
        assert np.array_equal(serial.factor, threaded.factor)
        # The failed attempt banks neither simulated time nor spans.
        assert serial.attempt_makespans == [] and serial.failed_timelines == []
        assert serial.runtime["tasks"] == len(serial.timeline)

    def test_restart_exhaustion_raises(self, tardis, a0):
        a = a0.copy()
        with pytest.raises(RestartExhaustedError):
            dag_potrf(
                tardis, a=a, block_size=BS, injector=self._unrecoverable(),
                config=AbftConfig(dag_workers=2, max_restarts=0),
            )

    def test_singular_input_exhausts_restarts(self, tardis):
        a = np.zeros((N, N))
        with pytest.raises(RestartExhaustedError):
            dag_potrf(tardis, a=a, block_size=BS, config=AbftConfig(dag_workers=2))


# -- executor hooks and the worker pool ----------------------------------------


class TestExecutorResilience:
    def test_two_workers_run_at_most_two_task_bodies(self, tardis, a0):
        # Slow tasks must not look like wedged workers: a 2-worker run
        # keeps exactly its 2 threads and never overlaps a third body.
        threads: set[str] = set()

        def pad(task):
            threads.add(threading.current_thread().name)
            return 0.002

        with inject_task_delays(pad):
            res = factor_with(tardis, a0, workers=2)
        assert len(threads) == 2 and threading.current_thread().name not in threads
        edges = sorted([(s.start, 1) for s in res.timeline] + [(s.finish, -1) for s in res.timeline])
        in_flight, peak = 0, 0
        for _, step in edges:
            in_flight += step
            peak = max(peak, in_flight)
        assert peak <= 2
        ref = factor_with(tardis, a0, workers=1)
        assert np.array_equal(res.factor, ref.factor)

    def test_adversarial_delays_keep_bits(self, tardis, a0):
        gen = resolve_rng(17)
        jitter = {kind: float(gen.random()) * 0.002 for kind in ("potf2", "gemm")}
        with inject_task_delays(lambda t: jitter.get(t.kind, 0.0)):
            res = factor_with(
                tardis, a0, workers=4, injector=single_storage_fault(block=(3, 1), iteration=1)
            )
        ref = factor_with(
            tardis, a0, workers=1, injector=single_storage_fault(block=(3, 1), iteration=1)
        )
        assert np.array_equal(res.factor, ref.factor)
        assert res.stats == ref.stats


# -- runtime summary and timeline ----------------------------------------------


class TestRuntimeSummary:
    def test_summary_counts_every_task(self, tardis, a0):
        res = factor_with(tardis, a0, workers=2)
        rt = res.runtime
        assert rt["workers"] == 2 and rt["lookahead"] == LOOKAHEAD
        assert sum(rt["task_total"].values()) == rt["tasks"] == len(res.timeline)
        for kind, count in rt["task_total"].items():
            assert len(rt["task_seconds"][kind]) == count

    def test_timeline_deps_point_backwards(self, tardis, a0):
        res = factor_with(tardis, a0, workers=2)
        for span in res.timeline:
            assert all(dep < span.tid for dep in span.deps)

    @pytest.mark.parametrize("timeline", [True, False])
    def test_result_is_an_ft_potrf_result_without_simulated_time(self, tardis, a0, timeline):
        res = dag_potrf(tardis, a=a0.copy(), block_size=BS, timeline=timeline)
        assert isinstance(res, FtPotrfResult)
        assert res.makespan is None and res.attempt_makespans == []
        assert res.runtime["tasks"] > 0 and res.placement == "host"
        if timeline:
            assert isinstance(res.timeline, Timeline) and len(res.timeline) == res.runtime["tasks"]
        else:
            assert res.timeline is None
        with pytest.raises(ValidationError, match="dag engine"):
            res.gflops
        with pytest.raises(ValidationError, match="dag engine"):
            res.overhead_breakdown()

    def test_left_looking_results_carry_no_runtime(self, tardis, a0):
        assert enhanced_potrf(tardis, a=a0.copy(), block_size=BS).runtime is None


# -- service and scheduler wiring ----------------------------------------------


class TestJobWiring:
    def test_spec_round_trip_keeps_the_dag_scheme(self):
        clone = Job.from_spec(Job(job_id=7, n=128, scheme="dag", numerics="real").to_spec())
        assert clone.scheme == "dag" and "intra_workers" not in clone.to_spec()

    def test_dag_requires_real_numerics(self):
        with pytest.raises(ValidationError):
            Job(job_id=1, n=128, scheme="dag", numerics="shadow")

    def test_effective_concurrency_is_capped_by_the_backend(self):
        from repro.hetero.machine import Machine

        sched = Scheduler([Worker("w0", Machine.preset("tardis"), concurrency=8)])
        assert sched.effective_concurrency(3) == 3
        assert sched.effective_concurrency(16) == 8
        assert sched.effective_concurrency(None) == 8


class TestServiceEndToEnd:
    def test_dag_jobs_complete_and_fold_runtime_metrics(self):
        cfg = LoadGenConfig(
            jobs=4, sizes=(64, 96), scheme="dag", fault_prob=0.5, seed=5, concurrency=2
        )
        service = SolveService(ServiceConfig(workers=("tardis:2",), executor="thread"))
        report, results = asyncio.run(run_load(service, cfg))
        assert report.completed == 4 and report.failed == 0
        assert all(r.status is JobStatus.COMPLETED for r in results)
        assert all(r.residual is not None and r.residual < 1e-10 for r in results)
        m = service.metrics
        totals = {
            kind: m["runtime_task_total"].value(kind=kind)
            for kind in ("potf2", "trsm", "syrk", "gemm", "verify")
        }
        assert all(v > 0 for v in totals.values())
        for kind, total in totals.items():
            assert m[f"runtime_task_seconds_{kind}"].count == total
        assert m["runtime_ready_queue_depth"].value() >= 1

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_traced_faulted_dag_jobs_dump_traces_that_re_verify(self, tmp_path, executor):
        injectors = [
            single_storage_fault(block=(3, 1), iteration=1),
            single_computing_fault(block=(3, 2), iteration=1),
        ]
        jobs = [
            Job(job_id=i, n=128, scheme="dag", block_size=32, seed=2, injector=inj)
            for i, inj in enumerate(injectors)
        ]
        service = SolveService(
            ServiceConfig(workers=("tardis:2",), executor=executor, exec_workers=2, trace_dir=tmp_path)
        )

        async def main():
            service.start()
            for job in jobs:
                assert service.submit(job).accepted
            await service.stop()

        asyncio.run(main())
        for job_id in range(len(jobs)):
            result = service.results[job_id]
            assert result.status is JobStatus.COMPLETED
            assert result.corrected_errors + result.restarts > 0
            timeline, scheme, dumped = load_trace_doc(tmp_path / f"job-{job_id}.json")
            assert (scheme, dumped) == ("dag", job_id)
            findings = check_protocol(timeline, scheme) + find_hazards(timeline)
            errors = [f for f in findings if f.severity == "error"]
            assert errors == [], [f.message for f in errors[:3]]
