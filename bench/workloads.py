"""The four benchmark workloads: seeded inputs, timed passes, correctness gate.

Every workload runs a fixed number of ops (see :func:`op_count`): the op
budget, not a clock, ends a pass, so two runs of one seed do identical work
and their counts (failed op ids, corrections, recoveries, DAG tasks) repeat
exactly.  Inputs derive from ``--seed`` alone, through
:func:`repro.util.rng.derive_rng`.  Where a workload mixes job kinds, each
block of jobs holds the same mix and the seed only shuffles it, so every
seed asks for the same amount of work.

Library workloads time each call alone and gate its factor after the clock
stops.  Service workloads drive a process-pool ``SolveService`` in a closed
loop from this process's event loop; each finished job is gated against a
right-hand side computed before the pass began, before the next job is
submitted, and the gate's time is taken out of the pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

from repro import AbftConfig, Machine, enhanced_potrf
from repro.blas.spd import random_spd
from repro.faults.campaign import CampaignSpec, sample_injector
from repro.magma.host import host_blocked_potrf
from repro.runtime import scheme as runtime_scheme  # called through it, so a trace wraps it
from repro.service.core import ServiceConfig, SolveService
from repro.service.job import Job, JobStatus, Priority
from repro.service.policy import job_matrix
from repro.util.rng import derive_rng

from tracing import Tracer, assert_unpatched

#: derive_rng namespaces of the benchmark's own draws (the service uses 0-2)
NS_INPUT, NS_X0, NS_FAULT, NS_ORDER = 11, 12, 13, 14
#: every pass times at least this many ops, so p90 has ten samples beyond it
MIN_OPS = 100
#: setups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: gate tolerance on ‖x − x₀‖/‖x₀‖ for the known-solution solve
SOLVE_TOL = 1e-8
#: storage-flip bits.  Bit 62 is left out: flipping it overflows the
#: checksum recalculation, and the verifier then "corrects" a checksum row
#: and returns a factor with an infinite residual (README, seed findings).
FAULT_BITS = tuple(range(40, 62))
WORK = Path(__file__).resolve().parent / "_work"


def check_factor(factor, b: np.ndarray, x0: np.ndarray) -> str | None:
    """``None`` when *factor* solves A·x = b back to x₀, else why not.

    O(n²): two triangular solves against ``b = A·x₀`` computed beforehand.
    """
    if factor is None:
        return "no factor returned"
    if not np.isfinite(factor).all():
        return "factor has non-finite entries"
    y = solve_triangular(factor, b, lower=True, check_finite=False)
    x = solve_triangular(factor, y, lower=True, trans="T", check_finite=False)
    err = float(np.linalg.norm(x - x0) / np.linalg.norm(x0))
    if not err <= SOLVE_TOL:
        return f"solve error {err:.3e} exceeds {SOLVE_TOL:g}"
    return None


def op_count(rate: float, seconds: float, block: int) -> int:
    """Ops in one pass: *seconds* at the workload's nominal *rate*, whole blocks."""
    return block * math.ceil(max(MIN_OPS, seconds * rate) / block)


def _plan_text(injector) -> str:
    if injector is None:
        return ""
    return "; ".join(
        f"{p.kind} {p.target}{p.block}{p.coord} it{p.iteration}"
        + (f" bit{p.bit}" if p.kind == "storage" else f" delta{p.delta:.3g}")
        for p in injector.plans
    )


# -- process accounting ------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _proc_fields(pid: int) -> list[str] | None:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _live_children_cpu() -> dict[int, float]:
    out = {}
    for proc in multiprocessing.active_children():  # also reaps the dead ones
        fields = _proc_fields(proc.pid)
        if fields is not None:
            out[proc.pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def _reaped_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _self_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class CpuMeter:
    """CPU seconds of this process and its children over one window."""

    def __init__(self) -> None:
        self.self0 = _self_cpu()
        self.reaped0 = _reaped_cpu()
        self.live0 = _live_children_cpu()

    def stop(self) -> tuple[float, float]:
        """``(self_s, children_s)`` since construction, dead children included."""
        live = _live_children_cpu()
        children = _reaped_cpu() - self.reaped0
        children += sum(cpu - self.live0.get(pid, 0.0) for pid, cpu in live.items())
        children -= sum(cpu for pid, cpu in self.live0.items() if pid not in live)
        return _self_cpu() - self.self0, children


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live child's peak (MiB)."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for proc in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{proc.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += float(line.split()[1])
    return total_kb / 1024.0


# -- records ----------------------------------------------------------------------


@dataclass
class Op:
    """One timed op."""

    index: int
    n: int
    latency_s: float
    cpu_s: float = 0.0
    status: str = "ok"  # ok | failed | rejected | wrong
    note: str = ""
    plan: str = ""
    exec_s: float = 0.0
    wait_s: float = 0.0
    attempts: int = 1
    retries: int = 0
    restarts: int = 0
    fallback: bool = False
    sim_makespan_s: float = 0.0
    sim_tasks: int = 0


@dataclass
class Pass:
    """One timed pass over a contiguous range of ops."""

    ops: list[Op]
    wall_s: float
    cpu_self_s: float
    cpu_children_s: float
    rss_mb: float
    counts: dict
    #: registry counter deltas over the pass (service workloads)
    counters: dict = field(default_factory=dict)
    #: per-layer raw sums gathered without the tracer
    raw: dict = field(default_factory=dict)

    def latencies(self) -> list[float]:
        return [op.latency_s for op in self.ops if op.status != "rejected"]

    def bad(self) -> list[Op]:
        return [op for op in self.ops if op.status != "ok"]


@dataclass
class Outcome:
    setup_times: list[float]
    untraced: Pass
    traced: Pass | None = None
    tracer: Tracer | None = None
    baselines: dict = field(default_factory=dict)
    #: references to traced functions the wrappers missed (see Tracer.strays)
    strays: list[str] = field(default_factory=list)


@dataclass
class Input:
    a: np.ndarray
    b: np.ndarray
    x0: np.ndarray


def make_input(seed: int, index: int, n: int) -> Input:
    a = random_spd(n, rng=derive_rng(seed, index, NS_INPUT))
    x0 = derive_rng(seed, index, NS_X0).standard_normal(n)
    return Input(a, a @ x0, x0)


def _time_baselines(matrices: dict[int, list[np.ndarray]], block: int) -> dict:
    """Median unprotected host time per order n: blocked driver and LAPACK."""
    host, lapack = {}, {}
    for n, mats in matrices.items():
        hb, lp = [], []
        for a in mats * 2:
            work = a.copy()
            t0 = time.perf_counter()
            host_blocked_potrf(work, block)
            hb.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            np.linalg.cholesky(a)
            lp.append(time.perf_counter() - t0)
        host[n], lapack[n] = statistics.median(hb), statistics.median(lp)
    return {"host_s": host, "lapack_s": lapack}


class Workload:
    """The run skeleton every workload shares.

    Set up ``SETUP_REPEATS`` times (the median is ``setup_s``), prepare the
    gate, time the untraced pass, and for ``--trace`` time the baselines and
    then the same number of ops again with the tracer installed.
    """

    name = ""

    async def prepare(self) -> None:
        """Gate inputs that are not part of set-up (untimed)."""

    def execute(self, count: int, trace: bool) -> Outcome:
        return asyncio.run(self._execute(count, trace))

    async def _execute(self, count: int, trace: bool) -> Outcome:
        setup_times = []
        try:
            for i in range(SETUP_REPEATS):
                if i:
                    await self.close()
                t0 = time.perf_counter()
                await self.setup()
                setup_times.append(time.perf_counter() - t0)
            await self.prepare()
            assert_unpatched()
            out = Outcome(setup_times, await self.run_pass(0, count))
            assert_unpatched()
            if trace:
                out.baselines = self.baselines()
                out.tracer = Tracer(keep=range(count, count + 1))
                out.tracer.install()
                try:
                    out.strays = out.tracer.strays()
                    out.traced = await self.run_pass(count, count, out.tracer)
                finally:
                    out.tracer.uninstall()
                assert_unpatched()
            return out
        finally:
            await self.close()


# -- library workloads -------------------------------------------------------------


class LibraryWorkload(Workload):
    """One caller, back to back, over a few seeded inputs in rotation."""

    inputs_used = 4
    warmups = 3

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.machine = Machine.preset("tardis")
        self.inputs: list[Input] = []

    def count(self, seconds: float) -> int:
        return op_count(self.rate, seconds, self.inputs_used)

    def injector(self, k: int):
        return None

    async def setup(self) -> None:
        self.inputs = [make_input(self.seed, i, self.n) for i in range(self.inputs_used)]
        for i in range(self.warmups):
            self.call(self.inputs[i % self.inputs_used].a.copy(), None)

    async def close(self) -> None:
        pass

    def extra_check(self, k: int, factor: np.ndarray) -> str | None:
        return None

    async def run_pass(self, start: int, count: int, tracer: Tracer | None = None) -> Pass:
        ops: list[Op] = []
        counts = {"failed_ops": [], "corrections": 0, "restarts": 0, "tiles_verified": 0,
                  "desim_tasks": 0, "dag_tasks": 0, "faults_fired": 0}
        raw = {"sim_makespan_s": 0.0, "dag_cpu_s": 0.0, "dag_wall_s": 0.0, "max_lookahead": 0}
        for k in range(start, start + count):
            inp = self.inputs[k % self.inputs_used]
            a = inp.a.copy()
            injector = self.injector(k)
            scope = tracer.op(k) if tracer is not None else nullcontext()
            c0 = time.process_time()
            t0 = time.perf_counter()
            with scope:
                res = self.call(a, injector)
                factor = res.factor
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer is not None:
                tracer.settle()
            problem = check_factor(factor, inp.b, inp.x0) or self.extra_check(k, factor)
            op = Op(k, self.n, t1 - t0, c1 - c0, plan=_plan_text(injector))
            if problem:
                op.status, op.note = "wrong", problem
                counts["failed_ops"].append(k)
            ops.append(op)
            stats = res.stats
            counts["corrections"] += stats.data_corrections + stats.checksum_corrections
            counts["restarts"] += res.restarts
            counts["tiles_verified"] += stats.tiles_verified
            counts["faults_fired"] += len(injector.fired) if injector is not None else 0
            runtime = getattr(res, "runtime", None)
            if runtime is None:
                counts["desim_tasks"] += len(res.timeline)
                raw["sim_makespan_s"] += res.makespan
            else:
                counts["dag_tasks"] += runtime["tasks"]
                raw["max_lookahead"] = max(raw["max_lookahead"], runtime["max_lookahead_depth"])
                raw["dag_cpu_s"] += c1 - c0
                raw["dag_wall_s"] += t1 - t0
        wall = sum(op.latency_s for op in ops)
        return Pass(ops, wall, sum(op.cpu_s for op in ops), 0.0, peak_rss_mb(), counts, raw=raw)

    def baselines(self) -> dict:
        return _time_baselines({self.n: [inp.a for inp in self.inputs]}, self.block)


class PotrfFine(LibraryWorkload):
    name = "potrf-fine"
    rate = 8.0  # ops/s at full scale on the reference host (bench/README.md)

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.n, self.block = (256, 32) if quick else (1024, 32)

    def call(self, a: np.ndarray, injector):
        return enhanced_potrf(self.machine, a=a, block_size=self.block, injector=injector)


class PotrfCoarse(LibraryWorkload):
    name = "potrf-coarse"
    rate = 6.0
    inputs_used = 5
    #: ops whose factor is also compared byte for byte with the serial schedule
    reference_ops = 5

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.n, self.block = (384, 96) if quick else (1536, 192)
        self.reference: dict[int, str] = {}

    def injector(self, k: int):
        spec = CampaignSpec(nb=self.n // self.block, kind="storage", bits=FAULT_BITS)
        return sample_injector(spec, self.block, derive_rng(self.seed, k, NS_FAULT))

    def call(self, a: np.ndarray, injector, workers: int = 2):
        config = AbftConfig(dag_workers=workers)
        return runtime_scheme.dag_potrf(
            self.machine, a=a, block_size=self.block, config=config, injector=injector
        )

    async def prepare(self) -> None:
        self.reference = {
            k: _digest(self.call(self.inputs[k].a.copy(), self.injector(k), workers=1).factor)
            for k in range(self.reference_ops)
        }

    def extra_check(self, k: int, factor: np.ndarray) -> str | None:
        want = self.reference.get(k)
        if want is not None and _digest(factor) != want:
            return "2-worker factor differs from the 1-worker factor"
        return None


def _digest(factor: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(factor).tobytes()).hexdigest()


# -- service workloads -------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    scheme: str
    n: int
    priority: Priority = Priority.BATCH
    fault: str | None = None  # "storage" | "computing"
    crash: bool = False


class ServiceWorkload(Workload):
    """A process-pool SolveService driven by a closed loop from this process."""

    window = 2
    warmups = 40
    journal = False
    block_size = 64

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        if quick:
            self.sizes = self.quick_sizes
            self.block_size = 32
        self.svc: SolveService | None = None
        self.tmp: str | None = None
        self.gate: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def count(self, seconds: float) -> int:
        return op_count(self.rate, seconds, len(self.block_mix()))

    def spec(self, k: int) -> JobSpec:
        """Job *k*: its block's fixed mix, shuffled by the seed."""
        mix = self.block_mix()
        block, slot = divmod(k, len(mix))
        order = derive_rng(self.seed, block, NS_ORDER).permutation(len(mix))
        return mix[int(order[slot])]

    def make_job(self, k: int, spec: JobSpec) -> Job:
        injector = None
        if spec.fault is not None:
            campaign = CampaignSpec(nb=spec.n // self.block_size, kind=spec.fault, bits=FAULT_BITS)
            injector = sample_injector(campaign, self.block_size, derive_rng(self.seed, k, NS_FAULT))
        return Job(
            job_id=k,
            n=spec.n,
            scheme=spec.scheme,
            priority=spec.priority,
            block_size=self.block_size,
            seed=self.seed,
            injector=injector,
        )

    async def setup(self) -> None:
        journal = None
        if self.journal:
            WORK.mkdir(exist_ok=True)
            self.tmp = tempfile.mkdtemp(prefix="journal-", dir=WORK)
            journal = os.path.join(self.tmp, "journal.jsonl")
        self.svc = SolveService(
            ServiceConfig(
                executor="process",
                exec_workers=2,
                batch_max=1,
                keep_factors=True,
                journal_path=journal,
            )
        )
        await self.svc.start_executor()
        self.svc.start()
        warm = [
            self.make_job(10**6 + i, JobSpec(s.scheme, s.n, s.priority))
            for i, s in enumerate(self.spec(i) for i in range(self.warmups))
        ]
        await self._drive(warm, set())

    async def close(self) -> None:
        if self.svc is not None:
            await self.svc.stop()
            self.svc = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def prepare_gate(self, jobs: list[Job]) -> None:
        """Right-hand sides b = A·x₀ for every job, before the clock starts."""
        for job in jobs:
            x0 = derive_rng(self.seed, job.job_id, NS_X0).standard_normal(job.n)
            self.gate[job.job_id] = (job_matrix(job) @ x0, x0)

    async def _drive(self, jobs: list[Job], crash: set[int], tracer: Tracer | None = None):
        """Closed loop over *jobs*, ``window`` outstanding: (ops, wall s, gate CPU s).

        A finished job's factor is gated before the next job is submitted:
        the gate runs on the vCPU the finished job's worker has just freed,
        and the next job's latency does not include it.  Each gate leaves
        one slot empty for its duration, so the wall time drops the gate
        time spread over the ``window`` slots.
        """
        svc = self.svc
        pending: dict[int, tuple[Job, float, object]] = {}
        ops: list[Op] = []
        todo = iter(jobs)
        gate_cpu = gate_wall = 0.0

        def submit_next() -> bool:
            for job in todo:
                if job.job_id in crash:
                    svc.executor.inject_midrun_crash(after_iteration=2)
                root = tracer.open_root(job.job_id) if tracer is not None else None
                t_submit = time.perf_counter()
                if svc.submit(job).accepted:
                    pending[job.job_id] = (job, t_submit, root)
                    return True
                if root is not None:
                    tracer.close_root(root)
                result = svc.results[job.job_id]
                ops.append(Op(job.job_id, job.n, 0.0, status="rejected", note=result.error or ""))
            return False

        t0 = time.perf_counter()
        while len(pending) < self.window and submit_next():
            pass
        while pending:
            result = await svc.completions.get()
            t_done = time.perf_counter()
            job, t_submit, root = pending.pop(result.job_id)
            if root is not None:
                tracer.close_root(root)
            op = Op(
                job.job_id,
                job.n,
                t_done - t_submit,
                plan=_plan_text(job.injector),
                exec_s=result.exec_s,
                wait_s=result.wait_s,
                attempts=result.attempts,
                retries=result.retries,
                restarts=result.restarts,
                fallback=result.fallback_used,
            )
            if job.scheme != "dag" and result.timeline is not None:
                op.sim_makespan_s, op.sim_tasks = result.sim_makespan, len(result.timeline)
            c0, g0 = time.process_time(), time.perf_counter()
            if result.status is JobStatus.FAILED:
                op.status, op.note = "failed", result.error or ""
            elif job.job_id in self.gate:
                problem = check_factor(result.factor, *self.gate.pop(job.job_id))
                if problem:
                    op.status, op.note = "wrong", problem
            result.factor = None
            gate_cpu += time.process_time() - c0
            gate_wall += time.perf_counter() - g0
            ops.append(op)
            while len(pending) < self.window and submit_next():
                pass
        return ops, time.perf_counter() - t0 - gate_wall / self.window, gate_cpu

    async def run_pass(self, start: int, count: int, tracer: Tracer | None = None) -> Pass:
        specs = [self.spec(k) for k in range(start, start + count)]
        jobs = [self.make_job(k, s) for k, s in zip(range(start, start + count), specs)]
        crash = {job.job_id for job, s in zip(jobs, specs) if s.crash}
        self.prepare_gate(jobs)
        metrics = self.svc.metrics
        before = _counter_totals(metrics)
        dispatch0 = metrics["executor_dispatch_seconds"].sum
        meter = CpuMeter()
        ops, wall, gate_cpu = await self._drive(jobs, crash, tracer)
        cpu_self, cpu_children = meter.stop()
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.settle()
        after = _counter_totals(metrics)
        counters = {name: after[name] - before.get(name, 0.0) for name in after}
        counters["executor_dispatch_seconds_sum"] = metrics["executor_dispatch_seconds"].sum - dispatch0
        counters["runtime_lookahead_depth"] = metrics["runtime_lookahead_depth"].value()
        by_id = {op.index: op for op in ops}
        counts = {
            "failed_ops": sorted(op.index for op in ops if op.status != "ok"),
            "corrections": int(counters.get("service_corrected_errors_total", 0)),
            "restarts": sum(op.restarts for op in ops),
            "retries": sum(op.retries for op in ops),
            "forward_recoveries": int(counters.get("recovery_forward_total", 0)),
            "backward_recoveries": int(counters.get("recovery_backward_total", 0)),
            "fallbacks": int(counters.get("service_fallbacks_total", 0)),
            "dag_tasks": int(counters.get("runtime_task_total", 0)),
            "faults_fired": sum(len(job.injector.fired) for job in jobs if job.injector is not None),
            "worker_restarts": int(counters.get("executor_worker_restarts_total", 0)),
            "desim_tasks": sum(op.sim_tasks for op in ops),
        }
        ops = [by_id[job.job_id] for job in jobs]
        return Pass(ops, wall, cpu_self - gate_cpu, cpu_children, rss, counts, counters)

    def baselines(self) -> dict:
        """Unprotected host time for one job matrix of each size in the mix."""
        matrices: dict[int, list[np.ndarray]] = {}
        for k, spec in enumerate(self.block_mix()):
            if spec.n not in matrices:
                matrices[spec.n] = [job_matrix(self.make_job(k, JobSpec(spec.scheme, spec.n)))]
        return _time_baselines(matrices, self.block_size)


def _counter_totals(metrics) -> dict[str, float]:
    return {name: sum(series.values()) for name, series in metrics.counters_snapshot().items()}


class ServiceClosed(ServiceWorkload):
    name = "service-closed"
    rate = 26.0
    sizes = (256, 512, 768)
    quick_sizes = (128, 256, 384)

    def block_mix(self) -> list[JobSpec]:
        """30 jobs: enhanced 40% / online, offline, dag 20% each; sizes even;
        priorities interactive 20% / batch 60% / best-effort 20%."""
        kinds = [("enhanced", 12), ("online", 6), ("offline", 6), ("dag", 6)]
        jobs = [(scheme, self.sizes[i % 3]) for scheme, cnt in kinds for i in range(cnt)]
        prios = [Priority.INTERACTIVE] * 6 + [Priority.BATCH] * 18 + [Priority.BEST_EFFORT] * 6
        # Priorities are spread by a fixed stride so no scheme gets one class.
        return [JobSpec(s, n, prios[(7 * i) % 30]) for i, (s, n) in enumerate(jobs)]


class ServiceFaulty(ServiceWorkload):
    name = "service-faulty"
    rate = 18.6
    window = 1  # an armed crash must hit the intended job
    warmups = 20
    journal = True
    sizes = (256, 512)
    quick_sizes = (128, 256)

    def block_mix(self) -> list[JobSpec]:
        """20 jobs: enhanced 50% / online 30% / offline 20%, sizes even.

        Six carry one fault, each where its scheme claims coverage:
        storage flips and a computing error in enhanced jobs, computing
        errors in online jobs.  A storage flip in an online job or a
        computing error in an offline one can end as a silently wrong
        factor that only the residual gate stops (README, seed findings),
        and a workload must not fail by design.  One enhanced job of the
        largest size has its pool worker killed mid-run.
        """
        kinds = [("enhanced", 10), ("online", 6), ("offline", 4)]
        jobs = [(scheme, self.sizes[i % 2]) for scheme, cnt in kinds for i in range(cnt)]
        faults = {1: "storage", 4: "storage", 6: "storage", 3: "computing", 11: "computing", 12: "computing"}
        crash = 9
        return [
            JobSpec(s, n, fault=faults.get(i), crash=i == crash) for i, (s, n) in enumerate(jobs)
        ]


WORKLOADS = {w.name: w for w in (PotrfFine, PotrfCoarse, ServiceClosed, ServiceFaulty)}


# -- metrics ----------------------------------------------------------------------


#: every end-to-end metric the runner prints.  ``BENCHMARK.json`` declares
#: all but p90 and failed_share; compare.py gates failed_share on its own
#: (bench/README.md says why).
E2E_UNITS = {
    "op_latency_p50_s": "s",
    "op_latency_p90_s": "s",
    "ops_per_s": "1/s",
    "useful_gflops": "GFLOP/s",
    "cpu_s_per_op": "s",
    "failed_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def e2e_metrics(out: Outcome, import_s: float) -> dict[str, float]:
    """The end-to-end metrics, all from the untraced pass."""
    p = out.untraced
    lat = p.latencies()
    good = [op for op in p.ops if op.status == "ok"]
    return {
        "op_latency_p50_s": statistics.median(lat),
        "op_latency_p90_s": float(np.percentile(lat, 90)),
        "ops_per_s": len(good) / p.wall_s,
        "useful_gflops": sum(op.n**3 / 3.0 for op in good) / p.wall_s / 1e9,
        "cpu_s_per_op": (p.cpu_self_s + p.cpu_children_s) / len(p.ops),
        "failed_share": len(p.bad()) / len(p.ops),
        "setup_s": import_s + statistics.median(out.setup_times),
        "peak_rss_mb": p.rss_mb,
    }


def layer_metrics(out: Outcome, service: bool) -> dict[str, float]:
    """Per-layer metrics of a ``--trace`` run.

    Span-derived numbers and counts come from the traced pass.  Ratios the
    wrappers would distort (parallelism, ABFT tax) come from the untraced
    pass of the same run.  Every ``*_s_per_op`` layer time is self time.
    """
    t, tp, up = out.tracer, out.traced, out.untraced
    ops = len(tp.ops)
    c, counts, raw = tp.counters, tp.counts, up.raw
    host, lapack = out.baselines["host_s"], out.baselines["lapack_s"]
    done = [op for op in up.ops if op.status == "ok"]
    forward = c.get("recovery_forward_total", 0.0)
    recoveries = forward + c.get("recovery_backward_total", 0.0)
    resumes = t.count("recovery.resume")
    reuse, miss = c.get("executor_arena_reuse_total", 0.0), c.get("executor_arena_miss_total", 0.0)
    sims = [op for op in tp.ops if op.sim_tasks] if service else tp.ops
    blas_busy = t.self_time("blas")
    return {
        "blas.calls_per_op": t.count("blas") / ops,
        "blas.busy_s_per_op": blas_busy / ops,
        "blas.flops_per_op": t.extra("blas") / ops,
        "blas.gflops": t.extra("blas") / blas_busy / 1e9 if blas_busy else 0.0,
        "magma.self_s_per_op": t.self_time("magma") / ops,
        "core.driver_s_per_op": t.self_time("core.driver") / ops,
        "core.encode_s_per_op": t.self_time("core.encode") / ops,
        "core.update_s_per_op": t.self_time("core.update") / ops,
        "core.verify_s_per_op": t.self_time("core.verify") / ops,
        "core.tiles_verified_per_op": counts.get("tiles_verified", 0) / ops,
        "core.corrections_per_op": counts["corrections"] / ops,
        "core.abft_tax": statistics.median(
            (op.exec_s if service else op.latency_s) / host[op.n] for op in done
        ),
        "core.lapack_s": statistics.median(lapack[op.n] for op in up.ops),
        "desim.simulate_s_per_op": t.self_time("desim.simulate") / ops,
        "hetero.launch_self_s_per_op": t.self_time("hetero.launch") / ops,
        "desim.tasks_per_op": counts["desim_tasks"] / ops,
        "desim.sim_makespan_s": (
            sum(op.sim_makespan_s for op in sims) / len(sims) if service and sims
            else raw.get("sim_makespan_s", 0.0) / len(up.ops)
        ),
        "runtime.driver_s_per_op": t.self_time("runtime.driver") / ops,
        "runtime.graph_build_s_per_op": t.self_time("runtime.graph_build") / ops,
        "runtime.execute_s_per_op": t.self_time("runtime.execute") / ops,
        "runtime.parallelism": (
            raw["dag_cpu_s"] / raw["dag_wall_s"] if raw.get("dag_wall_s") else 0.0
        ),
        "runtime.tasks_per_op": counts["dag_tasks"] / ops,
        "runtime.max_lookahead_depth": float(
            c.get("runtime_lookahead_depth", raw.get("max_lookahead", 0))
        ),
        "exec.roundtrip_s_per_job": t.duration("exec.roundtrip") / ops,
        "exec.parent_input_s_per_job": t.duration("exec.parent_input") / ops,
        "exec.slot_wait_s_per_job": c.get("executor_dispatch_seconds_sum", 0.0) / ops,
        "exec.ipc_bytes_per_job": c.get("executor_ipc_bytes_total", 0.0) / ops,
        "exec.arena_hit_ratio": reuse / (reuse + miss) if reuse + miss else 0.0,
        "exec.parallelism": up.cpu_children_s / up.wall_s,
        "exec.worker_restarts": c.get("executor_worker_restarts_total", 0.0),
        "service.queue_wait_s_p50": statistics.median(op.wait_s for op in tp.ops),
        "service.exec_s_p50": statistics.median(op.exec_s for op in tp.ops),
        "service.overhead_s_per_job": (
            sum(op.latency_s for op in tp.ops)
            - t.duration("exec.roundtrip")
            - t.duration("recovery.resume")
        ) / ops if service else 0.0,
        "service.attempts_per_job": sum(op.attempts for op in tp.ops) / ops if service else 0.0,
        "service.retries_per_job": counts.get("retries", 0) / ops,
        "service.restarts_per_job": counts["restarts"] / ops if service else 0.0,
        "service.fallbacks": c.get("service_fallbacks_total", 0.0),
        "service.residual_gate_failures": c.get("service_incorrect_results_total", 0.0),
        "recovery.forward_total": forward,
        "recovery.backward_total": c.get("recovery_backward_total", 0.0),
        "recovery.erasure_tiles_total": c.get("recovery_erasure_tiles_total", 0.0),
        "recovery.salvage_s_per_recovery": (
            (t.duration("recovery.salvage") + t.duration("recovery.repair")) / recoveries
            if recoveries else 0.0
        ),
        "recovery.resume_s_per_recovery": (
            (t.duration("recovery.resume") - t.duration("recovery.repair")) / forward
            if forward else 0.0
        ),
        "recovery.banked_fraction": t.extra("recovery.resume") / resumes if resumes else 0.0,
        "resilience.journal_records_per_job": t.count("resilience.journal") / ops,
        "resilience.journal_s_per_job": t.duration("resilience.journal") / ops,
        "faults.fired_per_op": counts["faults_fired"] / ops,
        "op.self_s_per_op": t.self_time("op") / ops,
        "trace.overhead": statistics.median(tp.latencies()) / statistics.median(up.latencies()),
        "trace.coverage": t.coverage(),
        "trace.stray_refs": float(len(out.strays)),
    }
