"""The ``dag`` scheme: the ABFT'd factorization on the tile-task runtime.

:func:`dag_potrf` is the runtime's counterpart of the desim drivers'
entry points (same call shape, duck-compatible result), but it executes
on the *host* clock: real BLAS kernels on real threads, makespan = wall
seconds.  It is real-numerics only — there is no simulated machine to
run a shadow factorization on.

The restart protocol mirrors :func:`repro.core.base.run_with_recovery`:
every attempt factors the caller's array in place, a restart first puts
the pristine copy back, an unrecoverable attempt banks its wall time and
disarms the injector (one-shot faults), and a call that raises leaves the
array as it was.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.blas.blocked import BlockedMatrix
from repro.blas.flops import potrf_flops
from repro.core.config import AbftConfig
from repro.core.correct import VerifyStats
from repro.core.multierror import MultiErrorCodec
from repro.desim.trace import (
    META_CHK_READS,
    META_CHK_WRITES,
    META_ITERATION,
    META_TILE_READS,
    META_TILE_WRITES,
    Span,
    Timeline,
)
from repro.faults.injector import FaultInjector, Hook, no_faults
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.runtime.cholesky import build_cholesky_graph, encode_strips, merge_stats
from repro.runtime.dag import TaskGraph
from repro.runtime.executor import DagExecutor
from repro.util.exceptions import (
    RestartExhaustedError,
    SingularBlockError,
    UnrecoverableError,
)
from repro.util.validation import check_block_size, check_in_place, require


@dataclass
class DagPotrfResult:
    """Outcome of a runtime factorization — duck-compatible with
    :class:`repro.core.base.FtPotrfResult` where the service needs it."""

    scheme: str
    machine: str
    n: int
    block_size: int
    makespan: float  # total host wall seconds across all attempts
    restarts: int
    stats: VerifyStats  # of the successful attempt
    timeline: Timeline | None  # of the successful attempt; None under timeline=False
    placement: str
    config: AbftConfig
    #: the lower-triangular factor L: the caller's *a* itself, factored in
    #: place with zeros above the diagonal
    factor: np.ndarray
    runtime: dict  # executor summary of the successful attempt
    attempt_makespans: list[float] = field(default_factory=list)

    @property
    def gflops(self) -> float:
        return potrf_flops(self.n) / self.makespan / 1e9


def _timeline(graph: TaskGraph) -> Timeline:
    """Real spans from the executed graph (host wall clock, tid = index)."""
    preds = graph.dependencies()
    spans: list[Span] = []
    for task in graph.tasks:
        meta = {
            META_ITERATION: task.iteration,
            META_TILE_READS: sorted((i, j) for (s, i, j) in task.reads if s == "A"),
            META_TILE_WRITES: sorted((i, j) for (s, i, j) in task.writes if s == "A"),
            META_CHK_READS: sorted((i, j) for (s, i, j) in task.reads if s == "C"),
            META_CHK_WRITES: sorted((i, j) for (s, i, j) in task.writes if s == "C"),
        }
        spans.append(
            Span(
                tid=task.index,
                name=task.label,
                kind=task.kind,
                resource="host",
                start=task.start_s,
                finish=task.finish_s,
                meta=meta,
                deps=tuple(sorted(preds[task.index])),
            )
        )
    return Timeline(spans)


def dag_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    config: AbftConfig | None = None,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    timeline: bool = True,
) -> DagPotrfResult:
    """Fault-tolerant Cholesky on the tile-DAG runtime, in place on *a*.

    *a* must be a writeable, C-contiguous float64 array.  On success it
    holds L with zeros above the diagonal, and the result's ``factor`` is
    *a*; a call that raises leaves *a* as it was.

    ``config.dag_workers`` picks the schedule; the factor, statistics and
    corrected sites are bit-identical for every choice (see
    :mod:`repro.runtime.dag` for why).  ``timeline=False`` skips building
    the executed graph's spans; ``makespan`` stays the wall seconds.
    """
    require(numerics == "real", "the dag scheme runs real numerics only")
    require(a is not None, "real mode requires the matrix a")
    cfg = config if config is not None else AbftConfig()
    inj = injector if injector is not None else no_faults()
    n = check_in_place("a", a)
    bs = block_size if block_size is not None else machine.default_block_size
    check_block_size(n, bs)
    pristine = a.copy()
    codec = MultiErrorCodec(bs, cfg.n_checksums, rtol=cfg.rtol)

    total = 0.0
    attempt_times: list[float] = []
    restarts = 0
    try:
        for attempt in range(cfg.max_restarts + 1):
            if attempt:
                np.copyto(a, pristine)
            matrix = DeviceMatrix("A", n, bs, BlockedMatrix(a, bs))
            chk = DeviceChecksums.zeros("chk", n, bs, real=True, rows_per_tile=cfg.n_checksums)
            inj.bind("matrix", matrix)
            inj.bind("checksum", chk)
            t_start = time.perf_counter()
            encode_strips(matrix, chk, codec.weights)
            inj.fire(Hook.BEFORE_FACTORIZATION, iteration=-1)
            graph, slots = build_cholesky_graph(matrix, chk, codec, inj)
            executor = DagExecutor(graph, workers=cfg.dag_workers)
            try:
                runtime = executor.run()
            except (UnrecoverableError, SingularBlockError):
                wall = time.perf_counter() - t_start
                total += wall
                attempt_times.append(wall)
                restarts += 1
                # The injected fault was a one-shot event; do not re-inject.
                inj.disarm()
                continue
            wall = time.perf_counter() - t_start
            total += wall
            attempt_times.append(wall)
            matrix.blocked.zero_upper()
            return DagPotrfResult(
                scheme="dag",
                machine=machine.name,
                n=n,
                block_size=bs,
                makespan=total,
                restarts=restarts,
                stats=merge_stats(slots),
                timeline=_timeline(graph) if timeline else None,
                placement="host",
                config=cfg,
                factor=a,
                runtime=runtime,
                attempt_makespans=attempt_times,
            )
        raise RestartExhaustedError(
            f"dag: still unrecoverable after {cfg.max_restarts} restart(s)"
        )
    except BaseException:
        np.copyto(a, pristine)
        raise
