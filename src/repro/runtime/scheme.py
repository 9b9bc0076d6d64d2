"""The ``dag`` scheme: the ABFT'd factorization on the tile-task runtime.

:func:`dag_potrf` runs the right-looking tile graph of
:mod:`repro.runtime.cholesky` through the restart loop every scheme
shares (:func:`repro.core.base.run_with_recovery`), with :class:`DagRun`
as its attempt, and returns the same
:class:`~repro.core.base.FtPotrfResult`.  It executes on the *host*:
real BLAS kernels on real threads, with no simulated machine.  So the
result's ``makespan`` is ``None`` (time the call for host seconds), its
``runtime`` is the executor summary, and its ``timeline`` holds the
executed tasks' wall-clock spans.  It is real-numerics only.
"""

from __future__ import annotations

import numpy as np

from repro.blas.blocked import BlockedMatrix
from repro.core.base import FtPotrfResult, run_with_recovery
from repro.core.config import AbftConfig
from repro.core.correct import VerifyStats
from repro.core.multierror import MultiErrorCodec
from repro.desim.trace import (
    META_CHK_READS,
    META_CHK_WRITES,
    META_ITERATION,
    META_TILE_READS,
    META_TILE_VERIFIES,
    META_TILE_WRITES,
    Span,
    Timeline,
)
from repro.faults.injector import FaultInjector, Hook
from repro.hetero.machine import Machine
from repro.hetero.memory import DeviceChecksums, DeviceMatrix
from repro.runtime.cholesky import build_cholesky_graph, encode_strips, merge_stats
from repro.runtime.dag import TaskGraph
from repro.runtime.executor import DagExecutor
from repro.runtime.task import Cell
from repro.util.validation import require


def _tiles(cells: frozenset[Cell], space: str) -> list[tuple[int, int]]:
    return sorted((i, j) for (s, i, j) in cells if s == space)


def _timeline(graph: TaskGraph) -> Timeline:
    """Real spans from the executed graph (host wall clock, tid = index).

    A verify lists its tiles under ``tile_verifies``, as the simulated
    schemes' verification barriers do, and a fault's victims are no access
    of the protocol: the spans re-verify under ``analyze-trace``.
    """
    preds = graph.dependencies()
    spans: list[Span] = []
    for task in graph.tasks:
        meta = {
            META_ITERATION: task.iteration,
            META_TILE_READS: _tiles(task.reads, "A"),
            META_CHK_READS: _tiles(task.reads, "C"),
        }
        if task.kind == "verify":
            meta[META_TILE_VERIFIES] = _tiles(task.reads, "A")
        else:
            meta[META_TILE_WRITES] = _tiles(task.writes, "A")
            meta[META_CHK_WRITES] = _tiles(task.writes, "C")
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


class DagRun:
    """One dag attempt: tile buffers, codec, stats and, once it ran to the
    end, the executor summary and (when asked for) the executed spans."""

    placement = "host"
    #: the dag takes no snapshots: a restart begins from the input
    restart_point = None

    def __init__(
        self,
        scheme: str,
        machine: Machine,
        n: int,
        block_size: int,
        config: AbftConfig,
        injector: FaultInjector,
        numerics: str,
        a: np.ndarray,
        start_iteration: int = 0,
        progress=None,
        timeline: bool = True,
    ) -> None:
        self.config = config
        self.injector = injector
        self.start_iteration = start_iteration
        self.timeline = timeline
        self.matrix = DeviceMatrix("A", n, block_size, BlockedMatrix(a, block_size))
        self.chk = DeviceChecksums.zeros("chk", n, block_size, real=True, rows_per_tile=config.n_checksums)
        injector.bind("matrix", self.matrix)
        injector.bind("checksum", self.chk)
        self.codec = MultiErrorCodec(block_size, config.n_checksums, rtol=config.rtol)
        self.stats = VerifyStats()
        self.runtime: dict | None = None
        self.spans: Timeline | None = None

    def replay(self) -> tuple[None, Timeline | None]:
        """No simulated seconds, and the spans a finished attempt kept (a
        failed attempt banks none)."""
        return None, self.spans


def _factor_dag(run: DagRun) -> None:
    """Encode, build the attempt's tile graph and execute it."""
    require(run.start_iteration == 0, "the dag scheme does not resume mid-run")
    encode_strips(run.matrix, run.chk, run.codec.weights)
    run.injector.fire(Hook.BEFORE_FACTORIZATION, iteration=-1)
    graph, slots = build_cholesky_graph(run.matrix, run.chk, run.codec, run.injector)
    run.runtime = DagExecutor(graph, workers=run.config.dag_workers).run()
    run.stats = merge_stats(slots)
    if run.timeline:
        run.spans = _timeline(graph)


def dag_potrf(
    machine: Machine,
    a: np.ndarray | None = None,
    n: int | None = None,
    block_size: int | None = None,
    config: AbftConfig | None = None,
    injector: FaultInjector | None = None,
    numerics: str = "real",
    timeline: bool = True,
) -> FtPotrfResult:
    """Fault-tolerant Cholesky on the tile-DAG runtime, in place on *a*.

    *a* must be a writeable, C-contiguous float64 array.  On success it
    holds L with zeros above the diagonal, and the result's ``factor`` is
    *a*; a call that raises leaves *a* as it was.

    ``config.dag_workers`` picks the schedule; the factor, statistics and
    corrected sites are bit-identical for every choice (see
    :mod:`repro.runtime.dag` for why).  ``timeline=False`` skips building
    the executed graph's spans.
    """
    require(numerics == "real", "the dag scheme runs real numerics only")
    return run_with_recovery(
        "dag", _factor_dag, machine, a, n, block_size, config, injector, numerics,
        timeline=timeline, attempt=DagRun,
    )
